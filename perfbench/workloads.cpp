#include "workloads.h"

#include <cstdio>
#include <stdexcept>

#include "core/presets.h"

namespace perfbench {

namespace {

using ds::core::AttackSpec;
using ds::resolver::ResilienceConfig;

// hybrid_week and renew_week replay preset TRC5 (800 clients, 1.8 qps,
// 7 days, shared arrivals) with a 6 h root+TLD outage on day 6. The smoke
// scale keeps the shape at a twentieth of the rate on the small hierarchy.
ds::core::ExperimentSetup week_setup(bool smoke, std::uint64_t seed) {
  const auto presets = ds::core::week_trace_presets();
  ds::core::ExperimentSetup setup;
  setup.hierarchy = smoke ? ds::core::small_hierarchy()
                          : ds::core::default_hierarchy();
  setup.workload = presets[4].workload;  // TRC5
  if (smoke) setup.workload = ds::core::scaled(setup.workload, 0.05);
  setup.workload.seed = seed;
  setup.attack = ds::core::standard_attack(ds::sim::hours(6));
  return setup;
}

// Per-client arrivals over a sharded fleet, 2 days, root+TLD outage at
// mid-run, hourly run report (instrumentation on). 32 shards of 3125
// clients keep a repetition short enough that one benchmark run holds
// five or so; the host's drift makes fewer, longer ones spread more.
Workload fleet_outage(bool smoke, std::uint64_t seed, int jobs) {
  Workload w;
  w.name = "fleet_outage";
  w.fleet = true;
  auto& s = w.setup;
  s.hierarchy = smoke ? ds::core::small_hierarchy()
                      : ds::core::default_hierarchy();
  s.workload.seed = seed;
  s.workload.num_clients = smoke ? 5000 : 100000;
  s.workload.duration = ds::sim::days(2);
  s.workload.mean_rate_qps = smoke ? 0.5 : 10.0;
  s.workload.arrivals = ds::trace::ArrivalModel::kPerClient;
  s.attack = AttackSpec::root_and_tlds(ds::sim::days(1), ds::sim::hours(6));
  s.report_interval = ds::sim::kHour;
  w.config = ResilienceConfig::vanilla();
  w.fleet_options.shards = smoke ? 8 : 32;
  w.fleet_options.jobs = jobs;
  w.fleet_options.lean_shards = true;
  return w;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke,
                       std::uint64_t seed, int jobs) {
  if (name == "fleet_outage") return fleet_outage(smoke, seed, jobs);
  Workload w;
  w.name = name;
  w.setup = week_setup(smoke, seed);
  if (name == "hybrid_week") {
    w.config = ResilienceConfig::combination(3);
  } else if (name == "renew_week") {
    w.config = ResilienceConfig::refresh_renew(
        ds::resolver::RenewalPolicy::kAdaptiveLfu, 5);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Counters counters_of(const ds::core::ExperimentResult& r) {
  Counters c;
  auto add = [&c](const char* key, std::string value) {
    c.fields.emplace_back(key, std::move(value));
  };
  const auto& t = r.totals;
  add("sr_queries", num(t.sr_queries));
  add("sr_failures", num(t.sr_failures));
  add("msgs_sent", num(t.msgs_sent));
  add("msgs_failed", num(t.msgs_failed));
  add("cache_answer_hits", num(t.cache_answer_hits));
  add("renewal_fetches", num(t.renewal_fetches));
  add("referrals_followed", num(t.referrals_followed));
  add("stale_serves", num(t.stale_serves));
  add("host_prefetches", num(t.host_prefetches));
  add("failover_hops", num(t.failover_hops));
  add("bytes_sent", num(t.bytes_sent));
  add("bytes_received", num(t.bytes_received));
  const ds::core::WindowStats w =
      r.attack_window.value_or(ds::core::WindowStats{});
  add("window.sr_queries", num(w.sr_queries));
  add("window.sr_failures", num(w.sr_failures));
  add("window.msgs_sent", num(w.msgs_sent));
  add("window.msgs_failed", num(w.msgs_failed));
  const auto& ts = r.trace_stats;
  add("trace.clients", num(static_cast<std::uint64_t>(ts.clients)));
  add("trace.requests_in", num(static_cast<std::uint64_t>(ts.requests_in)));
  add("trace.names", num(static_cast<std::uint64_t>(ts.names)));
  add("trace.zones", num(static_cast<std::uint64_t>(ts.zones)));
  add("trace.duration", num(ts.duration));
  return c;
}

}  // namespace perfbench
