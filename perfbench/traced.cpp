#include "traced.h"

#include <chrono>
#include <functional>
#include <map>
#include <stdexcept>

#include "attack/injector.h"
#include "attack/scenario.h"
#include "core/report.h"
#include "server/hierarchy_builder.h"
#include "sim/alloc_counter.h"
#include "sim/event_queue.h"
#include "trace/workload_stream.h"

namespace perfbench {

namespace {

using ds::core::ExperimentResult;
using ds::core::ExperimentSetup;
using ds::core::IntervalSample;
using ds::core::PhaseSummary;
using ds::core::RunPhase;
using ds::core::RunReport;
using ds::core::WindowStats;
using ds::resolver::CachingServer;
using Clock = std::chrono::steady_clock;

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int add(const char* name, double start, double end, int parent,
          std::int64_t query = -1, std::uint32_t shard = 0) {
    spans.push_back({name, start, end, parent, query, shard});
    return static_cast<int>(spans.size()) - 1;
  }

  std::vector<Span> spans;

 private:
  Clock::time_point origin_;
};

ds::attack::AttackScenario scenario_of(const ds::core::AttackSpec& spec,
                                       const ds::server::Hierarchy& h) {
  using Kind = ds::core::AttackSpec::Kind;
  if (spec.kind == Kind::kNone) return {};
  if (spec.kind != Kind::kRootAndTlds) {
    throw std::invalid_argument("traced runner supports root+TLD attacks only");
  }
  ds::attack::AttackScenario s =
      ds::attack::root_and_tlds(h, spec.start, spec.duration);
  s.strength = spec.strength;
  return s;
}

// Adds the phase counters of an IntervalSample or a PhaseSummary.
template <typename From>
void add_phase(PhaseSummary& into, const From& b) {
  into.sr_queries += b.sr_queries;
  into.sr_failures += b.sr_failures;
  into.msgs_sent += b.msgs_sent;
  into.msgs_failed += b.msgs_failed;
  into.renewal_fetches += b.renewal_fetches;
  into.stale_serves += b.stale_serves;
}

// One caching server over one stream slice: the loop of
// core::run_stream_experiment with every layer call timed.
ExperimentResult run_shard(const ds::server::Hierarchy& hierarchy,
                           const ExperimentSetup& setup,
                           const ds::resolver::ResilienceConfig& config,
                           ds::trace::ShardSlice slice,
                           bool collect_distributions, std::uint64_t span_every,
                           int parent, Recorder& rec, Layers& layers) {
  namespace counter = ds::sim::alloc_counter;
  const ds::sim::Duration horizon = setup.workload.duration;
  ExperimentResult result;

  // The shard's state lives in this scope, so its teardown is timed too.
  double t = rec.now();
  {
    ds::trace::WorkloadStream source(hierarchy, setup.workload, slice);
    double t1 = rec.now();
    layers.stream_init_s += t1 - t;
    rec.add("trace.stream_init", t, t1, parent, -1, slice.shard);
    t = t1;

    const ds::attack::AttackScenario scenario =
        scenario_of(setup.attack, hierarchy);
    const bool has_attack =
        setup.attack.kind != ds::core::AttackSpec::Kind::kNone;
    const ds::attack::AttackInjector injector =
        has_attack ? ds::attack::AttackInjector(hierarchy, scenario)
                   : ds::attack::AttackInjector();
    ds::sim::EventQueue events;
    ds::metrics::MetricsRegistry registry;
    CachingServer cs(hierarchy, injector, events, config);
    cs.set_collect_distributions(collect_distributions);
    const bool instrument = setup.report_interval > 0;
    if (instrument) cs.set_instrumentation(&registry, nullptr);

    result.scheme_label = config.label();

    CachingServer::Stats at_start, at_end;
    if (has_attack) {
      events.schedule_at(scenario.start, [&] { at_start = cs.stats(); });
      events.schedule_at(scenario.end(), [&] { at_end = cs.stats(); });
    }

    RunReport report;
    CachingServer::Stats bucket_base;
    ds::sim::SimTime bucket_start = 0;
    const auto phase_of = [&](ds::sim::SimTime at) {
      if (!has_attack || at < scenario.start) return RunPhase::kPreAttack;
      return at < scenario.end() ? RunPhase::kAttack : RunPhase::kRecovery;
    };
    const auto flush_bucket = [&](ds::sim::SimTime t_end) {
      const CachingServer::Stats& s = cs.stats();
      IntervalSample b;
      b.start = bucket_start;
      b.end = t_end;
      b.phase = phase_of(bucket_start);
      b.sr_queries = s.sr_queries - bucket_base.sr_queries;
      b.sr_failures = s.sr_failures - bucket_base.sr_failures;
      b.msgs_sent = s.msgs_sent - bucket_base.msgs_sent;
      b.msgs_failed = s.msgs_failed - bucket_base.msgs_failed;
      b.renewal_fetches = s.renewal_fetches - bucket_base.renewal_fetches;
      b.stale_serves = s.stale_serves - bucket_base.stale_serves;
      b.cache_answer_hits = s.cache_answer_hits - bucket_base.cache_answer_hits;
      b.cache_rrsets = cs.cache().size();
      b.queue_depth = events.pending();
      add_phase(report.phases[static_cast<std::size_t>(b.phase)], b);
      report.samples.push_back(b);
      bucket_base = s;
      bucket_start = t_end;
    };
    std::function<void()> report_sampler;
    if (setup.report_interval > 0) {
      report.interval = setup.report_interval;
      report_sampler = [&] {
        flush_bucket(events.now());
        cs.audit();
        if (events.now() + setup.report_interval <= horizon) {
          events.schedule_in(setup.report_interval, report_sampler);
        }
      };
      events.schedule_at(setup.report_interval, report_sampler);
    }
    ds::trace::TraceStatsAccumulator trace_acc(hierarchy);
    t1 = rec.now();
    layers.server_init_s += t1 - t;
    t = t1;

    // The per-query loop. Consecutive timestamps are shared, so the four
    // layers tile the loop's wall time.
    std::int64_t query = 0;
    for (;; ++query) {
      const ds::trace::QueryEvent* ev = source.next();
      const double t_next = rec.now();
      layers.next_s += t_next - t;
      ++layers.next_calls;
      if (ev == nullptr) {
        t = t_next;
        break;
      }
      events.run_until(ev->time);
      const double t_events = rec.now();
      layers.run_until_s += t_events - t_next;
      const std::uint64_t allocs = counter::allocations();
      cs.resolve(ev->qname, ev->qtype);
      layers.resolve_allocs += counter::allocations() - allocs;
      const double t_resolve = rec.now();
      layers.resolve_s += t_resolve - t_events;
      layers.resolve_ns.push_back(
          static_cast<float>((t_resolve - t_events) * 1e9));
      trace_acc.add(*ev);
      const double t_end = rec.now();
      layers.stats_add_s += t_end - t_resolve;
      if (span_every != 0 &&
          static_cast<std::uint64_t>(query) % span_every == 0) {
        const int q = rec.add("query", t, t_end, parent, query, slice.shard);
        rec.add("trace.next", t, t_next, q, query, slice.shard);
        rec.add("sim.run_until", t_next, t_events, q, query, slice.shard);
        rec.add("resolver.resolve", t_events, t_resolve, q, query, slice.shard);
        rec.add("trace.stats_add", t_resolve, t_end, q, query, slice.shard);
      }
      t = t_end;
    }
    events.run_until(horizon);
    t1 = rec.now();
    layers.run_until_s += t1 - t;
    rec.add("sim.run_until", t, t1, parent, -1, slice.shard);
    t = t1;

    result.trace_stats = trace_acc.stats();
    result.totals = cs.stats();
    result.cache_stats = cs.cache().stats();
    result.gap_days = cs.gap_days();
    result.gap_ttl_fraction = cs.gap_ttl_fraction();
    result.latency = cs.latency_cdf();
    if (has_attack) {
      if (scenario.end() > horizon) at_end = cs.stats();
      WindowStats window;
      window.sr_queries = at_end.sr_queries - at_start.sr_queries;
      window.sr_failures = at_end.sr_failures - at_start.sr_failures;
      window.msgs_sent = at_end.msgs_sent - at_start.msgs_sent;
      window.msgs_failed = at_end.msgs_failed - at_start.msgs_failed;
      result.attack_window = window;
    }
    if (setup.report_interval > 0) {
      if (bucket_start < horizon) flush_bucket(horizon);
      result.run_report = std::move(report);
    }
    if (instrument) {
      registry.gauge("sim.events_fired")
          .set(static_cast<double>(events.fired()));
      registry.gauge("sim.queue_peak")
          .set(static_cast<double>(events.max_pending()));
      registry.gauge("cache.entries")
          .set(static_cast<double>(cs.cache().size()));
      registry.gauge("attack.denials")
          .set(static_cast<double>(injector.denials()));
      registry.gauge("attack.blocked_servers")
          .set(static_cast<double>(injector.blocked_server_count()));
      result.metrics = registry.snapshot();
    }
    layers.events_fired += events.fired();
    layers.denials += injector.denials();
    layers.cache_insertions += cs.cache().stats().insertions;
  }
  layers.result_s += rec.now() - t;
  return result;
}

// The shard merge of core::run_fleet_experiment: counters, cache stats,
// attack windows, run reports and registry snapshots add up in shard
// order.
ExperimentResult merge_shards(const std::vector<ExperimentResult>& shards,
                              const ds::resolver::ResilienceConfig& config,
                              bool has_attack) {
  ExperimentResult agg;
  agg.scheme_label = config.label();
  WindowStats window;
  for (const auto& r : shards) {
    auto& t = agg.totals;
    const auto& s = r.totals;
    t.sr_queries += s.sr_queries;
    t.sr_failures += s.sr_failures;
    t.msgs_sent += s.msgs_sent;
    t.msgs_failed += s.msgs_failed;
    t.cache_answer_hits += s.cache_answer_hits;
    t.renewal_fetches += s.renewal_fetches;
    t.referrals_followed += s.referrals_followed;
    t.stale_serves += s.stale_serves;
    t.host_prefetches += s.host_prefetches;
    t.failover_hops += s.failover_hops;
    t.bytes_sent += s.bytes_sent;
    t.bytes_received += s.bytes_received;
    auto& c = agg.cache_stats;
    c.hits += r.cache_stats.hits;
    c.misses += r.cache_stats.misses;
    c.insertions += r.cache_stats.insertions;
    c.rejections += r.cache_stats.rejections;
    c.evictions += r.cache_stats.evictions;
    agg.gap_days.merge(r.gap_days);
    agg.gap_ttl_fraction.merge(r.gap_ttl_fraction);
    agg.latency.merge(r.latency);
    const WindowStats w = r.attack_window.value_or(WindowStats{});
    window.sr_queries += w.sr_queries;
    window.sr_failures += w.sr_failures;
    window.msgs_sent += w.msgs_sent;
    window.msgs_failed += w.msgs_failed;
  }
  if (has_attack) agg.attack_window = window;

  if (shards.front().run_report) {
    RunReport report;
    report.interval = shards.front().run_report->interval;
    report.samples = shards.front().run_report->samples;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      const auto& samples = shards[s].run_report->samples;
      for (std::size_t i = 0; i < report.samples.size() && i < samples.size();
           ++i) {
        IntervalSample& into = report.samples[i];
        const IntervalSample& b = samples[i];
        into.sr_queries += b.sr_queries;
        into.sr_failures += b.sr_failures;
        into.msgs_sent += b.msgs_sent;
        into.msgs_failed += b.msgs_failed;
        into.renewal_fetches += b.renewal_fetches;
        into.stale_serves += b.stale_serves;
        into.cache_answer_hits += b.cache_answer_hits;
        into.cache_rrsets += b.cache_rrsets;
        into.queue_depth += b.queue_depth;
      }
    }
    for (const auto& r : shards) {
      for (std::size_t p = 0; p < 3; ++p) {
        add_phase(report.phases[p], r.run_report->phases[p]);
      }
    }
    agg.run_report = std::move(report);

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, ds::metrics::MetricsSnapshot::HistogramSample>
        histograms;
    for (const auto& r : shards) {
      for (const auto& [name, v] : r.metrics.counters) counters[name] += v;
      for (const auto& [name, v] : r.metrics.gauges) gauges[name] += v;
      for (const auto& h : r.metrics.histograms) {
        auto [it, inserted] = histograms.try_emplace(h.name, h);
        if (inserted) continue;
        auto& into = it->second;
        into.count += h.count;
        into.sum += h.sum;
        for (std::size_t i = 0; i < into.counts.size() && i < h.counts.size();
             ++i) {
          into.counts[i] += h.counts[i];
        }
      }
    }
    agg.metrics.counters.assign(counters.begin(), counters.end());
    agg.metrics.gauges.assign(gauges.begin(), gauges.end());
    for (auto& [name, h] : histograms) {
      agg.metrics.histograms.push_back(std::move(h));
    }
  }
  return agg;
}

}  // namespace

double Layers::timed_sum() const {
  return build_hierarchy_s + override_irr_ttls_s + stream_init_s +
         server_init_s + next_s + run_until_s + resolve_s + stats_add_s +
         result_s + merge_s + fleet_stats_pass_s + to_json_s;
}

TracedRun run_traced(const Workload& w, std::uint64_t span_every) {
  TracedRun out;
  Recorder rec;
  Layers& layers = out.layers;
  const double t_begin = rec.now();

  double t = rec.now();
  ds::server::Hierarchy hierarchy =
      ds::server::build_hierarchy(w.setup.hierarchy);
  double t1 = rec.now();
  layers.build_hierarchy_s = t1 - t;
  rec.add("server.build_hierarchy", t, t1, -1);
  // Every step runs on every workload, so no layer time is a constant
  // zero: without a long TTL the override step is only its check; a
  // single server is a fleet of one, whose merge copies its one result
  // and whose trace statistics need no re-pass.
  t = rec.now();
  if (w.config.long_ttl_override != 0) {
    hierarchy.override_irr_ttls(w.config.long_ttl_override);
  }
  t1 = rec.now();
  layers.override_irr_ttls_s = t1 - t;
  rec.add("server.override_irr_ttls", t, t1, -1);

  const auto shards =
      w.fleet ? static_cast<std::uint32_t>(w.fleet_options.shards) : 1u;
  const bool collect = !w.fleet || !w.fleet_options.lean_shards;
  std::vector<ExperimentResult> results;
  results.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    t = rec.now();
    const int span = rec.add("core.shard", t, 0, -1, -1, s);
    results.push_back(run_shard(hierarchy, w.setup, w.config, {s, shards},
                                collect, span_every, span, rec, layers));
    t1 = rec.now();
    rec.spans[static_cast<std::size_t>(span)].end = t1;
    layers.shard_s.push_back(t1 - t);
  }

  // Fleet trace statistics come from the global re-pass at the end of
  // run_fleet_experiment; a single server's are its own.
  t = rec.now();
  ds::trace::TraceStats trace_stats;
  if (w.fleet) {
    ds::trace::WorkloadStream global(hierarchy, w.setup.workload);
    ds::trace::TraceStatsAccumulator acc(hierarchy);
    while (const ds::trace::QueryEvent* ev = global.next()) acc.add(*ev);
    trace_stats = acc.stats();
  } else {
    trace_stats = results.front().trace_stats;
  }
  t1 = rec.now();
  layers.fleet_stats_pass_s = t1 - t;
  rec.add("trace.fleet_stats_pass", t, t1, -1);

  const bool has_attack =
      w.setup.attack.kind != ds::core::AttackSpec::Kind::kNone;
  t = rec.now();
  out.result = merge_shards(results, w.config, has_attack);
  out.result.trace_stats = trace_stats;
  results.clear();
  t1 = rec.now();
  layers.merge_s = t1 - t;
  rec.add("core.merge", t, t1, -1);

  t = rec.now();
  const std::string report = ds::core::to_json(out.result);
  t1 = rec.now();
  if (report.empty()) throw std::runtime_error("empty report");
  layers.to_json_s = t1 - t;
  rec.add("core.to_json", t, t1, -1);

  layers.wall_s = t1 - t_begin;
  out.spans = std::move(rec.spans);
  return out;
}

}  // namespace perfbench
