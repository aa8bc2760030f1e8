// Benchmark kernel: runs one workload and prints one JSON line with the
// raw measurements; perfbench/run.py turns them into the benchmark's
// metrics and checks the counters.
//
//   perfbench_kernel --workload NAME [--seed N] [--seconds S]
//                    [--mode plain|traced] [--scale full|smoke]
//                    [--spans-out FILE]
//
// plain:  repeats the untraced run (the public entry points
//         run_stream_experiment / run_fleet_experiment) at least twice
//         and while another repetition fits in --seconds, timing
//         kSetupsPerRep set-ups before each; reports every repetition,
//         a single-server one split into segments of equal event counts.
// traced: one untraced reference run, then one run of the traced runner
//         (traced.h); reports both runs' counters and the layer split.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "core/report.h"
#include "metrics/json.h"
#include "server/hierarchy_builder.h"
#include "trace/workload_stream.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_kernel: %s\nusage: perfbench_kernel --workload NAME "
               "[--seed N] [--seconds S] [--mode plain|traced] "
               "[--scale full|smoke] [--spans-out FILE]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(v);
    } else if (arg == "--mode") {
      if (v != "plain" && v != "traced") usage("bad --mode");
      o.traced = v == "traced";
    } else if (arg == "--scale") {
      if (v != "full" && v != "smoke") usage("bad --scale");
      o.smoke = v == "smoke";
    } else if (arg == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Peak resident set of this process in kB (VmHWM).
std::uint64_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Set-ups timed before each plain repetition, besides the one in it, so
/// the set-up samples span the whole run as the host's speed drifts.
constexpr int kSetupsPerRep = 4;
/// Full spans are kept for every kSpanEvery-th query of each stream.
constexpr std::uint64_t kSpanEvery = 16384;

dnsshield::server::Hierarchy build_world(const Workload& w) {
  dnsshield::server::Hierarchy h =
      dnsshield::server::build_hierarchy(w.setup.hierarchy);
  if (w.config.long_ttl_override != 0) {
    h.override_irr_ttls(w.config.long_ttl_override);
  }
  return h;
}

/// Set-up as the untraced path does it: hierarchy build, TTL override,
/// and (single-server workloads) the stream's construction.
double time_setup(const Workload& w) {
  const auto t0 = Clock::now();
  const dnsshield::server::Hierarchy h = build_world(w);
  if (!w.fleet) {
    dnsshield::trace::WorkloadStream stream(h, w.setup.workload);
  }
  return since(t0);
}

/// Events per timed segment of a single-server run.
constexpr std::uint64_t kSegmentEvents = 1u << 15;

/// Pass-through event source that stamps the clock every kSegmentEvents
/// pulls, so a run's time splits into segments of the same simulated
/// work in every repetition. One counter and one branch per event.
class SegmentTimer final : public dnsshield::trace::EventSource {
 public:
  explicit SegmentTimer(dnsshield::trace::EventSource& inner)
      : inner_(inner), last_(Clock::now()) {}

  const dnsshield::trace::QueryEvent* next() override {
    if (++pulls_ % kSegmentEvents == 0) stamp();
    return inner_.next();
  }

  /// Closes the open segment; call once the run has returned.
  std::vector<double> finish() {
    stamp();
    return std::move(segments_);
  }

 private:
  void stamp() {
    const auto now = Clock::now();
    segments_.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }

  dnsshield::trace::EventSource& inner_;
  Clock::time_point last_;
  std::uint64_t pulls_ = 0;
  std::vector<double> segments_;
};

struct Repetition {
  double setup_s = 0;  // build + override + stream, up to the first query
  double run_s = 0;    // first query to the returned result
  /// run_s split at fixed event counts (single-server workloads); the
  /// fleet entry point runs its shards inside one call, so one segment.
  std::vector<double> segments_s;
  double to_json_s = 0;
  std::uint64_t queries = 0;
  Counters counters;
};

/// One untraced run through the public entry points.
Repetition run_plain(const Workload& w) {
  Repetition rep;
  dnsshield::core::ExperimentResult result;
  if (!w.fleet) {
    const auto t0 = Clock::now();
    const dnsshield::server::Hierarchy h = build_world(w);
    dnsshield::trace::WorkloadStream stream(h, w.setup.workload);
    rep.setup_s = since(t0);
    const auto t1 = Clock::now();
    SegmentTimer timed(stream);
    result = dnsshield::core::run_stream_experiment(
        h, w.setup, w.config, timed, w.setup.workload.duration);
    rep.segments_s = timed.finish();
    rep.run_s = since(t1);
  } else {
    // The fleet entry point is one call that builds its own hierarchy, so
    // set-up is timed with the same public calls on their own.
    rep.setup_s = time_setup(w);
    const auto t1 = Clock::now();
    result = dnsshield::core::run_fleet_experiment(w.setup, w.config,
                                                   w.fleet_options)
                 .aggregate;
    rep.run_s = since(t1);
    rep.segments_s = {rep.run_s};
  }
  const auto t2 = Clock::now();
  const std::string json = dnsshield::core::to_json(result);
  rep.to_json_s = since(t2);
  if (json.empty()) throw std::runtime_error("empty report");
  rep.queries = result.totals.sr_queries;
  rep.counters = counters_of(result);
  return rep;
}

/// Fleet tracing overhead is measured on the first shards only: the
/// traced runner runs shards serially, so its reference is the same
/// shards run serially through the public run_stream_experiment.
constexpr std::size_t kOverheadShards = 8;

double untraced_shards_s(const Workload& w, std::size_t n) {
  const dnsshield::server::Hierarchy h = build_world(w);
  const auto shards = static_cast<std::uint32_t>(w.fleet_options.shards);
  dnsshield::core::StreamRunOptions options;
  options.collect_distributions = !w.fleet_options.lean_shards;
  const auto t0 = Clock::now();
  for (std::uint32_t s = 0; s < std::min<std::size_t>(n, shards); ++s) {
    dnsshield::trace::WorkloadStream stream(h, w.setup.workload, {s, shards});
    dnsshield::core::run_stream_experiment(h, w.setup, w.config, stream,
                                           w.setup.workload.duration, options);
  }
  return since(t0);
}

double traced_shards_s(const Layers& l, std::size_t n) {
  double sum = 0;
  for (std::size_t s = 0; s < std::min(n, l.shard_s.size()); ++s) {
    sum += l.shard_s[s];
  }
  return sum;
}

void write_counters(dnsshield::metrics::JsonWriter& j, const Counters& c) {
  j.begin_object();
  for (const auto& [k, v] : c.fields) j.key(k).value(v);
  j.end_object();
}

double quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double per(double num, double den) { return den == 0 ? 0.0 : num / den; }

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                 "\"query\":%lld,\"shard\":%u}\n",
                 s.name, s.start, s.end, s.parent,
                 static_cast<long long>(s.query), s.shard);
  }
  std::fclose(f);
}

/// The per-layer metrics of one traced run, by benchmark metric name.
std::vector<std::pair<std::string, double>> layer_metrics(
    const TracedRun& run, double overhead_ratio) {
  const Layers& l = run.layers;
  const auto& t = run.result.totals;
  const double q = static_cast<double>(t.sr_queries);
  std::vector<double> shard_s = l.shard_s;
  std::sort(shard_s.begin(), shard_s.end());
  return {
      {"server.build_hierarchy_s", l.build_hierarchy_s},
      {"server.override_irr_ttls_s", l.override_irr_ttls_s},
      {"trace.stream_init_s", l.stream_init_s},
      {"trace.next_s", l.next_s},
      {"trace.next_ns_per_event",
       per(l.next_s * 1e9, static_cast<double>(l.next_calls))},
      {"trace.stats_add_s", l.stats_add_s},
      {"trace.fleet_stats_pass_s", l.fleet_stats_pass_s},
      {"resolver.server_init_s", l.server_init_s},
      {"resolver.resolve_s", l.resolve_s},
      {"resolver.resolve_share", per(l.resolve_s, l.wall_s)},
      {"resolver.resolve_p50_us", quantile(l.resolve_ns, 0.5) / 1e3},
      {"resolver.resolve_p99_us", quantile(l.resolve_ns, 0.99) / 1e3},
      {"resolver.resolve_p999_us", quantile(l.resolve_ns, 0.999) / 1e3},
      {"resolver.allocs_per_query",
       per(static_cast<double>(l.resolve_allocs), q)},
      {"resolver.cache_answer_ratio",
       per(static_cast<double>(t.cache_answer_hits), q)},
      {"resolver.cache_inserts_per_query",
       per(static_cast<double>(l.cache_insertions), q)},
      {"resolver.msgs_per_query", per(static_cast<double>(t.msgs_sent), q)},
      {"resolver.failover_hops_per_query",
       per(static_cast<double>(t.failover_hops), q)},
      {"resolver.renewal_fetches_per_query",
       per(static_cast<double>(t.renewal_fetches), q)},
      {"attack.denials_per_query", per(static_cast<double>(l.denials), q)},
      {"sim.run_until_s", l.run_until_s},
      {"sim.run_until_share", per(l.run_until_s, l.wall_s)},
      {"sim.events_fired", static_cast<double>(l.events_fired)},
      {"sim.ns_per_event",
       per(l.run_until_s * 1e9, static_cast<double>(l.events_fired))},
      {"core.shard_s_p50", shard_s[(shard_s.size() - 1) / 2]},
      {"core.shard_s_max", shard_s.back()},
      {"core.result_s", l.result_s},
      {"core.merge_s", l.merge_s},
      {"core.to_json_s", l.to_json_s},
      {"trace.wall_s", l.wall_s},
      {"trace.overhead_ratio", overhead_ratio},
      {"trace.layer_coverage", per(l.timed_sum(), l.wall_s)},
  };
}

int run(const Options& o) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int jobs = static_cast<int>(nproc);
  const Workload w = make_workload(o.workload, o.smoke, o.seed, jobs);

  dnsshield::metrics::JsonWriter j;
  j.begin_object();
  j.key("workload").value(w.name);
  j.key("seed").value(o.seed);
  j.key("scale").value(o.smoke ? "smoke" : "full");
  j.key("mode").value(o.traced ? "traced" : "plain");
  j.key("host").begin_object();
  j.key("nproc").value(static_cast<std::uint64_t>(nproc));
  j.key("cpu_model").value(cpu_model());
  j.key("compiler").value(PERFBENCH_COMPILER);
  j.key("build_type").value(PERFBENCH_BUILD_TYPE);
  j.key("shard_jobs").value(w.fleet ? jobs : 1);
  j.end_object();

  if (!o.traced) {
    std::vector<double> setups;
    // At least two repetitions (the repeat check needs a pair); more
    // while another one still fits in --seconds.
    const auto start = Clock::now();
    std::vector<Repetition> reps;
    double last_s = 0;
    while (reps.size() < 2 || since(start) + last_s <= o.seconds) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kSetupsPerRep; ++i) setups.push_back(time_setup(w));
      reps.push_back(run_plain(w));
      last_s = since(t0);
      setups.push_back(reps.back().setup_s);
    }
    j.key("setup_s").begin_array();
    for (double s : setups) j.value(s);
    j.end_array();
    j.key("repetitions").begin_array();
    for (const Repetition& r : reps) {
      j.begin_object();
      j.key("setup_s").value(r.setup_s);
      j.key("run_s").value(r.run_s);
      j.key("segments_s").begin_array();
      for (double t : r.segments_s) j.value(t);
      j.end_array();
      j.key("to_json_s").value(r.to_json_s);
      j.key("queries").value(r.queries);
      j.key("counters");
      write_counters(j, r.counters);
      j.end_object();
    }
    j.end_array();
  } else {
    const auto t0 = Clock::now();
    const Repetition ref = run_plain(w);
    const double untraced_wall = since(t0);
    const TracedRun traced = run_traced(w, kSpanEvery);
    const double overhead =
        w.fleet ? traced_shards_s(traced.layers, kOverheadShards) /
                      untraced_shards_s(w, kOverheadShards)
                : traced.layers.wall_s / untraced_wall;
    if (!o.spans_out.empty()) write_spans(o.spans_out, traced.spans);
    j.key("untraced").begin_object();
    j.key("wall_s").value(untraced_wall);
    j.key("counters");
    write_counters(j, ref.counters);
    j.end_object();
    j.key("traced").begin_object();
    j.key("wall_s").value(traced.layers.wall_s);
    j.key("counters");
    write_counters(j, counters_of(traced.result));
    j.key("spans").value(static_cast<std::uint64_t>(traced.spans.size()));
    j.end_object();
    j.key("layers").begin_object();
    for (const auto& [name, v] : layer_metrics(traced, overhead)) {
      j.key(name).value(v);
    }
    j.end_object();
  }
  j.key("peak_rss_kb").value(vm_hwm_kb());
  j.end_object();
  std::printf("%s\n", j.take().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_kernel: %s\n", e.what());
    return 1;
  }
}
