// The traced runner: runs a workload through the same public calls the
// untraced path reaches (build_hierarchy, override_irr_ttls,
// WorkloadStream::next, EventQueue::run_until, CachingServer::resolve,
// core::to_json), timing every call from the benchmark's own code. It
// re-states the run loop of core::run_stream_experiment (and, for fleet
// workloads, the shard loop and merge of core::run_fleet_experiment), so
// its totals must equal the untraced run's; run.py checks that.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// One timed call. Times are seconds since the traced run began; parent
/// indexes the enclosing span (-1 at top level); query is the query's
/// index in its stream (-1 outside the per-query loop); shard is the
/// fleet shard (0 for single-server workloads).
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;
  std::int64_t query = -1;
  std::uint32_t shard = 0;
};

/// Per-layer aggregates over every call of the traced run.
struct Layers {
  double build_hierarchy_s = 0;
  double override_irr_ttls_s = 0;
  double stream_init_s = 0;   // WorkloadStream constructions (per shard)
  double server_init_s = 0;   // injector + event queue + caching server
  double next_s = 0;
  std::uint64_t next_calls = 0;
  double run_until_s = 0;
  double resolve_s = 0;
  std::vector<float> resolve_ns;  // one sample per resolve call
  std::uint64_t resolve_allocs = 0;
  double stats_add_s = 0;        // TraceStatsAccumulator::add per query
  double result_s = 0;           // per-shard result assembly + teardown
  std::vector<double> shard_s;   // wall of each shard (one unless fleet)
  double merge_s = 0;            // shard merge (a copy unless fleet)
  double fleet_stats_pass_s = 0; // global trace-stats re-pass (fleet only)
  double to_json_s = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t denials = 0;
  std::uint64_t cache_insertions = 0;
  double wall_s = 0;

  /// Sum of every timed layer (what the coverage check compares to wall).
  double timed_sum() const;
};

struct TracedRun {
  dnsshield::core::ExperimentResult result;
  Layers layers;
  std::vector<Span> spans;
};

/// Runs `w` once through the traced runner. Fleet workloads run their
/// shards serially; a single-server workload is a fleet of one. Full spans are kept for every `span_every`-th query
/// of each stream (0 keeps none).
TracedRun run_traced(const Workload& w, std::uint64_t span_every);

}  // namespace perfbench
