// The benchmark's three workloads, each at two scales (full and smoke),
// built only from the public presets and config factories.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fleet.h"

namespace perfbench {

namespace ds = dnsshield;

/// The workload seed whose counters are pinned (preset TRC5's own seed).
inline constexpr std::uint64_t kDefaultSeed = 105;

struct Workload {
  std::string name;
  ds::core::ExperimentSetup setup;
  ds::resolver::ResilienceConfig config;
  /// Sharded per-client fleet (run_fleet_experiment) instead of one
  /// caching server fed by one stream (run_stream_experiment).
  bool fleet = false;
  ds::core::FleetRunOptions fleet_options;
};

/// Throws std::invalid_argument for an unknown name. `jobs` is the shard
/// job count of fleet workloads (ignored otherwise).
Workload make_workload(const std::string& name, bool smoke,
                       std::uint64_t seed, int jobs);

/// Everything the output check compares: the caching server's Stats
/// totals, the attack-window counts and the trace statistics, keyed by
/// name in a fixed order.
struct Counters {
  std::vector<std::pair<std::string, std::string>> fields;
};

Counters counters_of(const ds::core::ExperimentResult& result);

}  // namespace perfbench
