// Experiment scenarios.
//
// A Scenario bundles everything one evaluation needs: the region catalog,
// the backbone latency matrix, a synthesized client population, and the
// observed TopicState of one collection interval. The three builders mirror
// the paper's Experiments 1-3 workloads; make_scenario() is the generic
// entry point used by examples and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/optimizer.h"
#include "core/topic_state.h"
#include "geo/king_synth.h"
#include "geo/latency.h"
#include "geo/region.h"
#include "sim/fault_schedule.h"

namespace multipub::sim {

/// Placement request: `publishers` / `subscribers` clients homed at `region`.
struct PlacementSpec {
  RegionId region;
  std::size_t publishers = 0;
  std::size_t subscribers = 0;
};

/// Workload knobs shared by all scenario builders.
struct WorkloadSpec {
  /// Average publications per publisher per second (paper: 1).
  double publish_rate_hz = 1.0;
  /// Size of each publication in bytes (paper: 1 KByte).
  Bytes message_bytes = 1024;
  /// Length of the observation interval in seconds.
  double interval_seconds = 60.0;
  /// Delivery guarantee ratio (percentile).
  double ratio = 75.0;
  /// Delivery bound; sweeps overwrite it per point.
  Millis max_t = kUnreachable;
  /// Clones every synthesized subscriber position this many times. The
  /// clones are real, distinct clients sharing one exact latency row and
  /// home region — the shape the cohort plane (DESIGN.md §12) folds into
  /// weight-N cohorts while the per-client plane runs N endpoints, which is
  /// what the cohort differential tests sweep. 1 = no replication.
  std::size_t subscriber_replication = 1;
};

/// A fully materialized single-topic evaluation problem.
struct Scenario {
  geo::RegionCatalog catalog;
  geo::InterRegionLatency backbone;
  geo::ClientPopulation population;
  core::TopicState topic;
  double interval_seconds = 60.0;
  /// Optional scheduled faults (scenario-file 'fault' stanzas); consumed by
  /// the chaos runner, ignored by the plain control loop.
  FaultSchedule faults;

  /// Optimizer wired to this scenario's matrices. The returned object
  /// borrows the scenario; keep the scenario alive while using it.
  [[nodiscard]] core::Optimizer make_optimizer() const {
    return core::Optimizer(catalog, backbone, population.latencies);
  }
};

/// Builds a scenario over the EC2-2016 catalog from explicit placements.
[[nodiscard]] Scenario make_scenario(const std::vector<PlacementSpec>& placements,
                                     const WorkloadSpec& workload, Rng& rng,
                                     const geo::KingSynthParams& synth = {});

/// The same over a given world (catalog + backbone).
[[nodiscard]] Scenario make_scenario(
    const geo::RegionCatalog& catalog, const geo::InterRegionLatency& backbone,
    const std::vector<PlacementSpec>& placements, const WorkloadSpec& workload,
    Rng& rng, const geo::KingSynthParams& synth = {});

/// Experiment 1: 10 publishers and 10 subscribers close to each of the ten
/// regions, 1 msg/s, 1 KB, ratio 75 %.
[[nodiscard]] Scenario make_experiment1_scenario(Rng& rng);

/// Experiment 2: 100 publishers spread over the four Asia-Pacific regions,
/// 25 subscribers near Tokyo and 25 near N. Virginia, ratio 75 %.
[[nodiscard]] Scenario make_experiment2_scenario(Rng& rng);

/// Experiment 3: 100 publishers and 100 subscribers all closest to `home`
/// (the paper runs Tokyo and Sao Paulo), ratio 95 %.
[[nodiscard]] Scenario make_experiment3_scenario(RegionId home, Rng& rng);

/// Messages one publisher emits during the interval (rate * seconds,
/// rounded, at least 1).
[[nodiscard]] std::uint64_t messages_per_interval(const WorkloadSpec& workload);

}  // namespace multipub::sim
