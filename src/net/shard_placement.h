// Region-to-shard placement and window policies for the sharded data
// plane.
//
// Every sharded path the repository chooses (LiveSystem, shard_data_plane,
// the CLIs and bench_dataplane) runs round-robin placement with fixed
// windows. The conservative window of the parallel simulator (DESIGN.md
// §11) is as wide as the minimum CROSS-shard link latency; round-robin pins
// it to the globally closest region pair, but it spreads the events evenly,
// and the critical path (WindowStats::critical_events) shows that balance,
// not window width, bounds the parallel speedup (DESIGN.md §14).
//
// kTopology (single-linkage clustering that maximizes the minimum
// cross-shard latency) and WindowPolicy::kAdaptive remain only because
// perfbench's twin-sharded workload names them. They are pending deletion
// once that workload switches to round-robin with fixed windows.
//
// Placement never changes observables: shard assignment only decides which
// worker executes an event, and the sharded plane is bit-identical for any
// assignment. Only the window structure (and with it wall-clock) moves.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "geo/latency.h"

namespace multipub::net {

enum class ShardPlacement : std::uint8_t {
  kRoundRobin,  ///< region r -> shard r % K (the one sharded tuning)
  kTopology,    ///< single-linkage clustering; perfbench only, see above
};

/// How the sharded plane sizes its conservative windows. Like placement,
/// the policy never changes observables.
enum class WindowPolicy : std::uint8_t {
  kFixed,     ///< every window is `lookahead` wide (the one sharded tuning)
  kAdaptive,  ///< per-shard ends from the busy-shard horizon; perfbench only
};

/// Region -> shard assignment for `shards` shards under `placement`.
///
/// kTopology runs deterministic single-linkage clustering: Kruskal's MST
/// over the symmetric backbone distances (edges sorted by (latency, a, b)),
/// stopped when exactly `shards` components remain — equivalently, cutting
/// the K-1 heaviest MST edges. That partition maximizes the minimum
/// inter-cluster single-linkage distance, i.e. the minimum cross-shard
/// region<->region latency. Cluster labels are assigned by first appearance
/// in region-id order, so the output is a pure function of the matrix.
///
/// A uniform scaling of the matrix (e.g. FaultPlan::lookahead_scale, which
/// shrinks every latency by one global factor) does not change the argmax
/// partition, so the raw backbone is the right input even under fault
/// plans. Pre: 1 <= shards <= n_regions.
[[nodiscard]] std::vector<std::uint32_t> partition_regions(
    ShardPlacement placement, const geo::InterRegionLatency& backbone,
    std::uint32_t shards);

/// Minimum backbone latency over region pairs the assignment separates
/// (kUnreachable when no pair is separated). Shared by the partitioner's
/// tests and the benches' reporting.
[[nodiscard]] Millis min_cross_shard_region_latency(
    const geo::InterRegionLatency& backbone,
    const std::vector<std::uint32_t>& region_shard);

}  // namespace multipub::net
