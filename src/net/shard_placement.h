// Region-to-shard placement strategies and window policies for the
// sharded data plane.
//
// The conservative window of the parallel simulator (DESIGN.md §11) is as
// wide as the minimum CROSS-shard link latency, so where regions land
// directly bounds how often the shards must synchronize. Round-robin —
// the PR 5 recipe — scatters neighbouring regions across shards and pins
// the window to the globally closest region pair. The topology strategy
// instead clusters nearby regions onto the same shard, cutting only the
// widest links: for the same K it maximizes the minimum cross-shard
// backbone latency, which widens every legal window (see DESIGN.md §14).
//
// Placement never changes observables: shard assignment only decides which
// worker executes an event, and the sharded plane is bit-identical for any
// assignment. Only the window structure (and with it wall-clock) moves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "geo/latency.h"

namespace multipub::net {

enum class ShardPlacement : std::uint8_t {
  kRoundRobin,  ///< region r -> shard r % K (the PR 5 recipe)
  kTopology,    ///< single-linkage clustering over the backbone matrix
};

/// How the sharded plane sizes its conservative windows. Like placement,
/// the policy never changes observables.
enum class WindowPolicy : std::uint8_t {
  kFixed,     ///< every window is `lookahead` wide (the reference pacing)
  kAdaptive,  ///< per-shard ends from the busy-shard horizon (DESIGN.md §14)
};

/// Flag spelling <-> enum ("round-robin" | "topology"); nullopt on anything
/// else.
[[nodiscard]] std::optional<ShardPlacement> parse_shard_placement(
    std::string_view name);
[[nodiscard]] std::string shard_placement_name(ShardPlacement placement);

/// Flag spelling <-> enum ("fixed" | "adaptive"); nullopt on anything else.
[[nodiscard]] std::optional<WindowPolicy> parse_window_policy(
    std::string_view name);
[[nodiscard]] std::string window_policy_name(WindowPolicy policy);

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
