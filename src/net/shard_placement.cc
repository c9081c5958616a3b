#include "net/shard_placement.h"

#include <algorithm>
#include <numeric>

#include "common/assert.h"

namespace multipub::net {

std::optional<ShardPlacement> parse_shard_placement(std::string_view name) {
  if (name == "round-robin") return ShardPlacement::kRoundRobin;
  if (name == "topology") return ShardPlacement::kTopology;
  return std::nullopt;
}

std::string shard_placement_name(ShardPlacement placement) {
  return placement == ShardPlacement::kRoundRobin ? "round-robin" : "topology";
}

std::optional<WindowPolicy> parse_window_policy(std::string_view name) {
  if (name == "fixed") return WindowPolicy::kFixed;
  if (name == "adaptive") return WindowPolicy::kAdaptive;
  return std::nullopt;
}

std::string window_policy_name(WindowPolicy policy) {
  return policy == WindowPolicy::kFixed ? "fixed" : "adaptive";
}

namespace {

struct Edge {
  Millis weight;
  std::uint32_t a;
  std::uint32_t b;
};

/// Union-find with path halving; union by the smaller root id so the
/// representative is always the smallest region id of its component (which
/// makes the first-appearance labeling below trivial to reason about).
class Components {
 public:
  explicit Components(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true when the roots differed (a merge happened).
  bool unite(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t ra = find(a);
    const std::uint32_t rb = find(b);
    if (ra == rb) return false;
    if (ra < rb) {
      parent_[rb] = ra;
    } else {
      parent_[ra] = rb;
    }
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

std::vector<std::uint32_t> partition_regions(
    ShardPlacement placement, const geo::InterRegionLatency& backbone,
    std::uint32_t shards) {
  const std::size_t n = backbone.size();
  MP_EXPECTS(shards >= 1 && shards <= n);
  std::vector<std::uint32_t> assignment(n);
  if (placement == ShardPlacement::kRoundRobin) {
    for (std::size_t r = 0; r < n; ++r) {
      assignment[r] = static_cast<std::uint32_t>(r) % shards;
    }
    return assignment;
  }

  // Single-linkage clustering as Kruskal's MST stopped at `shards`
  // components: repeatedly merge the two closest components. The symmetric
  // pair distance covers asymmetric matrices (both directions cross a shard
  // boundary, so the tighter one is the binding constraint).
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::uint32_t a = 0; a + 1 < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const Millis ab = backbone.at(RegionId{static_cast<std::int32_t>(a)},
                                    RegionId{static_cast<std::int32_t>(b)});
      const Millis ba = backbone.at(RegionId{static_cast<std::int32_t>(b)},
                                    RegionId{static_cast<std::int32_t>(a)});
      edges.push_back(Edge{std::min(ab, ba), a, b});
    }
  }
  // Total order including the endpoints: equal-latency edges (uniform or
  // highly symmetric matrices) merge in (a, b) order, so the partition is a
  // deterministic function of the matrix alone.
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) return x.weight < y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });

  Components components(n);
  std::size_t merges = 0;
  const std::size_t wanted = n - shards;  // merges until K components remain
  for (const Edge& edge : edges) {
    if (merges == wanted) break;
    if (components.unite(edge.a, edge.b)) ++merges;
  }
  // kUnreachable entries can leave the graph disconnected with more than
  // `shards` natural components; the leftover singletons simply stay their
  // own shards via the labeling below, which still yields <= n labels but
  // may exceed `shards` — forbid that instead of silently producing more
  // shards than asked for.
  MP_EXPECTS(merges == wanted && "backbone matrix has too few finite links");

  // First-appearance labeling: scanning regions in id order, a component
  // gets the next free shard id the first time any of its members appears.
  // Region 0 therefore always lands on shard 0.
  std::vector<std::uint32_t> label(n, UINT32_MAX);
  std::uint32_t next = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::uint32_t root = components.find(r);
    if (label[root] == UINT32_MAX) label[root] = next++;
    assignment[r] = label[root];
  }
  MP_EXPECTS(next == shards);
  return assignment;
}

Millis min_cross_shard_region_latency(
    const geo::InterRegionLatency& backbone,
    const std::vector<std::uint32_t>& region_shard) {
  const std::size_t n = backbone.size();
  MP_EXPECTS(region_shard.size() >= n);
  Millis best = kUnreachable;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || region_shard[a] == region_shard[b]) continue;
      best = std::min(best,
                      backbone.at(RegionId{static_cast<std::int32_t>(a)},
                                  RegionId{static_cast<std::int32_t>(b)}));
    }
  }
  return best;
}

}  // namespace multipub::net
