// Region-to-shard placement (DESIGN.md §14): the topology strategy must be
// a pure function of the latency matrix, beat round-robin on the metric it
// optimizes (minimum cross-shard latency) for the EC2-2016 backbone, and
// degrade gracefully on degenerate matrices. Cohort flocks must land on
// their home region's shard under every placement.
#include "net/shard_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/address.h"
#include "sim/live_runner.h"
#include "sim/scenario.h"

namespace multipub::net {
namespace {

/// All off-diagonal entries set to `value`.
geo::InterRegionLatency uniform_matrix(std::size_t n, Millis value) {
  geo::InterRegionLatency m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      m.set(RegionId{static_cast<int>(a)}, RegionId{static_cast<int>(b)},
            value);
    }
  }
  return m;
}

/// Shard sizes under an assignment; every shard must be non-empty.
std::vector<std::size_t> shard_sizes(const std::vector<std::uint32_t>& assign,
                                     std::uint32_t shards) {
  std::vector<std::size_t> sizes(shards, 0);
  for (const std::uint32_t s : assign) {
    EXPECT_LT(s, shards);
    ++sizes[s];
  }
  return sizes;
}

TEST(ShardPlacementFlag, ParsesAndNamesRoundTrip) {
  EXPECT_EQ(parse_shard_placement("round-robin"), ShardPlacement::kRoundRobin);
  EXPECT_EQ(parse_shard_placement("topology"), ShardPlacement::kTopology);
  EXPECT_FALSE(parse_shard_placement("roundrobin").has_value());
  EXPECT_FALSE(parse_shard_placement("").has_value());
  for (const auto placement :
       {ShardPlacement::kRoundRobin, ShardPlacement::kTopology}) {
    EXPECT_EQ(parse_shard_placement(shard_placement_name(placement)),
              placement);
  }
}

TEST(WindowPolicyFlag, ParsesAndNamesRoundTrip) {
  EXPECT_EQ(parse_window_policy("fixed"), WindowPolicy::kFixed);
  EXPECT_EQ(parse_window_policy("adaptive"), WindowPolicy::kAdaptive);
  EXPECT_FALSE(parse_window_policy("Fixed").has_value());
  EXPECT_FALSE(parse_window_policy("").has_value());
  for (const auto policy : {WindowPolicy::kFixed, WindowPolicy::kAdaptive}) {
    EXPECT_EQ(parse_window_policy(window_policy_name(policy)), policy);
  }
}

TEST(ShardPlacement, RoundRobinIsRegionModuloShards) {
  const auto backbone = geo::InterRegionLatency::ec2_2016();
  const auto assign =
      partition_regions(ShardPlacement::kRoundRobin, backbone, 4);
  ASSERT_EQ(assign.size(), backbone.size());
  for (std::size_t r = 0; r < assign.size(); ++r) {
    EXPECT_EQ(assign[r], r % 4);
  }
}

TEST(ShardPlacement, TopologyIsDeterministicAndFillsEveryShard) {
  const auto backbone = geo::InterRegionLatency::ec2_2016();
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto a = partition_regions(ShardPlacement::kTopology, backbone,
                                     shards);
    const auto b = partition_regions(ShardPlacement::kTopology, backbone,
                                     shards);
    EXPECT_EQ(a, b) << "shards " << shards;  // pure function of the matrix
    ASSERT_EQ(a.size(), backbone.size());
    // Labels are assigned by first appearance in region-id order, so region
    // 0 always gets label 0, and every shard is non-empty.
    EXPECT_EQ(a[0], 0u);
    for (const std::size_t size : shard_sizes(a, shards)) {
      EXPECT_GT(size, 0u) << "shards " << shards;
    }
  }
}

TEST(ShardPlacement, TopologyBeatsRoundRobinOnEc2Backbone) {
  // The whole point of the strategy: for the same K it must leave at least
  // as wide a minimum cross-shard latency as round-robin — that minimum is
  // the fixed window stride and the floor of every adaptive window.
  const auto backbone = geo::InterRegionLatency::ec2_2016();
  bool strictly_better_somewhere = false;
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const auto rr =
        partition_regions(ShardPlacement::kRoundRobin, backbone, shards);
    const auto topo =
        partition_regions(ShardPlacement::kTopology, backbone, shards);
    const Millis rr_min = min_cross_shard_region_latency(backbone, rr);
    const Millis topo_min = min_cross_shard_region_latency(backbone, topo);
    EXPECT_GE(topo_min, rr_min) << "shards " << shards;
    strictly_better_somewhere =
        strictly_better_somewhere || topo_min > rr_min;
  }
  // Round-robin scatters neighbours by construction; clustering must win
  // outright for at least one K on a real matrix.
  EXPECT_TRUE(strictly_better_somewhere);
}

TEST(ShardPlacement, UniformMatrixStillYieldsAValidPartition) {
  // With all links equal the clustering objective is flat: any K-partition
  // is optimal. The tie order (latency, a, b) must still produce a
  // deterministic, full partition with the uniform min everywhere.
  const auto backbone = uniform_matrix(6, 25.0);
  for (const std::uint32_t shards : {2u, 3u}) {
    const auto assign =
        partition_regions(ShardPlacement::kTopology, backbone, shards);
    for (const std::size_t size : shard_sizes(assign, shards)) {
      EXPECT_GT(size, 0u);
    }
    EXPECT_EQ(min_cross_shard_region_latency(backbone, assign), 25.0);
  }
}

TEST(ShardPlacement, SingleRegionAndSingleShardDegenerate) {
  const auto one_region = uniform_matrix(1, 0.0);
  for (const auto placement :
       {ShardPlacement::kRoundRobin, ShardPlacement::kTopology}) {
    EXPECT_EQ(partition_regions(placement, one_region, 1),
              std::vector<std::uint32_t>{0});
  }
  // K = 1 separates nothing: the min cross-shard latency is unreachable
  // (the sharded plane never runs with one shard, but the metric must not
  // lie about it).
  const auto backbone = geo::InterRegionLatency::ec2_2016();
  const auto all_one =
      partition_regions(ShardPlacement::kTopology, backbone, 1);
  EXPECT_TRUE(std::all_of(all_one.begin(), all_one.end(),
                          [](std::uint32_t s) { return s == 0; }));
  EXPECT_EQ(min_cross_shard_region_latency(backbone, all_one), kUnreachable);
}

TEST(ShardPlacement, CohortFlocksLandOnTheirHomeRegionsShard) {
  // The cohort plane co-shards each flock with its home region (its events
  // are that region's egress), whatever the placement strategy chose for
  // the region. Checked through the live system because the assignment is
  // assembled there, not in the partitioner.
  Rng rng(2026);
  sim::WorkloadSpec workload;
  workload.interval_seconds = 5.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  workload.subscriber_replication = 3;  // real weight-3 flocks
  const sim::Scenario scenario = sim::make_scenario(
      {{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);
  for (const auto placement :
       {ShardPlacement::kRoundRobin, ShardPlacement::kTopology}) {
    sim::LiveSystem live(
        scenario, {.shards = 4, .placement = placement, .cohorts = true});
    const auto* pool = live.cohort_pool();
    ASSERT_NE(pool, nullptr);
    ASSERT_GT(pool->flock_count(), 0u);
    for (std::size_t f = 0; f < pool->flock_count(); ++f) {
      const auto flock = static_cast<std::int32_t>(f);
      EXPECT_EQ(live.simulator().owner_shard(Address::cohort(flock)),
                live.simulator().owner_shard(
                    Address::region(pool->flock_home(flock))))
          << shard_placement_name(placement) << " flock " << f;
    }
  }
}

}  // namespace
}  // namespace multipub::net
