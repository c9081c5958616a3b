// Golden digests of the live data plane. A randomized 12-round script —
// rate shifts, jittered latencies, churn, reconfigurations and a region
// outage with recovery — folds every observable into a per-round digest
// chain (tests/integration/live_digest.h), which must equal the constant
// the seed's std::function-per-hop data plane produced. Parameterized over
// the control-plane pipeline (incremental vs full-scan).
//
// A second sweep proves the sharded parallel plane (DESIGN.md §11): the
// same script over shard counts {1, 2, 4, 8}, every observable compared
// against the single-threaded plane — the shard count must never be
// observable. That sweep is parameterized over the control-plane pipeline
// too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "live_digest.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "sim/scenario.h"

namespace multipub::sim {
namespace {

/// Runs the 12-round script on one system and returns its digest chain.
std::vector<std::uint64_t> data_plane_chain(bool incremental) {
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  LiveSystem sys(scenario, {.incremental = incremental});
  // Jitter exercises the per-hop RNG draw order.
  sys.transport().enable_jitter({0.05, 1.5}, 99);
  sys.deploy({geo::RegionSet::universe(10), core::DeliveryMode::kRouted});

  // The per-round rates are randomized through a side stream.
  Rng traffic(555);
  Rng rng_rounds(556);
  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  testutil::Digest digest;
  std::vector<std::uint64_t> chain;
  for (int round = 0; round < 12; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    const LiveRunResult run = sys.run_interval(10.0, 1024, rate_hz, traffic);
    if (round == 3) {
      // Churn: the last subscriber leaves...
      sys.subscribers().back()->unsubscribe(topic);
      sys.simulator().run();
    }
    if (round == 9) {
      // ...and rejoins, attaching to whatever is deployed right now.
      const auto* config = sys.controller().deployed_config(topic);
      EXPECT_NE(config, nullptr);
      if (config == nullptr) return chain;
      sys.subscribers().back()->subscribe(topic, *config);
      sys.simulator().run();
    }
    if (round == 4) {
      // Outage of a currently serving region.
      const auto* config = sys.controller().deployed_config(topic);
      EXPECT_NE(config, nullptr);
      if (config == nullptr) return chain;
      failed = config->regions.first();
      sys.transport().set_region_down(failed, true);
      sys.controller().set_region_available(failed, false);
    }
    if (round == 7) {
      sys.transport().set_region_down(failed, false);
      sys.controller().set_region_available(failed, true);
    }
    // Reconfigurations ride along: the control plane feeds off the data
    // plane's observed traffic, so the matrix checks the statistics too.
    (void)sys.control_round();
    testutil::fold_live_round(digest, sys, run);
    chain.push_back(digest.value());
  }
  // The script actually exercised the outage branch.
  EXPECT_NE(failed.value(), -1);
  return chain;
}

class DataPlaneDiff : public ::testing::TestWithParam<bool> {};

TEST_P(DataPlaneDiff, FastPathIsBitIdenticalToSeedPathAcrossLiveRounds) {
  const bool incremental = GetParam();
  // Produced by the seed data plane (std::function per hop). Both control
  // pipelines deploy the same matrices every round, so they share it.
  const std::uint64_t golden = 0x2dca81fb8dc0b56dULL;
  const std::vector<std::uint64_t> chain = data_plane_chain(incremental);
  ASSERT_EQ(chain.size(), 12u);
  EXPECT_EQ(chain.back(), golden) << testutil::render_chain(chain);
}

std::string pipeline_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Incremental" : "FullScan";
}

INSTANTIATE_TEST_SUITE_P(ControlPlane, DataPlaneDiff, ::testing::Bool(),
                         pipeline_name);

class ShardedPlaneDiff : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedPlaneDiff, BitIdenticalForEveryShardCount) {
  const bool incremental = GetParam();
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  // The reference runs on default options; the candidates sweep the shard
  // counts, including the trivial K = 1 (the same plane, built again).
  const std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  auto reference = std::make_unique<LiveSystem>(
      scenario, LiveOptions{.incremental = incremental});
  std::vector<std::unique_ptr<LiveSystem>> candidates;
  std::vector<LiveSystem*> systems{reference.get()};
  for (std::uint32_t shards : shard_counts) {
    candidates.push_back(std::make_unique<LiveSystem>(
        scenario, LiveOptions{.incremental = incremental, .shards = shards}));
    ASSERT_EQ(candidates.back()->options().shards, shards);
    systems.push_back(candidates.back().get());
  }

  const net::SimTransport::JitterSpec jitter{0.05, 1.5};
  for (LiveSystem* sys : systems) {
    sys->transport().enable_jitter(jitter, 99);
  }

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  for (LiveSystem* sys : systems) sys->deploy(bootstrap);

  // Identical traffic: one generator per system, all seeded alike; the
  // per-round rates come from a shared side stream.
  std::vector<Rng> traffic;
  for (std::size_t i = 0; i < systems.size(); ++i) traffic.emplace_back(555);
  Rng rng_rounds(556);

  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  for (int round = 0; round < 12; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    std::vector<LiveRunResult> runs;
    for (std::size_t i = 0; i < systems.size(); ++i) {
      runs.push_back(systems[i]->run_interval(10.0, 1024, rate_hz,
                                              traffic[i]));
    }
    for (std::size_t i = 1; i < systems.size(); ++i) {
      ASSERT_EQ(runs[i].delivery_times, runs[0].delivery_times)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(runs[i].interval_cost, runs[0].interval_cost)
          << "round " << round << " shards " << shard_counts[i - 1];
    }

    if (round == 3) {
      for (LiveSystem* sys : systems) {
        sys->subscribers().back()->unsubscribe(topic);
        sys->simulator().run();
      }
    }
    if (round == 9) {
      const auto* config = reference->controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      for (LiveSystem* sys : systems) {
        sys->subscribers().back()->subscribe(topic, *config);
        sys->simulator().run();
      }
    }
    if (round == 4) {
      const auto* config = reference->controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      failed = config->regions.first();
      for (LiveSystem* sys : systems) {
        sys->transport().set_region_down(failed, true);
        sys->controller().set_region_available(failed, false);
      }
    }
    if (round == 7) {
      for (LiveSystem* sys : systems) {
        sys->transport().set_region_down(failed, false);
        sys->controller().set_region_available(failed, true);
      }
    }

    for (LiveSystem* sys : systems) (void)sys->control_round();
    const std::string matrix =
        reference->controller().render_assignment_matrix();
    const std::string snapshot = collect_metrics(*reference).render();
    for (std::size_t i = 1; i < systems.size(); ++i) {
      LiveSystem& sys = *systems[i];
      ASSERT_EQ(sys.controller().render_assignment_matrix(), matrix)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().ledger().inter_region_bytes,
                reference->transport().ledger().inter_region_bytes)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().ledger().internet_bytes,
                reference->transport().ledger().internet_bytes)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().sent_count(),
                reference->transport().sent_count())
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().topic_cost(topic),
                reference->transport().topic_cost(topic))
          << "round " << round << " shards " << shard_counts[i - 1];
      // The full rendered snapshot covers broker counters, client books and
      // the controller state in one sweep.
      ASSERT_EQ(collect_metrics(sys).render(), snapshot)
          << "round " << round << " shards " << shard_counts[i - 1];
    }
  }
  ASSERT_NE(failed.value(), -1);
}

INSTANTIATE_TEST_SUITE_P(ControlPlane, ShardedPlaneDiff, ::testing::Bool(),
                         pipeline_name);

}  // namespace
}  // namespace multipub::sim
