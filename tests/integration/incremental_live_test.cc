// Live differential run: two identical systems driven by identical traffic,
// one on the incremental control-plane pipeline (delta reports + dirty-topic
// reconfiguration), one on the full-snapshot reference path. Across a
// multi-round scenario with traffic shifts, a subscriber leaving and
// rejoining, and a region outage with recovery, the deployed assignment
// matrices must stay bit-identical every round.
#include <gtest/gtest.h>

#include "sim/live_runner.h"
#include "sim/scenario.h"

namespace multipub::sim {
namespace {

TEST(IncrementalLive, MatrixMatchesFullPipelineAcrossTenRounds) {
  Rng rng(171);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  LiveSystem incremental(scenario);
  LiveSystem full(scenario, {.incremental = false});
  ASSERT_TRUE(incremental.options().incremental);
  ASSERT_FALSE(full.options().incremental);

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  incremental.deploy(bootstrap);
  full.deploy(bootstrap);

  // Identical traffic: independent generators with the same seed.
  Rng rng_inc(777);
  Rng rng_full(777);

  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  for (int round = 0; round < 12; ++round) {
    // Traffic shifts: the publication rate steps up mid-run.
    const double rate_hz = round >= 6 ? 2.0 : 1.0;
    (void)incremental.run_interval(10.0, 1024, rate_hz, rng_inc);
    (void)full.run_interval(10.0, 1024, rate_hz, rng_full);

    if (round == 3) {
      // The last subscriber leaves both systems.
      incremental.subscribers().back()->unsubscribe(topic);
      full.subscribers().back()->unsubscribe(topic);
      incremental.simulator().run();
      full.simulator().run();
    }
    if (round == 9) {
      // ...and rejoins, attaching to whatever is deployed right now.
      const auto* config = incremental.controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      incremental.subscribers().back()->subscribe(topic, *config);
      full.subscribers().back()->subscribe(topic, *config);
      incremental.simulator().run();
      full.simulator().run();
    }
    if (round == 4) {
      // Outage of a currently serving region, on both systems.
      const auto* config = incremental.controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      failed = config->regions.first();
      for (LiveSystem* sys : {&incremental, &full}) {
        sys->transport().set_region_down(failed, true);
        sys->controller().set_region_available(failed, false);
      }
    }
    if (round == 7) {
      for (LiveSystem* sys : {&incremental, &full}) {
        sys->transport().set_region_down(failed, false);
        sys->controller().set_region_available(failed, true);
      }
    }

    const auto inc_decisions = incremental.control_round();
    const auto full_decisions = full.control_round();

    ASSERT_EQ(incremental.controller().render_assignment_matrix(),
              full.controller().render_assignment_matrix())
        << "round " << round;
    ASSERT_EQ(inc_decisions.size(), full_decisions.size()) << "round " << round;
    for (std::size_t d = 0; d < inc_decisions.size(); ++d) {
      EXPECT_EQ(inc_decisions[d].result.config, full_decisions[d].result.config)
          << "round " << round;
    }

    // The stats tell the two pipelines apart even when the outcome agrees.
    EXPECT_FALSE(incremental.controller().last_round_stats().full_scan);
    EXPECT_TRUE(full.controller().last_round_stats().full_scan);
    const auto& stats = incremental.controller().last_round_stats();
    EXPECT_EQ(stats.evaluated + stats.skipped_clean + stats.skipped_empty,
              stats.tracked)
        << "round " << round;
  }

  // During the outage the failed region must have disappeared from both.
  ASSERT_NE(failed.value(), -1);
}

}  // namespace
}  // namespace multipub::sim
