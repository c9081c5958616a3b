#include "core/heuristic.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/king_synth.h"
#include "geo/synthetic.h"
#include "sim/scenario.h"
#include "testutil.h"

namespace multipub::core {
namespace {

using testutil::TinyWorld;

class HeuristicTinyTest : public ::testing::Test {
 protected:
  TinyWorld world_;
  Optimizer exact_{world_.catalog, world_.backbone, world_.clients};
  HeuristicOptimizer heuristic_{world_.catalog, world_.backbone,
                                world_.clients};
};

TEST_F(HeuristicTinyTest, MatchesExactOnUnconstrainedTopic) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, kUnreachable);
  const auto exact = exact_.optimize(topic);
  const auto approx = heuristic_.optimize(topic);
  EXPECT_EQ(approx.config, exact.config);
  EXPECT_DOUBLE_EQ(approx.cost, exact.cost);
  EXPECT_TRUE(approx.constraint_met);
}

TEST_F(HeuristicTinyTest, MatchesExactOnTightConstraint) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, 110.0);
  const auto exact = exact_.optimize(topic);
  const auto approx = heuristic_.optimize(topic);
  EXPECT_TRUE(approx.constraint_met);
  EXPECT_LE(approx.percentile, 110.0);
  // Greedy may land on a different (but no more than marginally pricier)
  // configuration; in TinyWorld it is exact.
  EXPECT_EQ(approx.config, exact.config);
}

TEST_F(HeuristicTinyTest, InfeasibleFallsBackToLatencyMinimizing) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, 1.0);
  const auto approx = heuristic_.optimize(topic);
  EXPECT_FALSE(approx.constraint_met);
  // The greedy floor is within a small factor of the global floor.
  const auto exact = exact_.optimize(topic);
  EXPECT_LE(approx.percentile, exact.percentile * 1.25);
}

TEST_F(HeuristicTinyTest, EvaluatesFarFewerConfigsThanBruteForce) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, 110.0);
  const auto exact = exact_.optimize(topic);
  const auto approx = heuristic_.optimize(topic);
  EXPECT_LT(approx.configs_evaluated, exact.configs_evaluated * 3);
  // (On 3 regions the saving is tiny; the EC2 tests below show the gap.)
}

TEST_F(HeuristicTinyTest, RespectsModePolicy) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, 105.0);
  HeuristicOptions direct_only;
  direct_only.mode_policy = ModePolicy::kDirectOnly;
  const auto approx = heuristic_.optimize(topic, direct_only);
  EXPECT_EQ(approx.config.mode, DeliveryMode::kDirect);
}

TEST_F(HeuristicTinyTest, CandidateMaskRestrictsTheSearch) {
  const auto topic = testutil::tiny_topic(10, 1000, 75.0, kUnreachable);
  HeuristicOptions masked;
  masked.candidates = geo::RegionSet::single(TinyWorld::kB);
  const auto result = heuristic_.optimize(topic, masked);
  EXPECT_EQ(result.config.regions, geo::RegionSet::single(TinyWorld::kB));
}

// Quality sweep on the EC2 world across experiment workloads and bounds:
// the heuristic's cost must stay within 10 % of brute force whenever both
// meet the constraint.
class HeuristicQuality : public ::testing::TestWithParam<double> {};

TEST_P(HeuristicQuality, CloseToExactOnEc2World) {
  Rng rng(61);
  const sim::Scenario scenario = sim::make_experiment1_scenario(rng);
  auto topic = scenario.topic;
  topic.constraint.max = GetParam();

  const Optimizer exact(scenario.catalog, scenario.backbone,
                        scenario.population.latencies);
  const HeuristicOptimizer heuristic(scenario.catalog, scenario.backbone,
                                     scenario.population.latencies);
  const auto e = exact.optimize(topic);
  const auto h = heuristic.optimize(topic);

  EXPECT_EQ(h.constraint_met, e.constraint_met) << "max_t=" << GetParam();
  if (e.constraint_met) {
    EXPECT_LE(h.cost, e.cost * 1.10) << "max_t=" << GetParam();
  }
  EXPECT_LT(h.configs_evaluated, 1500u);  // vs 2036 brute force at N=10;
                                          // the gap widens exponentially
}

INSTANTIATE_TEST_SUITE_P(Bounds, HeuristicQuality,
                         ::testing::Values(150.0, 160.0, 175.0, 200.0, 250.0,
                                           400.0));

TEST(HeuristicScale, HandlesTwentyRegionWorlds) {
  // Brute force at 20 regions would need ~2 million evaluations; the
  // heuristic stays in the hundreds.
  Rng rng(62);
  const auto world = geo::synthesize_world(20, {}, rng);
  auto population = geo::synthesize_population(world.catalog, world.backbone,
                                               5, {}, rng);

  TopicState topic;
  topic.topic = TopicId{0};
  topic.constraint = {90.0, 120.0};
  std::vector<ClientId> pubs, subs;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const ClientId id{static_cast<ClientId::underlying_type>(i)};
    (i % 2 == 0 ? pubs : subs).push_back(id);
  }
  topic.publishers = uniform_publishers(pubs, 10, 1024);
  topic.subscribers = unit_subscribers(subs);

  const HeuristicOptimizer heuristic(world.catalog, world.backbone,
                                     population.latencies);
  const auto result = heuristic.optimize(topic);
  EXPECT_FALSE(result.config.regions.empty());
  EXPECT_LT(result.configs_evaluated, 5000u);
  if (result.constraint_met) {
    EXPECT_LE(result.percentile, 120.0);
  }
}

}  // namespace
}  // namespace multipub::core
