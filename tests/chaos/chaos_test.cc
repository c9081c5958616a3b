// Chaos harness: oracle unit tests (one positive + one negative per
// oracle), end-to-end campaigns (bit-reproducibility, healthy runs under
// faults, deliberately-broken invariants caught and shrunk to minimal
// schedules), and a bounded soak.
#include "sim/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/fault_schedule.h"
#include "sim/scenario.h"
#include "testutil.h"

namespace multipub::sim {
namespace {

bool has_oracle(const std::vector<OracleViolation>& violations,
                const std::string& oracle) {
  return std::any_of(
      violations.begin(), violations.end(),
      [&](const OracleViolation& v) { return v.oracle == oracle; });
}

/// A healthy observation every oracle accepts; tests flip one field each.
RoundObservation healthy_observation() {
  RoundObservation obs;
  obs.round = 5;
  obs.clean_streak = 3;
  obs.pending_events = 0;
  obs.sent = 100;
  obs.delivered = 90;
  obs.dropped = 12;
  obs.dropped_sender_down = 2;  // 100 == 90 + 12 - 2
  obs.ledger_total = 1.25;
  obs.topic_total = 1.25;
  obs.universe = geo::RegionSet::universe(4);
  obs.have_deployed = true;
  obs.deployed = {geo::RegionSet(0b0011), core::DeliveryMode::kDirect};
  return obs;
}

TEST(InvariantOracles, HealthyObservationPassesAll) {
  EXPECT_TRUE(check_invariants(healthy_observation()).empty());
}

TEST(InvariantOracles, CostConservation) {
  auto obs = healthy_observation();
  obs.topic_total = 1.25 + 1e-12;  // summation-order noise is fine
  EXPECT_FALSE(has_oracle(check_invariants(obs), "cost-conservation"));

  obs.topic_total = 1.30;  // a whole missing billing is not
  EXPECT_TRUE(has_oracle(check_invariants(obs), "cost-conservation"));
}

TEST(InvariantOracles, CounterConservation) {
  auto obs = healthy_observation();
  obs.pending_events = 3;
  EXPECT_TRUE(has_oracle(check_invariants(obs), "counter-conservation"));

  obs = healthy_observation();
  obs.delivered = 91;  // one message both delivered and dropped
  EXPECT_TRUE(has_oracle(check_invariants(obs), "counter-conservation"));
  obs.dropped = 13;
  obs.sent = 102;
  EXPECT_FALSE(has_oracle(check_invariants(obs), "counter-conservation"));
}

TEST(InvariantOracles, DeadRegionSilence) {
  auto obs = healthy_observation();
  obs.down_set = geo::RegionSet::single(RegionId{2});
  obs.deployed = {geo::RegionSet(0b0011), core::DeliveryMode::kDirect};
  obs.down_regions.push_back({RegionId{2}, 0, 0});
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.down_regions[0].broker_delta = 7;  // a dead broker forwarded traffic
  EXPECT_TRUE(has_oracle(check_invariants(obs), "dead-region-silence"));

  obs.down_regions[0].broker_delta = 0;
  obs.down_regions[0].egress_delta = 1024;  // a dead region billed egress
  EXPECT_TRUE(has_oracle(check_invariants(obs), "dead-region-silence"));
}

TEST(InvariantOracles, DeadRegionExclusion) {
  auto obs = healthy_observation();
  obs.down_set = geo::RegionSet::single(RegionId{3});
  EXPECT_FALSE(has_oracle(check_invariants(obs), "dead-region-exclusion"));

  obs.down_set = geo::RegionSet::single(RegionId{1});  // inside deployed
  EXPECT_TRUE(has_oracle(check_invariants(obs), "dead-region-exclusion"));

  // Everything down: the controller deliberately keeps the last candidate
  // set, so the oracle stands down.
  obs.down_set = geo::RegionSet::universe(4);
  EXPECT_FALSE(has_oracle(check_invariants(obs), "dead-region-exclusion"));
}

TEST(InvariantOracles, ControllerConvergence) {
  auto obs = healthy_observation();
  obs.check_convergence = true;
  obs.analytic = obs.deployed;
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.analytic = {geo::RegionSet(0b0100), core::DeliveryMode::kRouted};
  EXPECT_TRUE(has_oracle(check_invariants(obs), "controller-convergence"));
}

TEST(InvariantOracles, ConstraintConformance) {
  auto obs = healthy_observation();
  obs.check_conformance = true;
  obs.max_t = 150.0;
  obs.measured_percentile = 149.0;
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.measured_percentile = 151.0;
  EXPECT_TRUE(has_oracle(check_invariants(obs), "constraint-conformance"));
}

TEST(InvariantOracles, NoDuplicate) {
  auto obs = healthy_observation();
  obs.reliable = true;
  obs.recorded_duplicates = 0;
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.recorded_duplicates = 2;
  EXPECT_TRUE(has_oracle(check_invariants(obs), "no-duplicate"));

  // The oracle is armed by the reliable mode, not by the books alone.
  obs.reliable = false;
  EXPECT_FALSE(has_oracle(check_invariants(obs), "no-duplicate"));
}

TEST(InvariantOracles, ZeroMessageLoss) {
  auto obs = healthy_observation();
  obs.reliable = true;
  obs.check_zero_loss = true;
  obs.have_audience = true;
  obs.published = 100;
  obs.publish_drops = 3;  // never reached a broker
  obs.crash_lost = 2;     // died inside a crashed broker
  obs.min_unique = 95;    // exactly the repairable floor
  EXPECT_TRUE(check_invariants(obs).empty());

  // >= not ==: a subscriber may hold a crash-lost publication it received
  // before the crash.
  obs.min_unique = 97;
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.min_unique = 94;  // one repairable publication genuinely missing
  EXPECT_TRUE(has_oracle(check_invariants(obs), "zero-message-loss"));

  // Stands down off clean rounds and without a match-all audience.
  obs.check_zero_loss = false;
  EXPECT_TRUE(check_invariants(obs).empty());
  obs.check_zero_loss = true;
  obs.have_audience = false;
  EXPECT_TRUE(check_invariants(obs).empty());
}

TEST(InvariantOracles, BoundedReplicationLag) {
  auto obs = healthy_observation();
  obs.reliable = true;
  obs.check_replication = true;
  obs.replication.push_back({RegionId{0}, 7, 7});
  obs.replication.push_back({RegionId{2}, 0, 0});  // no mutations yet
  EXPECT_TRUE(check_invariants(obs).empty());

  obs.replication[0].applied_seq = 6;  // standby trails its primary
  EXPECT_TRUE(has_oracle(check_invariants(obs), "bounded-replication-lag"));

  obs.check_replication = false;  // only checked after a clean sync pass
  EXPECT_TRUE(check_invariants(obs).empty());
}

/// End-to-end campaigns over the failure-test workload: clients split
/// across two continents, a bound tight enough that outages force real
/// reconfigurations. Parameterized over the data-plane tuning — shard
/// count, shard placement and window policy (DESIGN.md §14) — every
/// campaign, including the negative-path ones with their shrunk repro
/// schedules, must behave identically whether the plane runs
/// single-threaded or sharded across workers under any tuning.
using ChaosDataPlaneTuning =
    std::tuple<std::uint32_t, net::ShardPlacement, net::WindowPolicy>;

class ChaosCampaignTest
    : public ::testing::TestWithParam<ChaosDataPlaneTuning> {
 protected:
  ChaosCampaignTest() : rng_(101) {
    WorkloadSpec workload;
    workload.interval_seconds = 5.0;
    workload.ratio = 95.0;
    workload.max_t = 150.0;
    scenario_ = make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}},
                              workload, rng_);
    options_.rounds = 10;
    options_.interval_seconds = 5.0;
    std::tie(options_.live.shards, options_.live.placement,
             options_.live.window_policy) = GetParam();
  }

  /// Outage + partition + drop + delay, faults clear by round 6 so the
  /// convergence oracles arm for the tail.
  FaultSchedule mixed_schedule() {
    return testutil::chaos_schedule(
        "fault outage ap-northeast-1 2 2\n"
        "fault partition us-east-1 ap-northeast-1 1 1\n"
        "fault delay region:* region:* 4 1 2.0 20\n"
        "fault drop ap-northeast-1 * 5 1 0.25\n");
  }

  Rng rng_;
  Scenario scenario_;
  ChaosOptions options_;
};

TEST_P(ChaosCampaignTest, HealthySystemSurvivesMixedFaults) {
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_GT(report.deliveries, 0u);
}

TEST_P(ChaosCampaignTest, SameSeedProducesBitIdenticalReports) {
  ChaosRunner runner(scenario_, options_);
  const ChaosReport a = runner.run(4242);
  const ChaosReport b = runner.run(4242);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a.schedule, b.schedule);

  const ChaosReport c = runner.run(4243);
  EXPECT_NE(a.render(), c.render());  // the seed actually matters
}

TEST_P(ChaosCampaignTest, GeneratedSchedulesAreValidAndRoundTrip) {
  Rng rng(9);
  const FaultSchedule schedule = generate_schedule(scenario_, options_, rng);
  EXPECT_EQ(schedule.size(),
            static_cast<std::size_t>(options_.fault_events));
  for (const auto& event : schedule) {
    EXPECT_GE(event.start_round, 0);
    // Clean tail: every fault clears k+1 rounds before the end.
    EXPECT_LE(event.start_round + event.rounds,
              options_.rounds - options_.convergence_rounds - 1);
  }
  std::string error;
  const auto reparsed =
      parse_fault_schedule(format_fault_schedule(schedule), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(schedule, *reparsed);
}

TEST_P(ChaosCampaignTest, BrokenOutageExclusionIsCaughtAndShrunk) {
  options_.break_outage_exclusion = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);

  ASSERT_FALSE(report.passed());
  EXPECT_EQ(report.minimal_oracle, "dead-region-exclusion");
  // The acceptance bar: a minimal schedule of at most 3 fault events (here
  // it should be exactly the outage).
  EXPECT_LE(report.minimal_schedule.size(), 3u);
  ASSERT_EQ(report.minimal_schedule.size(), 1u);
  EXPECT_EQ(report.minimal_schedule[0].kind, FaultEvent::Kind::kOutage);

  // The printed repro really is pasteable: round-trip it through the
  // testutil helper and it reproduces the violation from scratch.
  const FaultSchedule repro = testutil::chaos_schedule(
      format_fault_schedule(report.minimal_schedule));
  ChaosOptions probe_options = options_;
  probe_options.rounds = report.minimal_rounds;
  probe_options.shrink_on_failure = false;
  ChaosRunner probe(scenario_, probe_options);
  const ChaosReport confirmed = probe.run_schedule(repro, report.seed);
  ASSERT_FALSE(confirmed.passed());
  EXPECT_EQ(confirmed.violations.front().oracle, "dead-region-exclusion");
}

TEST_P(ChaosCampaignTest, FrozenControlPlaneFailsConvergence) {
  options_.freeze_control_plane = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule({}, 42);

  ASSERT_FALSE(report.passed());
  EXPECT_EQ(report.minimal_oracle, "controller-convergence");
  // The defect is fault-independent, so the shrinker ends at zero events.
  EXPECT_TRUE(report.minimal_schedule.empty());
}

TEST_P(ChaosCampaignTest, ReportRenderIsDeterministicAndComplete) {
  options_.break_outage_exclusion = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);
  const std::string text = report.render();
  EXPECT_NE(text.find("seed=42"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("minimal repro"), std::string::npos);
  EXPECT_NE(text.find("fault outage ap-northeast-1"), std::string::npos);
}

TEST_P(ChaosCampaignTest, BoundedSoakAcrossSeedsAndPaths) {
  // A small randomized campaign per (seed, control-plane path): generated
  // schedules, all oracles armed. Kept bounded — this is the tier-1 smoke;
  // the CI soak target runs longer campaigns.
  options_.rounds = 8;
  for (const bool incremental : {true, false}) {
    options_.live.incremental = incremental;
    ChaosRunner runner(scenario_, options_);
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      const ChaosReport report = runner.run(seed);
      EXPECT_TRUE(report.passed())
          << "incremental=" << incremental << "\n" << report.render();
    }
  }
}

std::string chaos_tuning_name(
    const ::testing::TestParamInfo<ChaosDataPlaneTuning>& info) {
  const auto [shards, placement, policy] = info.param;
  if (shards == 1) return "Shards1";
  std::string name = "Shards" + std::to_string(shards);
  name += placement == net::ShardPlacement::kRoundRobin ? "RoundRobin"
                                                        : "Topology";
  name += policy == net::WindowPolicy::kFixed ? "Fixed" : "Adaptive";
  return name;
}

// The single-threaded baseline once (tuning is irrelevant at K = 1), then
// the full {placement} x {policy} grid at K = 4.
INSTANTIATE_TEST_SUITE_P(
    DataPlaneShards, ChaosCampaignTest,
    ::testing::Values(
        std::make_tuple(1u, net::ShardPlacement::kTopology,
                        net::WindowPolicy::kAdaptive),
        std::make_tuple(4u, net::ShardPlacement::kRoundRobin,
                        net::WindowPolicy::kFixed),
        std::make_tuple(4u, net::ShardPlacement::kRoundRobin,
                        net::WindowPolicy::kAdaptive),
        std::make_tuple(4u, net::ShardPlacement::kTopology,
                        net::WindowPolicy::kFixed),
        std::make_tuple(4u, net::ShardPlacement::kTopology,
                        net::WindowPolicy::kAdaptive)),
    chaos_tuning_name);

/// Reliable-delivery campaigns (DESIGN.md §15): the same failure workload
/// with the sequenced-replay + Clone-replication layer armed, which also
/// arms the three reliability oracles. One positive campaign plus one
/// negative campaign per oracle, each negative hook shrunk to a minimal
/// pasteable schedule.
class ChaosReliableTest : public ::testing::Test {
 protected:
  ChaosReliableTest() : rng_(101) {
    WorkloadSpec workload;
    workload.interval_seconds = 5.0;
    workload.ratio = 95.0;
    workload.max_t = 150.0;
    scenario_ = make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}},
                              workload, rng_);
    options_.rounds = 10;
    options_.interval_seconds = 5.0;
    options_.live.reliable = true;
  }

  FaultSchedule mixed_schedule() {
    return testutil::chaos_schedule(
        "fault outage ap-northeast-1 2 2\n"
        "fault partition us-east-1 ap-northeast-1 1 1\n"
        "fault delay region:* region:* 4 1 2.0 20\n"
        "fault drop ap-northeast-1 * 5 1 0.25\n");
  }

  Rng rng_;
  Scenario scenario_;
  ChaosOptions options_;
};

TEST_F(ChaosReliableTest, AllNineOraclesHoldUnderMixedFaults) {
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_GT(report.deliveries, 0u);
}

TEST_F(ChaosReliableTest, CohortPlaneHoldsAllNineOraclesToo) {
  options_.live.cohorts = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);
  EXPECT_TRUE(report.passed()) << report.render();
}

TEST_F(ChaosReliableTest, ShardedReportsMatchOneShardOnBothPlanes) {
  // Arming the layer sends every broker's first state snapshot, so a
  // sharded reliable system shards before it arms — and then reports
  // exactly what the single-threaded plane reports.
  for (const bool cohorts : {false, true}) {
    options_.live.cohorts = cohorts;
    options_.live.shards = 1;
    const ChaosReport one =
        ChaosRunner(scenario_, options_).run_schedule(mixed_schedule(), 42);
    options_.live.shards = 4;
    const ChaosReport four =
        ChaosRunner(scenario_, options_).run_schedule(mixed_schedule(), 42);
    EXPECT_EQ(one.render(), four.render()) << "cohorts=" << cohorts;
  }
}

TEST_F(ChaosReliableTest, SameSeedIsBitReproducible) {
  ChaosRunner runner(scenario_, options_);
  const ChaosReport a = runner.run_schedule(mixed_schedule(), 42);
  const ChaosReport b = runner.run_schedule(mixed_schedule(), 42);
  EXPECT_EQ(a.render(), b.render());
}

TEST_F(ChaosReliableTest, BrokenReplayIsCaughtAndShrunkToZeroLossRepro) {
  // Brokers refusing to serve kReplayRequest leave every dropped delivery
  // unrepaired: the zero-message-loss oracle must fire on the first clean
  // round, and the shrinker must reduce the mixed schedule to a tiny
  // pasteable repro.
  options_.break_replay = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);

  ASSERT_FALSE(report.passed());
  EXPECT_EQ(report.minimal_oracle, "zero-message-loss");
  EXPECT_LE(report.minimal_schedule.size(), 2u);

  // The printed repro really is pasteable: round-trip it and it reproduces
  // the violation from scratch.
  const FaultSchedule repro = testutil::chaos_schedule(
      format_fault_schedule(report.minimal_schedule));
  ChaosOptions probe_options = options_;
  probe_options.rounds = report.minimal_rounds;
  probe_options.shrink_on_failure = false;
  ChaosRunner probe(scenario_, probe_options);
  const ChaosReport confirmed = probe.run_schedule(repro, report.seed);
  ASSERT_FALSE(confirmed.passed());
  EXPECT_EQ(confirmed.violations.front().oracle, "zero-message-loss");
}

TEST_F(ChaosReliableTest, BrokenDedupFailsWithNoFaultsAtAll) {
  // Handover overlap and post-reattach replay re-send publications even in
  // a fault-free campaign, so a disabled dedup filter leaks duplicates
  // immediately: the shrinker ends at the empty schedule.
  options_.break_dedup = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);

  ASSERT_FALSE(report.passed());
  EXPECT_EQ(report.minimal_oracle, "no-duplicate");
  EXPECT_TRUE(report.minimal_schedule.empty());
}

TEST_F(ChaosReliableTest, BrokenStateSyncFailsWithNoFaultsAtAll) {
  // Without the kStateDelta stream the standby trails its primary from the
  // very first table mutation — fault-independent, so the shrinker ends at
  // the empty schedule.
  options_.break_state_sync = true;
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(mixed_schedule(), 42);

  ASSERT_FALSE(report.passed());
  EXPECT_EQ(report.minimal_oracle, "bounded-replication-lag");
  EXPECT_TRUE(report.minimal_schedule.empty());
}

TEST_F(ChaosReliableTest, ReliableOffLeavesTheDefaultPlaneBitIdentical) {
  // The default-off contract: a reliable-capable binary with the flag off
  // renders byte-identically to the seed harness — reliable machinery must
  // not leak into the default plane.
  options_.live.reliable = false;
  ChaosRunner off(scenario_, options_);
  const ChaosReport a = off.run_schedule(mixed_schedule(), 42);
  ASSERT_TRUE(a.passed()) << a.render();

  // ...and the reliable books render only under the flag.
  options_.live.reliable = true;
  ChaosRunner on(scenario_, options_);
  const ChaosReport b = on.run_schedule(mixed_schedule(), 42);
  ASSERT_TRUE(b.passed()) << b.render();
  EXPECT_NE(a.render(), b.render());  // replay traffic is real and billed
}

/// Cohort-compressed campaigns (DESIGN.md §12): the failure workload with
/// every subscriber position replicated three-fold — real weight-3 cohorts,
/// not degenerate weight-1 ones — parameterized over the subscriber plane.
/// Every oracle must hold with weighted cohorts exactly as it does with
/// per-client endpoints.
class ChaosCohortTest : public ::testing::TestWithParam<bool> {
 protected:
  ChaosCohortTest() : rng_(303) {
    WorkloadSpec workload;
    workload.interval_seconds = 5.0;
    workload.ratio = 95.0;
    workload.max_t = 150.0;
    workload.subscriber_replication = 3;
    scenario_ = make_scenario({{RegionId{0}, 2, 2}, {RegionId{5}, 2, 2}},
                              workload, rng_);
    options_.rounds = 10;
    options_.interval_seconds = 5.0;
    options_.live.cohorts = GetParam();
  }

  Rng rng_;
  Scenario scenario_;
  ChaosOptions options_;
};

TEST_P(ChaosCohortTest, AllOraclesHoldUnderMixedFaults) {
  // Includes a probabilistic drop rule: the cohort plane replays it per
  // member (fault-split weight-1 copies), and all six oracles must hold.
  const FaultSchedule schedule = testutil::chaos_schedule(
      "fault outage ap-northeast-1 2 2\n"
      "fault partition us-east-1 ap-northeast-1 1 1\n"
      "fault delay region:* region:* 4 1 2.0 20\n"
      "fault drop ap-northeast-1 * 5 1 0.25\n");
  ChaosRunner runner(scenario_, options_);
  const ChaosReport report = runner.run_schedule(schedule, 42);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_GT(report.deliveries, 0u);
}

TEST_P(ChaosCohortTest, SameSeedIsBitReproducible) {
  ChaosRunner runner(scenario_, options_);
  const ChaosReport a = runner.run(777);
  const ChaosReport b = runner.run(777);
  EXPECT_TRUE(a.passed()) << a.render();
  EXPECT_EQ(a.render(), b.render());
}

INSTANTIATE_TEST_SUITE_P(SubscriberPlane, ChaosCohortTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cohorts" : "PerClient";
                         });

TEST(ChaosCohortEquivalence, DropFreeReportsAreByteIdenticalAcrossPlanes) {
  // For schedules free of probabilistic drop rules (outages, partitions and
  // delays never match client-bound links) the FULL rendered report must be
  // byte-identical between the per-client and cohort planes, for every
  // seed. Drop rules are excluded by design: a partially dropped
  // kConfigUpdate re-homes the whole flock (see ChaosOptions::live).
  Rng rng(303);
  WorkloadSpec workload;
  workload.interval_seconds = 5.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  workload.subscriber_replication = 3;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 2}, {RegionId{5}, 2, 2}}, workload, rng);
  const FaultSchedule schedule = testutil::chaos_schedule(
      "fault outage ap-northeast-1 2 2\n"
      "fault partition us-east-1 ap-northeast-1 1 1\n"
      "fault delay region:* region:* 4 1 2.0 20\n");

  ChaosOptions options;
  options.rounds = 10;
  options.interval_seconds = 5.0;
  for (const std::uint64_t seed : {42u, 1234u}) {
    options.live.cohorts = false;
    const ChaosReport per_client =
        ChaosRunner(scenario, options).run_schedule(schedule, seed);
    options.live.cohorts = true;
    const ChaosReport cohorts =
        ChaosRunner(scenario, options).run_schedule(schedule, seed);
    ASSERT_TRUE(per_client.passed()) << per_client.render();
    EXPECT_EQ(per_client.render(), cohorts.render()) << "seed " << seed;

    // ...and sharding the cohort plane changes nothing either.
    options.live.shards = 4;
    const ChaosReport sharded =
        ChaosRunner(scenario, options).run_schedule(schedule, seed);
    EXPECT_EQ(per_client.render(), sharded.render()) << "seed " << seed;
    options.live.shards = 1;
  }
}

TEST(ChaosShardEquivalence, ReportRenderIsByteIdenticalAcrossShardCounts) {
  // The strongest cross-K statement the harness can make: the FULL rendered
  // report — per-round observations, counters, costs, violations, schedule —
  // is byte-identical whether the plane ran on one shard or four. A report
  // that mentioned its shard count would rightly fail here.
  Rng rng(101);
  WorkloadSpec workload;
  workload.interval_seconds = 5.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}}, workload, rng);

  ChaosOptions options;
  options.rounds = 10;
  options.interval_seconds = 5.0;
  const FaultSchedule schedule = testutil::chaos_schedule(
      "fault outage ap-northeast-1 2 2\n"
      "fault partition us-east-1 ap-northeast-1 1 1\n"
      "fault delay region:* region:* 4 1 2.0 20\n"
      "fault drop ap-northeast-1 * 5 1 0.25\n");

  options.live.shards = 1;
  const ChaosReport one = ChaosRunner(scenario, options).run_schedule(
      schedule, 42);
  ASSERT_TRUE(one.passed()) << one.render();
  // ...under every (placement, window-policy) tuning of the sharded plane.
  options.live.shards = 4;
  for (const auto placement : {net::ShardPlacement::kRoundRobin,
                               net::ShardPlacement::kTopology}) {
    for (const auto policy :
         {net::WindowPolicy::kFixed, net::WindowPolicy::kAdaptive}) {
      options.live.placement = placement;
      options.live.window_policy = policy;
      const ChaosReport four = ChaosRunner(scenario, options).run_schedule(
          schedule, 42);
      EXPECT_EQ(one.render(), four.render())
          << net::shard_placement_name(placement) << " / "
          << net::window_policy_name(policy);
      EXPECT_EQ(one.deliveries, four.deliveries);
    }
  }
}

}  // namespace
}  // namespace multipub::sim
