// Live differential run for the cohort-compressed client plane
// (DESIGN.md §12): identical systems driven by identical traffic, the
// reference on per-client Subscriber endpoints, the candidates on weighted
// cohorts — single-threaded and sharded (K = 4). The workload replicates
// every subscriber position five-fold, so cohorts genuinely compress
// (weight-5 flocks) instead of degenerating to weight 1. Across rounds with
// rate shifts, member churn (leave + rejoin), an outage with recovery and
// live reconfigurations, every observable — per-member delivery times,
// interval costs, the CostLedger, broker counters, weighted client books,
// and the full rendered metrics snapshot — must stay bit-identical.
//
// Parameterized over the control-plane pipeline (incremental vs full-scan)
// so the weighted plane is proven under both reconfiguration paths.
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

class CohortDiff : public ::testing::TestWithParam<bool> {};

TEST_P(CohortDiff, CohortPlaneIsBitIdenticalToPerClientPlane) {
  const bool incremental = GetParam();
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  workload.subscriber_replication = 5;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}}, workload, rng);
  ASSERT_EQ(scenario.topic.subscribers.size(), 30u);

  // Reference: per-client subscribers on the fast path. Candidates: the
  // cohort plane, single-threaded and on four shards.
  auto reference = std::make_unique<LiveSystem>(
      scenario, LiveOptions{.incremental = incremental});
  const std::vector<std::uint32_t> shard_counts{1, 4};
  std::vector<std::unique_ptr<LiveSystem>> candidates;
  std::vector<LiveSystem*> systems{reference.get()};
  for (std::uint32_t shards : shard_counts) {
    candidates.push_back(std::make_unique<LiveSystem>(
        scenario, LiveOptions{.incremental = incremental,
                              .shards = shards,
                              .cohorts = true}));
    ASSERT_NE(candidates.back()->cohort_pool(), nullptr);
    systems.push_back(candidates.back().get());
  }

  // Five-fold replication at six positions: six weight-5 cohorts.
  for (auto& candidate : candidates) {
    ASSERT_EQ(candidate->cohort_pool()->cohort_count(), 6u);
    ASSERT_EQ(candidate->cohort_pool()->flock_count(), 6u);
    for (std::int32_t c = 0; c < 6; ++c) {
      ASSERT_EQ(candidate->cohort_pool()->cohort_weight(c), 5u);
    }
  }

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  for (LiveSystem* sys : systems) sys->deploy(bootstrap);

  std::vector<Rng> traffic;
  for (std::size_t i = 0; i < systems.size(); ++i) traffic.emplace_back(555);
  Rng rng_rounds(556);

  const TopicId topic = scenario.topic.topic;
  const ClientId churner = scenario.topic.subscribers.back().client;
  RegionId failed{-1};
  for (int round = 0; round < 12; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    std::vector<LiveRunResult> runs;
    for (std::size_t i = 0; i < systems.size(); ++i) {
      runs.push_back(
          systems[i]->run_interval(10.0, 1024, rate_hz, traffic[i]));
    }
    for (std::size_t i = 1; i < systems.size(); ++i) {
      // Doubles along the hop chain — exact equality, not approximate, and
      // in the same per-subscriber concatenation order.
      ASSERT_EQ(runs[i].delivery_times, runs[0].delivery_times)
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(runs[i].interval_cost, runs[0].interval_cost)
          << "round " << round << " shards " << shard_counts[i - 1];
    }

    if (round == 3) {
      // Churn: one member leaves its weight-5 cohort in every system.
      reference->subscribers().back()->unsubscribe(topic);
      reference->simulator().run();
      for (auto& candidate : candidates) {
        candidate->cohort_pool()->unsubscribe_client(churner, topic);
        candidate->simulator().run();
        ASSERT_EQ(candidate->cohort_pool()->flock_of(churner, topic), -1);
      }
    }
    if (round == 9) {
      // ...and rejoins, attaching to whatever is deployed right now.
      const auto* config = reference->controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      reference->subscribers().back()->subscribe(topic, *config);
      reference->simulator().run();
      for (auto& candidate : candidates) {
        candidate->cohort_pool()->subscribe_client(churner, topic, *config);
        candidate->simulator().run();
        ASSERT_GE(candidate->cohort_pool()->flock_of(churner, topic), 0);
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
      ASSERT_EQ(sys.transport().dropped_count(),
                reference->transport().dropped_count())
          << "round " << round << " shards " << shard_counts[i - 1];
      ASSERT_EQ(sys.transport().topic_cost(topic),
                reference->transport().topic_cost(topic))
          << "round " << round << " shards " << shard_counts[i - 1];
      // The rendered snapshot sweeps broker counters, the weighted client
      // books (reconnects/duplicates/deliveries) and the controller state.
      ASSERT_EQ(collect_metrics(sys).render(), snapshot)
          << "round " << round << " shards " << shard_counts[i - 1];
    }
  }
  ASSERT_NE(failed.value(), -1);
}

/// The legacy-reference script — plain direct-mode traffic over four rounds
/// with weight-4 cohorts — on one system; returns its digest chain.
std::vector<std::uint64_t> reference_chain(bool incremental, bool cohorts) {
  Rng rng(7);
  WorkloadSpec workload;
  workload.interval_seconds = 5.0;
  workload.subscriber_replication = 4;
  const Scenario scenario =
      make_scenario({{RegionId{1}, 1, 2}, {RegionId{8}, 1, 2}}, workload, rng);

  LiveSystem sys(scenario,
                 {.incremental = incremental, .cohorts = cohorts});
  sys.deploy({geo::RegionSet::universe(10), core::DeliveryMode::kDirect});

  Rng traffic(99);
  testutil::Digest digest;
  std::vector<std::uint64_t> chain;
  for (int round = 0; round < 4; ++round) {
    const LiveRunResult run = sys.run_interval(5.0, 512, 2.0, traffic);
    (void)sys.control_round();
    testutil::fold_live_round(digest, sys, run);
    chain.push_back(digest.value());
  }
  return chain;
}

TEST_P(CohortDiff, CohortPlaneMatchesLegacyReferencePath) {
  // Transitivity anchor: the constant is the digest of the seed's original
  // per-client data plane (std::function per hop), and both the per-client
  // plane and the cohort plane must reproduce it. Locks the whole refactor
  // chain seed -> typed events -> cohorts to one observable behaviour.
  const bool incremental = GetParam();
  const std::uint64_t golden =
      incremental ? 0x62aeeb5a2682de71ULL : 0x2d25fcb59b6226f1ULL;
  for (const bool cohorts : {false, true}) {
    const std::vector<std::uint64_t> chain =
        reference_chain(incremental, cohorts);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(chain.back(), golden)
        << "cohorts=" << cohorts << "\n" << testutil::render_chain(chain);
  }
}

TEST_P(CohortDiff, ReliableControlKeepsPlanesIdenticalUnderDropSchedules) {
  // Regression for the kConfigUpdate-under-drop divergence: a probabilistic
  // drop rule on region-originated links could eat SOME members' config
  // updates, re-homing the per-client plane member-by-member while the
  // cohort plane re-homed whole flocks — the one schedule class the plane
  // equivalence proof had to exclude. With the reliable mode on, the fault
  // plan applies to data kinds only (control is TCP-backed in production,
  // DESIGN.md §15), so the planes must stay bit-identical under drop
  // schedules too — including while the drops are actively eating
  // deliveries and the replay machinery is healing them.
  const bool incremental = GetParam();
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.max_t = 150.0;
  workload.subscriber_replication = 5;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}}, workload, rng);

  LiveSystem per_client(scenario,
                        {.incremental = incremental, .reliable = true});
  LiveSystem cohort(scenario, {.incremental = incremental,
                               .cohorts = true,
                               .reliable = true});

  // One permanently-active drop rule per system, same seed: region-origin
  // links only (deliveries and forwards), so both planes draw identical
  // per-link coin streams. A delay rule on the same links stretches every
  // client-bound hop too, so the cohort plane's per-member replay must
  // apply each member's delay exactly as the per-client plane does.
  net::FaultPlan plan_a(909);
  net::FaultPlan plan_b(909);
  net::FaultRule drop;
  drop.kind = net::FaultRule::Kind::kDrop;
  drop.from = net::FaultEndpoint::any_region();
  drop.to = net::FaultEndpoint::any();
  drop.drop_probability = 0.25;
  net::FaultRule delay;
  delay.kind = net::FaultRule::Kind::kDelay;
  delay.from = net::FaultEndpoint::any_region();
  delay.to = net::FaultEndpoint::any();
  delay.delay_factor = 1.5;
  delay.delay_extra_ms = 7.0;
  for (net::FaultPlan* plan : {&plan_a, &plan_b}) {
    plan->add(drop);
    plan->add(delay);
  }
  per_client.transport().set_fault_plan(&plan_a);
  cohort.transport().set_fault_plan(&plan_b);

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  per_client.deploy(bootstrap);
  cohort.deploy(bootstrap);

  Rng traffic_a(555), traffic_b(555);
  Rng rng_rounds(556);
  const TopicId topic = scenario.topic.topic;
  RegionId failed{-1};
  testutil::Digest digest_a, digest_b;
  std::vector<std::uint64_t> chain;
  for (int round = 0; round < 8; ++round) {
    const double rate_hz = rng_rounds.uniform(0.5, 3.0);
    const auto a = per_client.run_interval(10.0, 1024, rate_hz, traffic_a);
    const auto b = cohort.run_interval(10.0, 1024, rate_hz, traffic_b);
    ASSERT_EQ(a.delivery_times, b.delivery_times) << "round " << round;
    ASSERT_EQ(a.interval_cost, b.interval_cost) << "round " << round;

    if (round == 2) {
      // An outage forces real reconfigurations — the exact racing of
      // kConfigUpdate against drops that used to diverge the planes.
      const auto* config = per_client.controller().deployed_config(topic);
      ASSERT_NE(config, nullptr);
      failed = config->regions.first();
      for (LiveSystem* sys : {&per_client, &cohort}) {
        sys->transport().set_region_down(failed, true);
        sys->controller().set_region_available(failed, false);
      }
    }
    if (round == 4) {
      for (LiveSystem* sys : {&per_client, &cohort}) {
        sys->transport().set_region_down(failed, false);
        sys->controller().set_region_available(failed, true);
      }
    }

    (void)per_client.control_round();
    (void)cohort.control_round();
    ASSERT_EQ(collect_metrics(per_client).render(),
              collect_metrics(cohort).render())
        << "round " << round;
    testutil::fold_live_round(digest_a, per_client, a);
    testutil::fold_live_round(digest_b, cohort, b);
    chain.push_back(digest_a.value());
  }
  ASSERT_NE(failed.value(), -1);
  // The rule really fired — this was not a vacuous pass.
  EXPECT_GT(plan_a.random_dropped(), 0u);
  EXPECT_EQ(plan_a.random_dropped(), plan_b.random_dropped());
  // Golden: the digest chain both planes produced while the cohort plane
  // still had its own hand-written per-member hops (DESIGN.md §9). Both
  // control-plane pipelines reach the same decisions here, so one constant
  // pins both parameterizations.
  const std::uint64_t golden = 0x1c310d1446b0df35ULL;
  EXPECT_EQ(digest_a.value(), golden) << testutil::render_chain(chain);
  EXPECT_EQ(digest_b.value(), golden) << testutil::render_chain(chain);
}

TEST(CohortReliable, CohortsPlusReliableRepairDropsLikePerClient) {
  // A system built with {cohorts, reliable} has a reliable cohort pool,
  // whatever order the two options are spelled in: the constructor builds
  // the pool before it arms the reliability layer. With gap detection on,
  // deliveries a client-bound drop rule eats come back through weighted
  // replay, exactly as the per-client plane's do.
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.subscriber_replication = 4;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}}, workload, rng);

  LiveSystem per_client(scenario, {.reliable = true});
  LiveSystem cohort(scenario, {.cohorts = true, .reliable = true});
  ASSERT_NE(cohort.cohort_pool(), nullptr);
  ASSERT_TRUE(cohort.cohort_pool()->reliable());

  net::FaultPlan plan_a(77);
  net::FaultPlan plan_b(77);
  net::FaultRule drop;
  drop.kind = net::FaultRule::Kind::kDrop;
  drop.from = net::FaultEndpoint::any_region();
  drop.to = net::FaultEndpoint::any_client();
  drop.drop_probability = 0.3;
  plan_a.add(drop);
  plan_b.add(drop);
  per_client.transport().set_fault_plan(&plan_a);
  cohort.transport().set_fault_plan(&plan_b);

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  per_client.deploy(bootstrap);
  cohort.deploy(bootstrap);
  Rng traffic_a(31), traffic_b(31);
  const auto a = per_client.run_interval(10.0, 1024, 2.0, traffic_a);
  const auto b = cohort.run_interval(10.0, 1024, 2.0, traffic_b);

  EXPECT_EQ(b.delivery_times, a.delivery_times);
  EXPECT_EQ(b.interval_cost, a.interval_cost);
  EXPECT_EQ(plan_b.random_dropped(), plan_a.random_dropped());
  // The interval's sync pass repaired more deliveries than are still
  // missing (replays cross the same lossy links)...
  const std::uint64_t expected =
      b.publications * scenario.topic.subscribers.size();
  EXPECT_GT(plan_b.random_dropped(), expected - b.deliveries);
  // ...and further passes close the gap: zero loss.
  const client::CohortPool& pool = *cohort.cohort_pool();
  for (int pass = 0; pass < 10 && pool.interval_delivery_weight() < expected;
       ++pass) {
    cohort.sync_reliable();
  }
  EXPECT_EQ(pool.interval_delivery_weight(), expected);
}

TEST(CohortReliable, MemberChurnAndRestoreKeepReplicationBooksEqual) {
  // The state stream must count like the per-client expansion through a
  // member's whole life: a departure that leaves its weight-5 flock's entry
  // behind is one delta, as that member's removal is on the per-client
  // plane, and when the churner's region crashes and comes back the standby
  // re-streams the flock at its live weight. Leave and rejoin happen at
  // drained points with no traffic in between: a per-client subscriber
  // that subscribes again replays the retained ring, a member rejoining its
  // flock does not (DESIGN.md §12).
  Rng rng(2026);
  WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.subscriber_replication = 5;
  const Scenario scenario =
      make_scenario({{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}}, workload, rng);
  LiveSystem per_client(scenario, {.reliable = true});
  LiveSystem cohort(scenario, {.cohorts = true, .reliable = true});
  ASSERT_EQ(cohort.cohort_pool()->cohort_weight(0), 5u);

  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  per_client.deploy(bootstrap);
  cohort.deploy(bootstrap);

  const auto expect_books_equal = [&](const std::string& step) {
    EXPECT_EQ(cohort.transport().sent_count(),
              per_client.transport().sent_count())
        << step;
    EXPECT_EQ(collect_metrics(cohort).render(),
              collect_metrics(per_client).render())
        << step;
    for (std::int32_t r = 0; r < 10; ++r) {
      const broker::Broker& a =
          per_client.region_manager(RegionId{r}).broker();
      const broker::Broker& b = cohort.region_manager(RegionId{r}).broker();
      EXPECT_EQ(b.state_seq(), a.state_seq()) << step << " R" << r;
      for (std::int32_t owner = 0; owner < 10; ++owner) {
        EXPECT_EQ(b.replica_applied_seq(RegionId{owner}),
                  a.replica_applied_seq(RegionId{owner}))
            << step << " R" << r << " replica of R" << owner;
      }
    }
  };

  Rng traffic_a(31), traffic_b(31);
  (void)per_client.run_interval(10.0, 1024, 2.0, traffic_a);
  (void)cohort.run_interval(10.0, 1024, 2.0, traffic_b);
  expect_books_equal("traffic");

  const TopicId topic = scenario.topic.topic;
  const ClientId churner = scenario.topic.subscribers.back().client;
  client::Subscriber& member = *per_client.subscribers().back();
  client::CohortPool& pool = *cohort.cohort_pool();
  member.unsubscribe(topic);
  per_client.simulator().run();
  pool.unsubscribe_client(churner, topic);
  cohort.simulator().run();
  expect_books_equal("leave");

  member.subscribe(topic, bootstrap);
  per_client.simulator().run();
  pool.subscribe_client(churner, topic, bootstrap);
  cohort.simulator().run();
  expect_books_equal("rejoin");

  const RegionId region = member.attached_region(topic);
  ASSERT_EQ(pool.attached_region(churner, topic), region);
  for (const bool down : {true, false}) {
    for (LiveSystem* sys : {&per_client, &cohort}) {
      sys->set_region_down(region, down);
      sys->simulator().run();
    }
    expect_books_equal(down ? "crash" : "restore");
  }

  (void)per_client.run_interval(10.0, 1024, 2.0, traffic_a);
  (void)cohort.run_interval(10.0, 1024, 2.0, traffic_b);
  expect_books_equal("traffic after restore");
}

INSTANTIATE_TEST_SUITE_P(ControlPlane, CohortDiff, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Incremental" : "FullScan";
                         });

}  // namespace
}  // namespace multipub::sim
