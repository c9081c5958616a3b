// Cohort plane unit tests (DESIGN.md §12): interning (topic sets, latency
// rows), cohort membership under churn, and fan-out retirement. The live
// differential suite proves bit-identity end-to-end; these pin the member
// mechanics in isolation — no brokers behind the region addresses, so
// control messages land as dropped_unregistered and the membership math
// stays local and inspectable.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "net/simulator.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "sim/scenario.h"
#include "testutil.h"

namespace multipub::client {
namespace {

using testutil::TinyWorld;

TEST(TopicSetPoolTest, InternsCanonically) {
  Arena arena;
  TopicSetPool pool(arena);
  EXPECT_EQ(pool.intern({}), TopicSetPool::kEmpty);

  const std::array<TopicId, 3> messy{TopicId{2}, TopicId{1}, TopicId{1}};
  const std::array<TopicId, 2> sorted{TopicId{1}, TopicId{2}};
  const std::int32_t a = pool.intern(messy);
  EXPECT_EQ(pool.intern(sorted), a);  // order and duplicates ignored
  ASSERT_EQ(pool.view(a).size(), 2u);
  EXPECT_EQ(pool.view(a)[0], TopicId{1});
  EXPECT_EQ(pool.view(a)[1], TopicId{2});
  EXPECT_TRUE(pool.contains(a, TopicId{2}));
  EXPECT_FALSE(pool.contains(a, TopicId{3}));

  EXPECT_EQ(pool.with(a, TopicId{1}), a);  // already a member
  const std::int32_t b = pool.with(a, TopicId{0});
  EXPECT_NE(b, a);
  EXPECT_EQ(pool.view(b)[0], TopicId{0});
  EXPECT_EQ(pool.without(b, TopicId{0}), a);  // hash-consed round trip
  const std::int32_t only1 = pool.without(a, TopicId{2});
  EXPECT_EQ(pool.without(only1, TopicId{1}), TopicSetPool::kEmpty);
}

TEST(ClientRegistryTest, ExactRowsInternAndClosestRegionMatchesLatencyMap) {
  Arena arena;
  ClientRegistry registry(8, 3, 0.0, arena);
  const std::array<Millis, 3> near_a{10, 100, 80};
  const std::array<Millis, 3> near_b{105, 15, 150};
  const ClientId c0 = registry.add(RegionId{0}, near_a, 1);
  const ClientId c1 = registry.add(RegionId{0}, near_a, 1);
  const ClientId c2 = registry.add(RegionId{1}, near_b, 1);
  EXPECT_EQ(registry.row_of(c0), registry.row_of(c1));  // shared storage
  EXPECT_NE(registry.row_of(c0), registry.row_of(c2));
  EXPECT_EQ(registry.row_count(), 2u);
  EXPECT_EQ(registry.home(c2), RegionId{1});

  // Same scan as geo::ClientLatencyMap::closest_region: smallest latency
  // among the candidates, ties towards the lower region id.
  const std::int32_t row = registry.row_of(c0);
  EXPECT_EQ(registry.closest_region(row, geo::RegionSet(0b111)), RegionId{0});
  EXPECT_EQ(registry.closest_region(row, geo::RegionSet(0b110)), RegionId{2});
  const std::array<Millis, 3> tie{50, 50, 50};
  const std::int32_t tie_row = registry.intern_row(tie);
  EXPECT_EQ(registry.closest_region(tie_row, geo::RegionSet(0b110)),
            RegionId{1});
}

TEST(ClientRegistryTest, QuantizationBucketSharesRepresentativeRows) {
  Arena arena;
  ClientRegistry registry(8, 3, 5.0, arena);
  const std::array<Millis, 3> first{10, 100, 80};
  const std::array<Millis, 3> nearby{12, 102, 81};   // same 5 ms buckets
  const std::array<Millis, 3> distant{20, 100, 80};  // bucket 4 vs 2
  const ClientId c0 = registry.add(RegionId{0}, first, 1);
  const ClientId c1 = registry.add(RegionId{0}, nearby, 1);
  const ClientId c2 = registry.add(RegionId{0}, distant, 1);
  EXPECT_EQ(registry.row_of(c0), registry.row_of(c1));
  EXPECT_NE(registry.row_of(c0), registry.row_of(c2));
  // The first-seen row is the representative all bucket-mates resolve to.
  EXPECT_EQ(registry.row(registry.row_of(c1))[0], 10.0);
}

class CohortPoolTest : public ::testing::Test {
 protected:
  CohortPoolTest() { transport_.set_cohort_directory(&pool_); }

  static core::TopicConfig config(std::uint64_t mask) {
    return {geo::RegionSet(mask), core::DeliveryMode::kDirect};
  }

  /// Registers a client and enrolls it in its cohort.
  ClientId join(RegionId home, std::span<const Millis> row,
                std::int32_t topic_set) {
    const ClientId client = registry_.add(home, row, topic_set);
    pool_.enroll(client);
    return client;
  }

  static constexpr TopicId kTopic{0};
  static constexpr std::array<Millis, 3> kNearA{10, 100, 80};
  static constexpr std::array<Millis, 3> kNearA2{20, 110, 90};
  static constexpr std::array<Millis, 3> kNearB{105, 15, 150};

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  Arena arena_;
  TopicSetPool sets_{arena_};
  ClientRegistry registry_{16, 3, 0.0, arena_};
  CohortPool pool_{registry_, sets_, sim_, transport_};
  std::int32_t t0_ = sets_.intern(std::array<TopicId, 1>{kTopic});
};

TEST_F(CohortPoolTest, EnrollGroupsByHomeRowAndTopicSet) {
  const ClientId c0 = registry_.add(RegionId{0}, kNearA, t0_);
  const ClientId c1 = registry_.add(RegionId{0}, kNearA, t0_);
  const ClientId c2 = registry_.add(RegionId{0}, kNearA2, t0_);  // other row
  const ClientId c3 = registry_.add(RegionId{1}, kNearA, t0_);   // other home
  const ClientId idle =
      registry_.add(RegionId{0}, kNearA, TopicSetPool::kEmpty);

  const std::int32_t s0 = pool_.enroll(c0);
  EXPECT_EQ(pool_.enroll(c1), s0);
  EXPECT_NE(pool_.enroll(c2), s0);
  EXPECT_NE(pool_.enroll(c3), s0);
  EXPECT_EQ(pool_.enroll(idle), -1);  // nothing subscribed: no cohort

  EXPECT_EQ(pool_.cohort_count(), 3u);
  EXPECT_EQ(pool_.flock_count(), 3u);  // one topic per cohort
  EXPECT_EQ(pool_.cohort_weight(s0), 2u);
  EXPECT_EQ(pool_.cohort_home(s0), RegionId{0});
  EXPECT_EQ(pool_.cohort_home(pool_.enroll(registry_.add(RegionId{1}, kNearA,
                                                         t0_))),
            RegionId{1});
  EXPECT_EQ(registry_.cohort_of(c0), s0);
  EXPECT_EQ(registry_.cohort_of(idle), -1);
}

TEST_F(CohortPoolTest, DeployAttachesEveryFlockToItsClosestServingRegion) {
  const ClientId c0 = join(RegionId{0}, kNearA, t0_);
  const ClientId c1 = join(RegionId{0}, kNearA, t0_);
  ASSERT_EQ(pool_.cohort_count(), 1u);

  // Serving {B, C}: the row's closest of the two is C (80 < 100).
  pool_.deploy(kTopic, config(0b110));
  sim_.run();
  EXPECT_EQ(pool_.attached_region(c0, kTopic), RegionId{2});
  EXPECT_EQ(pool_.attached_region(c1, kTopic), RegionId{2});
  const std::int32_t fid = pool_.flock_of(c0, kTopic);
  ASSERT_GE(fid, 0);
  EXPECT_EQ(pool_.flock_attachment(fid), RegionId{2});
  EXPECT_EQ(pool_.flock_weight(fid), 2u);
  // One weighted kSubscribe stands for both members' handshakes — and the
  // counter books record it at weight 2, like two per-client sends.
  EXPECT_EQ(transport_.sent_count(), 2u);
}

TEST_F(CohortPoolTest, ResubscribeIsIdempotent) {
  const ClientId c0 = join(RegionId{0}, kNearA, t0_);
  join(RegionId{0}, kNearA, t0_);
  pool_.deploy(kTopic, config(0b111));
  sim_.run();
  const std::uint64_t sent = transport_.sent_count();

  pool_.subscribe_client(c0, kTopic, config(0b111));
  sim_.run();
  EXPECT_EQ(pool_.cohort_count(), 1u);
  EXPECT_EQ(pool_.cohort_weight(registry_.cohort_of(c0)), 2u);
  // Mirrors the per-client re-subscribe: one weight-1 refresh on the wire.
  EXPECT_EQ(transport_.sent_count(), sent + 1);
}

TEST_F(CohortPoolTest, UnsubscribeAndRejoinMoveWeightThroughTheSameCohort) {
  join(RegionId{0}, kNearA, t0_);
  const ClientId c1 = join(RegionId{0}, kNearA, t0_);
  join(RegionId{0}, kNearA, t0_);
  pool_.deploy(kTopic, config(0b001));
  sim_.run();
  const std::int32_t slot = registry_.cohort_of(c1);
  ASSERT_EQ(pool_.cohort_weight(slot), 3u);

  pool_.unsubscribe_client(c1, kTopic);
  sim_.run();
  EXPECT_EQ(pool_.cohort_weight(slot), 2u);
  EXPECT_EQ(pool_.flock_of(c1, kTopic), -1);
  EXPECT_EQ(registry_.cohort_of(c1), -1);
  EXPECT_EQ(registry_.topic_set(c1), TopicSetPool::kEmpty);
  // Idempotent like Subscriber::unsubscribe of an unknown topic.
  pool_.unsubscribe_client(c1, kTopic);
  EXPECT_EQ(pool_.cohort_weight(slot), 2u);

  pool_.subscribe_client(c1, kTopic, config(0b001));
  sim_.run();
  EXPECT_EQ(pool_.cohort_count(), 1u);  // rejoined the existing cohort
  EXPECT_EQ(registry_.cohort_of(c1), slot);
  EXPECT_EQ(pool_.cohort_weight(slot), 3u);
  EXPECT_EQ(pool_.attached_region(c1, kTopic), RegionId{0});
}

TEST_F(CohortPoolTest, LatencyRowChangeMovesClientToAnotherCohort) {
  const ClientId c0 = join(RegionId{0}, kNearA, t0_);
  const ClientId mover = join(RegionId{0}, kNearA, t0_);
  pool_.deploy(kTopic, config(0b111));
  sim_.run();
  const std::int32_t old_slot = registry_.cohort_of(mover);
  ASSERT_EQ(pool_.attached_region(mover, kTopic), RegionId{0});

  // The client's measured latencies drifted towards B: re-home its row at a
  // drained point, then move it between cohorts.
  pool_.unsubscribe_client(mover, kTopic);
  registry_.set_row(mover, registry_.intern_row(kNearB));
  pool_.subscribe_client(mover, kTopic, config(0b111));
  sim_.run();

  EXPECT_NE(registry_.cohort_of(mover), old_slot);
  EXPECT_EQ(pool_.cohort_count(), 2u);
  EXPECT_EQ(pool_.cohort_weight(old_slot), 1u);
  EXPECT_EQ(pool_.cohort_weight(registry_.cohort_of(mover)), 1u);
  EXPECT_EQ(pool_.attached_region(mover, kTopic), RegionId{1});
  EXPECT_EQ(pool_.attached_region(c0, kTopic), RegionId{0});  // undisturbed
}

TEST_F(CohortPoolTest, SecondTopicJoinCarriesTheFirstTopicAlong) {
  // Joining topic 1 moves the client from the {0} cohort to a brand-new
  // {0, 1} one: its topic-0 flock must arrive attached where it was, next
  // to the freshly attached topic-1 flock.
  const ClientId stayer = join(RegionId{0}, kNearA, t0_);
  const ClientId mover = join(RegionId{0}, kNearA, t0_);
  pool_.deploy(kTopic, config(0b110));  // the row's closest of {B, C}: C
  sim_.run();
  const std::int32_t old_slot = registry_.cohort_of(mover);

  constexpr TopicId kSecond{1};
  pool_.subscribe_client(mover, kSecond, config(0b011));  // closest: A
  sim_.run();
  const std::int32_t new_slot = registry_.cohort_of(mover);
  EXPECT_NE(new_slot, old_slot);
  EXPECT_EQ(pool_.cohort_count(), 2u);
  EXPECT_EQ(pool_.cohort_weight(new_slot), 1u);
  EXPECT_EQ(pool_.cohort_weight(old_slot), 1u);
  EXPECT_EQ(pool_.attached_region(mover, kTopic), RegionId{2});
  EXPECT_EQ(pool_.attached_region(mover, kSecond), RegionId{0});
  EXPECT_EQ(pool_.attached_region(stayer, kTopic), RegionId{2});

  // Dropping topic 1 again returns the mover to its first cohort.
  pool_.unsubscribe_client(mover, kSecond);
  sim_.run();
  EXPECT_EQ(registry_.cohort_of(mover), old_slot);
  EXPECT_EQ(pool_.cohort_weight(old_slot), 2u);
  EXPECT_EQ(pool_.retired_cohort_count(), 1u);
  EXPECT_EQ(pool_.attached_region(mover, kTopic), RegionId{2});
}

TEST_F(CohortPoolTest, KillIsSilentAndTheEmptiedCohortRetires) {
  const ClientId c0 = join(RegionId{0}, kNearA, t0_);
  const ClientId c1 = join(RegionId{0}, kNearA, t0_);
  pool_.deploy(kTopic, config(0b001));
  sim_.run();
  const std::int32_t fid = pool_.flock_of(c0, kTopic);
  const std::uint64_t sent = transport_.sent_count();

  pool_.kill_client(c0);
  EXPECT_EQ(pool_.flock_weight(fid), 1u);
  EXPECT_FALSE(registry_.alive(c0));
  pool_.kill_client(c1);
  sim_.run();
  // No protocol good-bye — a crashed client sends nothing.
  EXPECT_EQ(transport_.sent_count(), sent);
  EXPECT_EQ(pool_.flock_weight(fid), 0u);
  EXPECT_EQ(pool_.retired_cohort_count(), 1u);

  // A retired cohort stays addressable but re-deploys send nothing (the
  // per-client loop over zero members is empty).
  pool_.deploy(kTopic, config(0b010));
  sim_.run();
  EXPECT_EQ(transport_.sent_count(), sent);
}

// End-to-end regression: a retired cohort's weight leaves the fan-out. The
// scenario replicates each subscriber position three-fold, so two weight-3
// cohorts serve six members; emptying one must drop exactly its half of
// the deliveries (and billing weight) from every publication.
TEST(CohortFanoutTest, RetiredCohortIsExcludedFromFanout) {
  Rng rng(11);
  sim::WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.subscriber_replication = 3;
  const sim::Scenario scenario =
      sim::make_scenario({{RegionId{0}, 1, 2}}, workload, rng);
  ASSERT_EQ(scenario.topic.subscribers.size(), 6u);

  sim::LiveSystem sys(scenario, {.cohorts = true});
  ASSERT_EQ(sys.cohort_pool()->cohort_count(), 2u);
  sys.deploy({geo::RegionSet::universe(10), core::DeliveryMode::kRouted});

  Rng traffic(21);
  const auto before = sys.run_interval(10.0, 1024, 1.0, traffic);
  ASSERT_GT(before.publications, 0u);
  ASSERT_EQ(before.delivery_times.size(), 6 * before.publications);

  // Every member of the first position's cohort dies (drained point).
  CohortPool* pool = sys.cohort_pool();
  const TopicId topic = scenario.topic.topic;
  const std::int32_t fid =
      pool->flock_of(scenario.topic.subscribers[0].client, topic);
  ASSERT_GE(fid, 0);
  ASSERT_EQ(pool->flock_weight(fid), 3u);
  const std::vector<ClientId> doomed(pool->flock_members(fid).begin(),
                                     pool->flock_members(fid).end());
  for (const ClientId client : doomed) pool->kill_client(client);
  EXPECT_EQ(pool->retired_cohort_count(), 1u);
  EXPECT_EQ(pool->flock_weight(fid), 0u);

  const auto after = sys.run_interval(10.0, 1024, 1.0, traffic);
  EXPECT_EQ(after.delivery_times.size(), 3 * after.publications);
  EXPECT_LT(after.interval_cost, before.interval_cost);
}

TEST(CohortFanoutTest, MemberDeathBetweenIntervalsShrinksTheWeight) {
  Rng rng(12);
  sim::WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.subscriber_replication = 3;
  const sim::Scenario scenario =
      sim::make_scenario({{RegionId{0}, 1, 2}}, workload, rng);

  sim::LiveSystem sys(scenario, {.cohorts = true});
  sys.deploy({geo::RegionSet::universe(10), core::DeliveryMode::kRouted});

  Rng traffic(22);
  const auto before = sys.run_interval(10.0, 1024, 1.0, traffic);
  ASSERT_EQ(before.delivery_times.size(), 6 * before.publications);

  sys.cohort_pool()->kill_client(scenario.topic.subscribers[0].client);
  const auto after = sys.run_interval(10.0, 1024, 1.0, traffic);
  EXPECT_EQ(after.delivery_times.size(), 5 * after.publications);
}

// A member of a weight-3 cohort joins a second topic and lands alone in a
// brand-new two-topic cohort. Against the per-client plane, both topics
// keep the same deliveries, costs and weighted counters.
TEST(CohortFanoutTest, SecondTopicJoinMatchesThePerClientPlane) {
  Rng rng(13);
  sim::WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.subscriber_replication = 3;
  const sim::Scenario scenario = sim::make_scenario(
      {{RegionId{0}, 1, 2}, {RegionId{5}, 1, 1}}, workload, rng);
  const TopicId first = scenario.topic.topic;
  const TopicId second{first.value() + 1};
  const ClientId joiner = scenario.topic.subscribers[0].client;
  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  const core::TopicConfig second_config{geo::RegionSet(0b100010),
                                        core::DeliveryMode::kDirect};

  sim::LiveSystem reference(scenario);
  sim::LiveSystem cohorts(scenario, {.cohorts = true});
  const std::size_t initial_cohorts = cohorts.cohort_pool()->cohort_count();
  for (sim::LiveSystem* sys : {&reference, &cohorts}) {
    sys->deploy(bootstrap);
    for (std::size_t r = 0; r < scenario.catalog.size(); ++r) {
      sys->region_manager(RegionId{static_cast<std::int32_t>(r)})
          .broker()
          .set_topic_config(second, second_config);
    }
    sys->publishers()[0]->set_config(second, second_config);
  }
  reference.subscribers()[0]->subscribe(second, second_config);
  cohorts.cohort_pool()->subscribe_client(joiner, second, second_config);
  EXPECT_EQ(cohorts.cohort_pool()->cohort_count(), initial_cohorts + 1);
  for (sim::LiveSystem* sys : {&reference, &cohorts}) {
    sys->simulator().run();
    for (int i = 0; i < 5; ++i) sys->publishers()[0]->publish(second, 512);
    sys->simulator().run();
  }

  // Second-topic traffic reaches the joiner alone, at the same instants.
  std::vector<Millis> joiner_times;
  cohorts.cohort_pool()->append_delivery_times(joiner, joiner_times);
  EXPECT_EQ(joiner_times.size(), 5u);
  EXPECT_EQ(joiner_times, reference.subscribers()[0]->delivery_times());
  EXPECT_GT(reference.transport().topic_cost(second), 0.0);
  EXPECT_EQ(cohorts.transport().topic_cost(second),
            reference.transport().topic_cost(second));

  // First-topic traffic still reaches every subscriber, the joiner through
  // the flock it carried into its new cohort.
  Rng reference_traffic(31);
  Rng cohort_traffic(31);
  const auto expected = reference.run_interval(10.0, 1024, 1.0,
                                               reference_traffic);
  const auto got = cohorts.run_interval(10.0, 1024, 1.0, cohort_traffic);
  ASSERT_GT(expected.publications, 0u);
  EXPECT_EQ(expected.deliveries,
            scenario.topic.subscribers.size() * expected.publications);
  EXPECT_EQ(got.delivery_times, expected.delivery_times);
  EXPECT_EQ(got.interval_cost, expected.interval_cost);
  EXPECT_EQ(cohorts.transport().topic_cost(first),
            reference.transport().topic_cost(first));
  EXPECT_EQ(cohorts.transport().ledger().inter_region_bytes,
            reference.transport().ledger().inter_region_bytes);
  EXPECT_EQ(cohorts.transport().ledger().internet_bytes,
            reference.transport().ledger().internet_bytes);
  // Broker counters and the weighted client books match line for line. The
  // transport's message books differ by exactly the retained-topic transfer
  // (DESIGN.md §12, divergence 4): moving cohorts re-homes the joiner's
  // topic-A entry with one kUnsubscribe and one kSubscribe, which a
  // per-client Subscriber never sends.
  const auto books = [](sim::LiveSystem& sys) {
    std::istringstream rendered(sim::collect_metrics(sys).render());
    std::string kept;
    for (std::string line; std::getline(rendered, line);) {
      if (!line.starts_with("transport.messages_")) kept += line + '\n';
    }
    return kept;
  };
  EXPECT_EQ(books(cohorts), books(reference));
  EXPECT_EQ(cohorts.transport().sent_count(),
            reference.transport().sent_count() + 2);
}

}  // namespace
}  // namespace multipub::client
