// Fault-injection layer: asymmetric partitions, time-windowed delay
// inflation and seeded probabilistic drop, wired into the transport. A
// golden digest pins the observables of fan-out traffic under every fault
// kind — the chaos harness relies on them.
#include "net/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "testutil.h"

namespace multipub::net {
namespace {

using testutil::TinyWorld;

class FaultPlanTest : public ::testing::Test {
 protected:
  TinyWorld world_;
  Simulator sim_;
  SimTransport transport_{sim_, world_.catalog, world_.backbone,
                          world_.clients};
  FaultPlan plan_{7};

  FaultPlanTest() { transport_.set_fault_plan(&plan_); }

  static wire::Message publication(Bytes payload) {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = TopicId{0};
    msg.payload_bytes = payload;
    return msg;
  }

  /// Registers a counting handler and returns the counter's address.
  std::uint64_t* count_deliveries(Address at) {
    auto counter = std::make_unique<std::uint64_t>(0);
    std::uint64_t* raw = counter.get();
    counters_.push_back(std::move(counter));
    transport_.register_handler(at,
                                [raw](const wire::Message&) { ++*raw; });
    return raw;
  }

  std::vector<std::unique_ptr<std::uint64_t>> counters_;
};

TEST(FaultEndpointTest, MatchingRules) {
  const Address region_a = Address::region(RegionId{0});
  const Address region_b = Address::region(RegionId{1});
  const Address client = Address::client(ClientId{3});

  EXPECT_TRUE(FaultEndpoint::any().matches(region_a));
  EXPECT_TRUE(FaultEndpoint::any().matches(client));
  EXPECT_TRUE(FaultEndpoint::any_region().matches(region_b));
  EXPECT_FALSE(FaultEndpoint::any_region().matches(client));
  EXPECT_TRUE(FaultEndpoint::any_client().matches(client));
  EXPECT_FALSE(FaultEndpoint::any_client().matches(region_a));
  EXPECT_TRUE(FaultEndpoint::region(RegionId{0}).matches(region_a));
  EXPECT_FALSE(FaultEndpoint::region(RegionId{0}).matches(region_b));
  // A client with the same numeric id as a region is a different endpoint.
  EXPECT_FALSE(FaultEndpoint::region(RegionId{3}).matches(client));
  EXPECT_TRUE(FaultEndpoint::client(ClientId{3}).matches(client));
  EXPECT_FALSE(FaultEndpoint::client(ClientId{4}).matches(client));
}

TEST_F(FaultPlanTest, PartitionIsAsymmetric) {
  std::uint64_t* at_a = count_deliveries(Address::region(TinyWorld::kA));
  std::uint64_t* at_b = count_deliveries(Address::region(TinyWorld::kB));

  FaultRule rule;
  rule.kind = FaultRule::Kind::kPartition;
  rule.from = FaultEndpoint::region(TinyWorld::kA);
  rule.to = FaultEndpoint::region(TinyWorld::kB);
  plan_.add(rule);

  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(100));
  transport_.send(Address::region(TinyWorld::kB),
                  Address::region(TinyWorld::kA), publication(100));
  sim_.run();

  EXPECT_EQ(*at_b, 0u);  // A -> B cut
  EXPECT_EQ(*at_a, 1u);  // B -> A unaffected
  EXPECT_EQ(plan_.partition_dropped(), 1u);
  EXPECT_EQ(transport_.dropped_faulted_count(), 1u);
  // The lost message was sent but never billed (it vanished in transit and
  // billing here mirrors the dead-destination accounting).
  EXPECT_EQ(transport_.sent_count(), 2u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kA.index()],
            0u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kB.index()],
            100u);
}

TEST_F(FaultPlanTest, PartitionWindowIsDrivenByTheSimulatorClock) {
  std::uint64_t* at_b = count_deliveries(Address::region(TinyWorld::kB));

  FaultRule rule;
  rule.kind = FaultRule::Kind::kPartition;
  rule.from = FaultEndpoint::region(TinyWorld::kA);
  rule.to = FaultEndpoint::region(TinyWorld::kB);
  rule.start = 100.0;
  rule.end = 200.0;
  plan_.add(rule);

  const Address a = Address::region(TinyWorld::kA);
  const Address b = Address::region(TinyWorld::kB);
  const wire::Message msg = publication(10);
  // Departure time decides: at 50 (before), 150 (inside), 200 (end is
  // exclusive — the link is back).
  sim_.schedule_at(50.0, [&] { transport_.send(a, b, msg); });
  sim_.schedule_at(150.0, [&] { transport_.send(a, b, msg); });
  sim_.schedule_at(200.0, [&] { transport_.send(a, b, msg); });
  sim_.run();

  EXPECT_EQ(*at_b, 2u);
  EXPECT_EQ(plan_.partition_dropped(), 1u);
}

TEST_F(FaultPlanTest, DelayRulesStretchLatencyAndCompound) {
  std::vector<Millis> arrivals;
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [&](const wire::Message&) {
                                arrivals.push_back(sim_.now());
                              });

  FaultRule stretch;
  stretch.kind = FaultRule::Kind::kDelay;
  stretch.from = FaultEndpoint::any();
  stretch.to = FaultEndpoint::region(TinyWorld::kB);
  stretch.start = 1000.0;
  stretch.delay_factor = 2.0;
  stretch.delay_extra_ms = 30.0;
  plan_.add(stretch);

  const Address a = Address::region(TinyWorld::kA);
  const Address b = Address::region(TinyWorld::kB);
  const wire::Message msg = publication(10);
  // Before the window: nominal 80 ms. Inside: 80 * 2 + 30.
  transport_.send(a, b, msg);
  sim_.schedule_at(1000.0, [&] { transport_.send(a, b, msg); });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 80.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 1000.0 + 80.0 * 2.0 + 30.0);

  // A second overlapping delay rule compounds: factors multiply, extras add.
  FaultRule second = stretch;
  second.delay_factor = 1.5;
  second.delay_extra_ms = 5.0;
  plan_.add(second);
  arrivals.clear();
  sim_.schedule_at(2000.0, [&] { transport_.send(a, b, msg); });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 2000.0 + 80.0 * 2.0 * 1.5 + 30.0 + 5.0);
  EXPECT_EQ(plan_.delayed(), 2u);
}

TEST_F(FaultPlanTest, DropProbabilityZeroAndOneAreDegenerate) {
  std::uint64_t* at_b = count_deliveries(Address::region(TinyWorld::kB));

  FaultRule drop;
  drop.kind = FaultRule::Kind::kDrop;
  drop.from = FaultEndpoint::region(TinyWorld::kA);
  drop.to = FaultEndpoint::region(TinyWorld::kB);
  drop.drop_probability = 0.0;
  const int keep_all = plan_.add(drop);
  for (int i = 0; i < 50; ++i) {
    transport_.send(Address::region(TinyWorld::kA),
                    Address::region(TinyWorld::kB), publication(10));
  }
  sim_.run();
  EXPECT_EQ(*at_b, 50u);

  plan_.remove(keep_all);
  drop.drop_probability = 1.0;
  plan_.add(drop);
  for (int i = 0; i < 50; ++i) {
    transport_.send(Address::region(TinyWorld::kA),
                    Address::region(TinyWorld::kB), publication(10));
  }
  sim_.run();
  EXPECT_EQ(*at_b, 50u);
  EXPECT_EQ(plan_.random_dropped(), 50u);
  EXPECT_EQ(transport_.dropped_faulted_count(), 50u);
}

TEST(FaultPlanSeed, SameSeedSameDecisions) {
  // Two plans with the same seed consulted with the same sequence, each on
  // a coin stream rooted at its seed, make identical drop decisions,
  // message by message.
  FaultRule drop;
  drop.kind = FaultRule::Kind::kDrop;
  drop.drop_probability = 0.5;

  const Address a = Address::region(RegionId{0});
  const Address b = Address::region(RegionId{1});
  auto decisions = [&](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.add(drop);
    Rng coin(plan.seed());
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(plan.apply(a, b, 0.0, coin).dropped);
    }
    return out;
  };
  const auto first = decisions(42);
  EXPECT_EQ(first, decisions(42));
  EXPECT_NE(first, decisions(43));
  // The coin is fair-ish: with p=0.5 over 200 draws, expect 100 +- 40.
  const auto dropped =
      std::count(first.begin(), first.end(), true);
  EXPECT_GT(dropped, 60);
  EXPECT_LT(dropped, 140);
}

TEST(FaultPlanDiff, FastAndLegacyPathsAgreeUnderFaults) {
  // Golden digest of fan-out traffic under partitions + drop + delay:
  // arrival times, counters and ledger must hash to the constant the seed's
  // std::function data plane produced.
  TinyWorld world;
  Simulator sim;
  SimTransport transport(sim, world.catalog, world.backbone, world.clients);
  FaultPlan plan(99);
  transport.set_fault_plan(&plan);

  FaultRule partition;
  partition.kind = FaultRule::Kind::kPartition;
  partition.from = FaultEndpoint::region(TinyWorld::kC);
  partition.to = FaultEndpoint::any_client();
  partition.start = 500.0;
  plan.add(partition);
  FaultRule drop;
  drop.kind = FaultRule::Kind::kDrop;
  drop.from = FaultEndpoint::any_region();
  drop.to = FaultEndpoint::any();
  drop.drop_probability = 0.3;
  plan.add(drop);
  FaultRule delay;
  delay.kind = FaultRule::Kind::kDelay;
  delay.from = FaultEndpoint::region(TinyWorld::kA);
  delay.to = FaultEndpoint::any_region();
  delay.delay_factor = 1.7;
  delay.delay_extra_ms = 11.0;
  plan.add(delay);

  std::vector<Millis> arrivals;
  auto record = [&](const wire::Message&) { arrivals.push_back(sim.now()); };
  for (int c = 0; c < 4; ++c) {
    transport.register_handler(Address::client(ClientId{c}), record);
  }
  for (int r = 0; r < 3; ++r) {
    transport.register_handler(Address::region(RegionId{r}), record);
  }

  wire::Message msg;
  msg.type = wire::MessageType::kPublish;
  msg.topic = TopicId{0};
  msg.payload_bytes = 64;
  const std::vector<Address> clients = {
      Address::client(ClientId{0}), Address::client(ClientId{1}),
      Address::client(ClientId{2}), Address::client(ClientId{3})};
  const std::vector<Address> peers = {Address::region(TinyWorld::kB),
                                      Address::region(TinyWorld::kC)};
  for (int burst = 0; burst < 10; ++burst) {
    sim.schedule_at(100.0 * burst, [&, burst] {
      msg.seq = static_cast<std::uint64_t>(burst);
      transport.send_batch(Address::region(TinyWorld::kA), peers, msg,
                           wire::MessageType::kForward);
      transport.send_batch(Address::region(TinyWorld::kC), clients, msg,
                           wire::MessageType::kDeliver);
    });
  }
  sim.run();

  const std::uint64_t digest = testutil::Digest()
                                  .add(arrivals)
                                  .add(transport.sent_count())
                                  .add(transport.dropped_count())
                                  .add(transport.dropped_faulted_count())
                                  .add(transport.ledger().inter_region_bytes)
                                  .add(transport.ledger().internet_bytes)
                                  .value();
  EXPECT_EQ(digest, 0xf682211ea7a6ec66ULL) << testutil::render_chain({digest});
}

}  // namespace
}  // namespace multipub::net
