#include "net/transport.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "testutil.h"

namespace multipub::net {
namespace {

using testutil::TinyWorld;

class TransportTest : public ::testing::Test {
 protected:
  TinyWorld world_;
  Simulator sim_;
  SimTransport transport_{sim_, world_.catalog, world_.backbone,
                          world_.clients};

  static wire::Message publication(Bytes payload) {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = TopicId{0};
    msg.payload_bytes = payload;
    return msg;
  }
};

TEST_F(TransportTest, DeliversAfterClientToRegionLatency) {
  Millis delivered_at = -1.0;
  transport_.register_handler(Address::region(TinyWorld::kA),
                              [&](const wire::Message&) {
                                delivered_at = sim_.now();
                              });
  transport_.send(Address::client(TinyWorld::kNearA),
                  Address::region(TinyWorld::kA), publication(100));
  sim_.run();
  EXPECT_DOUBLE_EQ(delivered_at, 10.0);  // L[nearA][A] = 10
}

TEST_F(TransportTest, DeliversAfterBackboneLatency) {
  Millis delivered_at = -1.0;
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [&](const wire::Message&) {
                                delivered_at = sim_.now();
                              });
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(100));
  sim_.run();
  EXPECT_DOUBLE_EQ(delivered_at, 80.0);  // backbone A-B
}

TEST_F(TransportTest, RegionToClientUsesSameMatrixAsClientToRegion) {
  EXPECT_DOUBLE_EQ(transport_.latency(Address::region(TinyWorld::kB),
                                      Address::client(TinyWorld::kNearB)),
                   15.0);
  EXPECT_DOUBLE_EQ(transport_.latency(Address::client(TinyWorld::kNearB),
                                      Address::region(TinyWorld::kB)),
                   15.0);
}

TEST_F(TransportTest, ClientEgressIsFree) {
  transport_.register_handler(Address::region(TinyWorld::kA),
                              [](const wire::Message&) {});
  transport_.send(Address::client(TinyWorld::kNearA),
                  Address::region(TinyWorld::kA), publication(1'000'000));
  sim_.run();
  EXPECT_DOUBLE_EQ(transport_.ledger().total_cost(world_.catalog), 0.0);
}

TEST_F(TransportTest, RegionToRegionBilledAtAlpha) {
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [](const wire::Message&) {});
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(1000));
  sim_.run();
  EXPECT_EQ(transport_.ledger().inter_region_bytes[0], 1000u);
  EXPECT_EQ(transport_.ledger().internet_bytes[0], 0u);
  EXPECT_DOUBLE_EQ(transport_.ledger().total_cost(world_.catalog),
                   1000.0 * per_gb_to_per_byte(0.02));
}

TEST_F(TransportTest, RegionToClientBilledAtBeta) {
  transport_.register_handler(Address::client(TinyWorld::kNearB),
                              [](const wire::Message&) {});
  wire::Message msg = publication(2000);
  msg.type = wire::MessageType::kDeliver;
  transport_.send(Address::region(TinyWorld::kB),
                  Address::client(TinyWorld::kNearB), msg);
  sim_.run();
  EXPECT_EQ(transport_.ledger().internet_bytes[1], 2000u);
  EXPECT_DOUBLE_EQ(transport_.ledger().total_cost(world_.catalog),
                   2000.0 * per_gb_to_per_byte(0.14));
}

TEST_F(TransportTest, ControlMessagesAreNotBilled) {
  transport_.register_handler(Address::client(TinyWorld::kNearA),
                              [](const wire::Message&) {});
  wire::Message msg;
  msg.type = wire::MessageType::kConfigUpdate;
  msg.payload_bytes = 999;  // even with a payload size set, control is free
  transport_.send(Address::region(TinyWorld::kA),
                  Address::client(TinyWorld::kNearA), msg);
  sim_.run();
  EXPECT_DOUBLE_EQ(transport_.ledger().total_cost(world_.catalog), 0.0);
}

TEST_F(TransportTest, UnregisteredDestinationCountsAsDropped) {
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(500));
  sim_.run();
  EXPECT_EQ(transport_.dropped_count(), 1u);
  // Billing still happened: the bytes left region A.
  EXPECT_EQ(transport_.ledger().inter_region_bytes[0], 500u);
}

TEST_F(TransportTest, HandlerReplacementTakesEffect) {
  int first = 0, second = 0;
  const Address addr = Address::region(TinyWorld::kA);
  transport_.register_handler(addr, [&](const wire::Message&) { ++first; });
  transport_.register_handler(addr, [&](const wire::Message&) { ++second; });
  transport_.send(Address::client(TinyWorld::kNearA), addr, publication(1));
  sim_.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(TransportTest, HandlerMayRegisterNewHandlersMidDelivery) {
  // Regression: client churn registers handlers from within a delivery
  // handler, growing the dense table the executing handler lives in. The
  // deque-backed table must leave the executing std::function in place
  // (a vector reallocation would move it mid-call — UB under ASan).
  bool relayed = false;
  transport_.register_handler(
      Address::client(TinyWorld::kNearA), [&](const wire::Message& m) {
        if (m.type == wire::MessageType::kDeliver) {
          relayed = true;
          return;
        }
        // Enough new registrations to force the table past any initial
        // capacity while this handler is on the stack.
        for (int i = 100; i < 400; ++i) {
          transport_.register_handler(Address::client(ClientId{i}),
                                      [](const wire::Message&) {});
        }
        wire::Message copy = m;
        copy.type = wire::MessageType::kDeliver;
        transport_.send(Address::region(TinyWorld::kA),
                        Address::client(TinyWorld::kNearA), copy);
      });
  transport_.send(Address::region(TinyWorld::kA),
                  Address::client(TinyWorld::kNearA), publication(10));
  sim_.run();
  EXPECT_TRUE(relayed);
}

TEST_F(TransportTest, MessagePayloadSurvivesTransit) {
  wire::Message received;
  transport_.register_handler(Address::region(TinyWorld::kA),
                              [&](const wire::Message& m) { received = m; });
  wire::Message sent = publication(777);
  sent.seq = 42;
  sent.publisher = TinyWorld::kNearA;
  transport_.send(Address::client(TinyWorld::kNearA),
                  Address::region(TinyWorld::kA), sent);
  sim_.run();
  EXPECT_EQ(received, sent);
}

TEST_F(TransportTest, SendBatchStampsTypeAndPerTargetSubscriber) {
  std::map<int, wire::Message> received;  // keyed by client id
  for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearA2, TinyWorld::kNearB}) {
    transport_.register_handler(Address::client(c),
                                [&received, c](const wire::Message& m) {
                                  received[c.value()] = m;
                                });
  }
  const std::vector<Address> targets = {Address::client(TinyWorld::kNearA),
                                        Address::client(TinyWorld::kNearA2),
                                        Address::client(TinyWorld::kNearB)};
  wire::Message msg = publication(1000);
  msg.publisher = TinyWorld::kNearC;
  msg.seq = 7;
  transport_.send_batch(Address::region(TinyWorld::kA), targets, msg,
                        wire::MessageType::kDeliver);
  sim_.run();

  ASSERT_EQ(received.size(), 3u);
  for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearA2, TinyWorld::kNearB}) {
    const wire::Message& m = received.at(c.value());
    EXPECT_EQ(m.type, wire::MessageType::kDeliver);
    EXPECT_EQ(m.subscriber, c);  // stamped per target
    EXPECT_EQ(m.publisher, TinyWorld::kNearC);
    EXPECT_EQ(m.seq, 7u);
    EXPECT_EQ(m.payload_bytes, 1000u);
  }
  // One billable egress per target at region A's Internet rate.
  EXPECT_EQ(transport_.ledger().internet_bytes[0], 3000u);
  EXPECT_EQ(transport_.sent_count(), 3u);
}

TEST_F(TransportTest, SendBatchMatchesPerTargetSendLoopExactly) {
  // The batch must be observationally identical to the per-target
  // copy-and-send loop: same ledger, same topic cost, same delivery times.
  TinyWorld world2;
  Simulator sim2;
  SimTransport reference(sim2, world2.catalog, world2.backbone,
                         world2.clients);

  std::vector<std::pair<Millis, wire::Message>> got_batch, got_loop;
  for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearB}) {
    transport_.register_handler(Address::client(c),
                                [&, this](const wire::Message& m) {
                                  got_batch.emplace_back(sim_.now(), m);
                                });
    reference.register_handler(Address::client(c),
                               [&](const wire::Message& m) {
                                 got_loop.emplace_back(sim2.now(), m);
                               });
  }
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [&, this](const wire::Message& m) {
                                got_batch.emplace_back(sim_.now(), m);
                              });
  reference.register_handler(Address::region(TinyWorld::kB),
                             [&](const wire::Message& m) {
                               got_loop.emplace_back(sim2.now(), m);
                             });

  const wire::Message msg = publication(1234);
  const std::vector<Address> targets = {Address::region(TinyWorld::kB),
                                        Address::client(TinyWorld::kNearA),
                                        Address::client(TinyWorld::kNearB)};
  transport_.send_batch(Address::region(TinyWorld::kA), targets, msg,
                        wire::MessageType::kForward);
  for (const Address to : targets) {
    wire::Message copy = msg;
    copy.type = wire::MessageType::kForward;
    if (to.kind == Address::Kind::kClient) copy.subscriber = to.as_client();
    reference.send(Address::region(TinyWorld::kA), to, copy);
  }
  sim_.run();
  sim2.run();

  ASSERT_EQ(got_batch.size(), got_loop.size());
  for (std::size_t i = 0; i < got_batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(got_batch[i].first, got_loop[i].first);
    EXPECT_EQ(got_batch[i].second, got_loop[i].second);
  }
  EXPECT_EQ(transport_.sent_count(), reference.sent_count());
  EXPECT_EQ(transport_.ledger().inter_region_bytes,
            reference.ledger().inter_region_bytes);
  EXPECT_EQ(transport_.ledger().internet_bytes,
            reference.ledger().internet_bytes);
  EXPECT_DOUBLE_EQ(transport_.topic_cost(TopicId{0}),
                   reference.topic_cost(TopicId{0}));
}

TEST_F(TransportTest, PerTopicCostsSumToTheLedgerTotal) {
  // Two topics fanned out through one transport: each is attributed only
  // its own billed bytes, and the attributions add up to the ledger.
  for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearB, TinyWorld::kNearC}) {
    transport_.register_handler(Address::client(c),
                                [](const wire::Message&) {});
  }
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [](const wire::Message&) {});

  // Topic 0: forwarded A -> B, then delivered from B to two clients.
  wire::Message alerts = publication(512);
  alerts.type = wire::MessageType::kForward;
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), alerts);
  const std::vector<Address> alert_targets = {
      Address::client(TinyWorld::kNearA), Address::client(TinyWorld::kNearB)};
  transport_.send_batch(Address::region(TinyWorld::kB), alert_targets, alerts,
                        wire::MessageType::kDeliver);
  // Topic 1: delivered straight from C to its one local client.
  wire::Message game = publication(2048);
  game.topic = TopicId{1};
  const std::vector<Address> game_targets = {
      Address::client(TinyWorld::kNearC)};
  transport_.send_batch(Address::region(TinyWorld::kC), game_targets, game,
                        wire::MessageType::kDeliver);
  sim_.run();

  const Dollars alerts_cost = transport_.topic_cost(TopicId{0});
  const Dollars game_cost = transport_.topic_cost(TopicId{1});
  EXPECT_GT(alerts_cost, 0.0);
  EXPECT_GT(game_cost, 0.0);
  const Dollars total = transport_.ledger().total_cost(world_.catalog);
  EXPECT_NEAR(alerts_cost + game_cost, total, 1e-12 * total);
  EXPECT_NEAR(transport_.topic_cost_total(), total, 1e-12 * total);
}

TEST_F(TransportTest, SendBatchFromDownRegionDropsEverythingUnbilled) {
  transport_.set_region_down(TinyWorld::kA, true);
  const std::vector<Address> targets = {Address::client(TinyWorld::kNearA),
                                        Address::client(TinyWorld::kNearB)};
  transport_.send_batch(Address::region(TinyWorld::kA), targets,
                        publication(500), wire::MessageType::kDeliver);
  sim_.run();
  EXPECT_EQ(transport_.sent_count(), 0u);
  EXPECT_EQ(transport_.dropped_count(), 2u);
  EXPECT_DOUBLE_EQ(transport_.ledger().total_cost(world_.catalog), 0.0);
}

TEST_F(TransportTest, SendBatchSkipsDownTargetButBillsTheRest) {
  wire::Message seen;
  transport_.register_handler(Address::region(TinyWorld::kC),
                              [&](const wire::Message& m) { seen = m; });
  transport_.set_region_down(TinyWorld::kB, true);
  const std::vector<Address> targets = {Address::region(TinyWorld::kB),
                                        Address::region(TinyWorld::kC)};
  transport_.send_batch(Address::region(TinyWorld::kA), targets,
                        publication(500), wire::MessageType::kForward);
  sim_.run();
  EXPECT_EQ(transport_.sent_count(), 2u);   // the drop still counts as a send
  EXPECT_EQ(transport_.dropped_count(), 1u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[0], 500u);  // C only
  EXPECT_EQ(seen.type, wire::MessageType::kForward);
}

TEST_F(TransportTest, UnregisteredDeliveriesAreCountedSeparately) {
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(500));
  sim_.run();
  EXPECT_EQ(transport_.dropped_count(), 1u);
  EXPECT_EQ(transport_.dropped_unregistered_count(), 1u);
  // A drop at a down region is NOT an unregistered drop.
  transport_.set_region_down(TinyWorld::kC, true);
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kC), publication(500));
  sim_.run();
  EXPECT_EQ(transport_.dropped_count(), 2u);
  EXPECT_EQ(transport_.dropped_unregistered_count(), 1u);
}

TEST_F(TransportTest, RegionDyingMidFlightDropsArrivalsOnBothPaths) {
  // A message already in flight towards a region that dies before it lands
  // is discarded on arrival: the bytes were billed at departure, but a dead
  // datacenter processes nothing. send() and send_batch() must agree.
  for (const bool batch : {false, true}) {
    TinyWorld world;
    Simulator sim;
    SimTransport transport(sim, world.catalog, world.backbone, world.clients);
    const Address from = Address::region(TinyWorld::kA);
    const std::vector<Address> to = {Address::region(TinyWorld::kB)};
    const auto send = [&] {
      if (batch) {
        transport.send_batch(from, to, publication(500),
                             wire::MessageType::kPublish);
      } else {
        transport.send(from, to.front(), publication(500));
      }
    };

    std::uint64_t delivered = 0;
    transport.register_handler(to.front(),
                               [&](const wire::Message&) { ++delivered; });

    // A -> B takes 80 ms; B dies at t=40, while the message is in flight.
    send();
    sim.schedule_at(40.0, [&] {
      transport.set_region_down(TinyWorld::kB, true);
    });
    sim.run();

    EXPECT_EQ(delivered, 0u) << "batch=" << batch;
    EXPECT_EQ(transport.sent_count(), 1u) << "batch=" << batch;
    EXPECT_EQ(transport.dropped_count(), 1u) << "batch=" << batch;
    EXPECT_EQ(transport.dropped_dead_arrival_count(), 1u) << "batch=" << batch;
    EXPECT_EQ(transport.delivered_count(), 0u) << "batch=" << batch;
    EXPECT_EQ(transport.publish_drop_count(TopicId{0}), 1u)
        << "batch=" << batch;
    // Billed at departure regardless: the bytes left A.
    EXPECT_EQ(transport.ledger().inter_region_bytes[TinyWorld::kA.index()],
              500u);

    // After the region recovers, traffic flows (and is counted) again.
    transport.set_region_down(TinyWorld::kB, false);
    send();
    sim.run();
    EXPECT_EQ(delivered, 1u) << "batch=" << batch;
    EXPECT_EQ(transport.delivered_count(), 1u) << "batch=" << batch;
  }
}

TEST_F(TransportTest, CounterBooksBalanceAcrossDropKinds) {
  // sent == delivered + (dropped - dropped_sender_down) once the queue
  // drains — the identity the chaos harness's counter oracle checks.
  transport_.register_handler(Address::region(TinyWorld::kB),
                              [](const wire::Message&) {});
  // One clean delivery, one to an unregistered address, one towards a dead
  // region, one from a dead region.
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kB), publication(10));
  transport_.send(Address::region(TinyWorld::kA),
                  Address::client(TinyWorld::kNearC), publication(10));
  transport_.set_region_down(TinyWorld::kC, true);
  transport_.send(Address::region(TinyWorld::kA),
                  Address::region(TinyWorld::kC), publication(10));
  transport_.send(Address::region(TinyWorld::kC),
                  Address::region(TinyWorld::kB), publication(10));
  sim_.run();

  EXPECT_EQ(transport_.sent_count(), 3u);
  EXPECT_EQ(transport_.delivered_count(), 1u);
  EXPECT_EQ(transport_.dropped_count(), 3u);
  EXPECT_EQ(transport_.dropped_sender_down_count(), 1u);
  EXPECT_EQ(transport_.dropped_unregistered_count(), 1u);
  EXPECT_EQ(transport_.sent_count(),
            transport_.delivered_count() + transport_.dropped_count() -
                transport_.dropped_sender_down_count());
}

}  // namespace
}  // namespace multipub::net
