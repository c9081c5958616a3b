#include "broker/broker.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "net/fault_plan.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::broker {
namespace {

using testutil::TinyWorld;

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() {
    // Collect everything delivered to each client address.
    for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearA2,
                       TinyWorld::kNearB, TinyWorld::kNearC}) {
      transport_.register_handler(
          net::Address::client(c), [this, c](const wire::Message& msg) {
            inbox_[c].push_back(msg);
          });
    }
  }

  wire::Message publish_msg(ClientId publisher, Bytes payload = 1000,
                            wire::WireMode mode = wire::WireMode::kDirect) {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = TopicId{0};
    msg.publisher = publisher;
    msg.seq = next_seq_++;
    msg.published_at = sim_.now();
    msg.payload_bytes = payload;
    msg.config_mode = mode;  // the publisher stamps its fan-out intent
    return msg;
  }

  void subscribe(Broker& broker, ClientId subscriber) {
    wire::Message msg;
    msg.type = wire::MessageType::kSubscribe;
    msg.topic = TopicId{0};
    msg.subscriber = subscriber;
    broker.handle(msg);
  }

  static core::TopicConfig config_ab(core::DeliveryMode mode) {
    geo::RegionSet set;
    set.add(TinyWorld::kA);
    set.add(TinyWorld::kB);
    return {set, mode};
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  std::map<ClientId, std::vector<wire::Message>> inbox_;
  std::uint64_t next_seq_ = 0;
};

TEST_F(BrokerTest, DeliversPublicationToLocalSubscribers) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker, TinyWorld::kNearA2);
  subscribe(broker, TinyWorld::kNearC);

  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();

  ASSERT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
  ASSERT_EQ(inbox_[TinyWorld::kNearC].size(), 1u);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].type, wire::MessageType::kDeliver);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].subscriber, TinyWorld::kNearA2);
  EXPECT_EQ(broker.delivered_count(), 2u);
}

TEST_F(BrokerTest, DirectModeDoesNotForward) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker_b, TinyWorld::kNearB);

  // Direct mode: the publisher itself sends to each region; broker A must
  // not replicate to B.
  broker_a.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();
  EXPECT_TRUE(inbox_[TinyWorld::kNearB].empty());
}

TEST_F(BrokerTest, RoutedModeForwardsToPeersExactlyOnce) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  subscribe(broker_a, TinyWorld::kNearA2);
  subscribe(broker_b, TinyWorld::kNearB);

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run();

  // Local subscriber served, remote subscriber served via forward.
  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
  ASSERT_EQ(inbox_[TinyWorld::kNearB].size(), 1u);
  // A forward must not be re-forwarded (no loop): B received kForward and
  // only delivered locally. Exactly one inter-region message was billed.
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kA.index()],
            1000u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kB.index()], 0u);
}

TEST_F(BrokerTest, DrainForwardedCountsDuplicateFanOut) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 0u);

  // The serving set shrinks to {A}: B enters the drain window, and routed
  // publications keep fanning out to it — counted as drain forwards.
  geo::RegionSet only_a;
  only_a.add(TinyWorld::kA);
  broker_a.set_topic_config(TopicId{0},
                            {only_a, core::DeliveryMode::kRouted});
  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);

  // Once the grace period expires, the duplicate fan-out stops.
  sim_.run();  // runs past the scheduled drain expiry
  EXPECT_TRUE(broker_a.draining_regions(TopicId{0}).empty());
  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);
}

TEST_F(BrokerTest, RoutedFanOutSendsOneCopyPerPeerAcrossServingAndDraining) {
  // Region B sits in BOTH the new serving set and the drain window after a
  // reconfiguration {A,B} -> {A,B,C}; the fan-out targets are the UNION, so
  // B must receive exactly one copy (and C, newly serving, one too).
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  std::uint64_t to_b = 0, to_c = 0;
  transport_.register_handler(net::Address::region(TinyWorld::kB),
                              [&](const wire::Message&) { ++to_b; });
  transport_.register_handler(net::Address::region(TinyWorld::kC),
                              [&](const wire::Message&) { ++to_c; });

  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  geo::RegionSet abc;
  abc.add(TinyWorld::kA);
  abc.add(TinyWorld::kB);
  abc.add(TinyWorld::kC);
  broker_a.set_topic_config(TopicId{0}, {abc, core::DeliveryMode::kRouted});
  ASSERT_TRUE(broker_a.draining_regions(TopicId{0}).contains(TinyWorld::kB));

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run_until(sim_.now() + 500.0);  // deliver forwards, stay in the window

  EXPECT_EQ(to_b, 1u);
  EXPECT_EQ(to_c, 1u);
  EXPECT_EQ(broker_a.forwarded_count(), 2u);
  // B still serves, so neither forward is a drain-only duplicate.
  EXPECT_EQ(broker_a.drain_forwarded_count(), 0u);
  EXPECT_EQ(transport_.ledger().inter_region_bytes[TinyWorld::kA.index()],
            2000u);
}

TEST_F(BrokerTest, DrainOnlyPeerStillGetsExactlyOneCopy) {
  // {A,B} -> {A,C}: B is drain-only, C newly serving; one copy each, and
  // only B's copy counts as a drain forward.
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  std::uint64_t to_b = 0, to_c = 0;
  transport_.register_handler(net::Address::region(TinyWorld::kB),
                              [&](const wire::Message&) { ++to_b; });
  transport_.register_handler(net::Address::region(TinyWorld::kC),
                              [&](const wire::Message&) { ++to_c; });

  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  geo::RegionSet ac;
  ac.add(TinyWorld::kA);
  ac.add(TinyWorld::kC);
  broker_a.set_topic_config(TopicId{0}, {ac, core::DeliveryMode::kRouted});

  broker_a.handle(
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted));
  sim_.run_until(sim_.now() + 500.0);

  EXPECT_EQ(to_b, 1u);
  EXPECT_EQ(to_c, 1u);
  EXPECT_EQ(broker_a.forwarded_count(), 2u);
  EXPECT_EQ(broker_a.drain_forwarded_count(), 1u);
}

TEST_F(BrokerTest, RoutedDeliveryTimingMatchesEquation2) {
  Broker broker_a(TinyWorld::kA, sim_, transport_);
  Broker broker_b(TinyWorld::kB, sim_, transport_);
  broker_a.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  broker_b.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kRouted));
  subscribe(broker_b, TinyWorld::kNearB);

  // Inject at broker A as if the publisher's kPublish just arrived
  // (publisher leg simulated by sending through the transport).
  wire::Message msg =
      publish_msg(TinyWorld::kNearA, 1000, wire::WireMode::kRouted);
  transport_.send(net::Address::client(TinyWorld::kNearA),
                  net::Address::region(TinyWorld::kA), msg);
  sim_.run();

  ASSERT_EQ(inbox_[TinyWorld::kNearB].size(), 1u);
  const Millis delivery =
      sim_.now() - inbox_[TinyWorld::kNearB][0].published_at;
  // 10 (pub->A) + 80 (A->B) + 15 (B->nearB) = 105; the last event in the
  // simulation is exactly this delivery.
  EXPECT_DOUBLE_EQ(inbox_[TinyWorld::kNearB][0].published_at, 0.0);
  EXPECT_DOUBLE_EQ(delivery, 105.0);
}

TEST_F(BrokerTest, UnsubscribedClientStopsReceiving) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));
  subscribe(broker, TinyWorld::kNearA2);

  broker.handle(publish_msg(TinyWorld::kNearA));
  wire::Message unsub;
  unsub.type = wire::MessageType::kUnsubscribe;
  unsub.topic = TopicId{0};
  unsub.subscriber = TinyWorld::kNearA2;
  broker.handle(unsub);
  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();

  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
}

TEST_F(BrokerTest, TrafficStatisticsAccumulateAndReset) {
  Broker broker(TinyWorld::kA, sim_, transport_);
  broker.set_topic_config(TopicId{0}, config_ab(core::DeliveryMode::kDirect));

  broker.handle(publish_msg(TinyWorld::kNearA, 100));
  broker.handle(publish_msg(TinyWorld::kNearA, 200));
  broker.handle(publish_msg(TinyWorld::kNearB, 50));

  const auto& traffic = broker.traffic().at(TopicId{0});
  EXPECT_EQ(traffic.at(TinyWorld::kNearA).msg_count, 2u);
  EXPECT_EQ(traffic.at(TinyWorld::kNearA).total_bytes, 300u);
  EXPECT_EQ(traffic.at(TinyWorld::kNearB).msg_count, 1u);

  broker.reset_traffic();
  EXPECT_TRUE(broker.traffic().empty());
}

TEST_F(BrokerTest, PublishWithoutConfigStillDeliversLocally) {
  // A broker that has not yet received the assignment row behaves as a
  // plain single-region pub/sub (no forwarding).
  Broker broker(TinyWorld::kA, sim_, transport_);
  subscribe(broker, TinyWorld::kNearA2);
  broker.handle(publish_msg(TinyWorld::kNearA));
  sim_.run();
  EXPECT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
}

// ---- Clone-pattern state stream (DESIGN.md §15)

/// Three reliable brokers on one transport: A is the primary under test, B
/// hosts its standby, and C — a second primary that also streams to B —
/// shows that B keeps each owner's replica apart. A's handler is wrapped to
/// count the full-state resync requests B sends it.
class StateStreamTest : public ::testing::Test {
 protected:
  static constexpr int kTopics = 4;
  static constexpr std::int32_t kSubscribers = 6;

  StateStreamTest() {
    for (Broker* broker : {&a_, &b_, &c_}) broker->set_reliable(true);
    transport_.register_handler(
        net::Address::region(TinyWorld::kA), [this](const wire::Message& m) {
          if (m.type == wire::MessageType::kReplayRequest && !m.topic.valid()) {
            ++resyncs_;
          }
          a_.handle(m);
        });
    a_.set_standby(TinyWorld::kB);
    c_.set_standby(TinyWorld::kB);
  }

  /// What a restore must bring back: subscriptions (order and filters),
  /// configurations and the delta sequence.
  struct Tables {
    std::string subscriptions;
    std::vector<std::optional<core::TopicConfig>> configs;
    std::uint64_t state_seq = 0;
    friend bool operator==(const Tables&, const Tables&) = default;
  };

  static Tables tables(const Broker& broker) {
    Tables out;
    std::ostringstream subs;
    for (const TopicId topic : broker.subscriptions().topics()) {
      subs << "t" << topic.value() << ":";
      for (const Subscription& sub :
           broker.subscriptions().subscriptions(topic)) {
        subs << " " << sub.subscriber.value() << "[" << sub.filter.lo << ","
             << sub.filter.hi << "]";
      }
      subs << "\n";
    }
    out.subscriptions = subs.str();
    for (int t = 0; t < kTopics; ++t) {
      const core::TopicConfig* config = broker.topic_config(TopicId{t});
      out.configs.push_back(config == nullptr
                                ? std::nullopt
                                : std::optional<core::TopicConfig>(*config));
    }
    out.state_seq = broker.state_seq();
    return out;
  }

  static std::int32_t draw(Rng& rng, std::int32_t n) {
    return static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
  }

  /// One random table mutation on `broker`: a subscribe (a filter upsert
  /// when the subscriber is already there), an unsubscribe (possibly of an
  /// absent subscriber) or a configuration change.
  static void mutate(Broker& broker, Rng& rng) {
    const TopicId topic{draw(rng, kTopics)};
    const std::int32_t op = draw(rng, 10);
    if (op >= 8) {
      const auto mask = static_cast<std::uint64_t>(1 + draw(rng, 7));
      const core::DeliveryMode mode = draw(rng, 2) == 0
                                          ? core::DeliveryMode::kDirect
                                          : core::DeliveryMode::kRouted;
      broker.set_topic_config(topic, {geo::RegionSet(mask), mode});
      return;
    }
    wire::Message msg;
    msg.type = op < 5 ? wire::MessageType::kSubscribe
                      : wire::MessageType::kUnsubscribe;
    msg.topic = topic;
    msg.subscriber = ClientId{draw(rng, kSubscribers)};
    if (op < 5 && draw(rng, 2) == 1) {
      msg.filter.lo = static_cast<std::uint64_t>(draw(rng, 50));
      msg.filter.hi = msg.filter.lo + static_cast<std::uint64_t>(draw(rng, 50));
    }
    broker.handle(msg);
  }

  /// Crashes A, restores it from B's replica and expects `expected` back.
  void crash_and_restore(const Tables& expected) {
    a_.crash();
    ASSERT_EQ(a_.subscriptions().topic_count(), 0u);
    ASSERT_EQ(a_.state_seq(), 0u);
    b_.restore_peer(TinyWorld::kA);
    sim_.run();
    EXPECT_EQ(tables(a_), expected) << "restored:\n"
                                    << tables(a_).subscriptions
                                    << "expected:\n"
                                    << expected.subscriptions;
  }

  /// Drops everything A sends B while `body` runs (then drains).
  template <typename Body>
  void partition_a_to_b(Body body) {
    net::FaultPlan plan(1);
    net::FaultRule partition;
    partition.kind = net::FaultRule::Kind::kPartition;
    partition.from = net::FaultEndpoint::region(TinyWorld::kA);
    partition.to = net::FaultEndpoint::region(TinyWorld::kB);
    plan.add(partition);
    transport_.set_fault_plan(&plan);
    body();
    sim_.run();
    transport_.set_fault_plan(nullptr);
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  Broker a_{TinyWorld::kA, sim_, transport_};
  Broker b_{TinyWorld::kB, sim_, transport_};
  Broker c_{TinyWorld::kC, sim_, transport_};
  int resyncs_ = 0;
};

TEST_F(StateStreamTest, CrashAndRestoreBringsBackTheExactTables) {
  Rng rng(1515);
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (int step = 0; step < 40; ++step) {
      mutate(a_, rng);
      if (step % 4 == 0) mutate(c_, rng);
      if (step % 7 == 0) sim_.run();  // mutations land at several instants
    }
    sim_.run();
    ASSERT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq());
    ASSERT_EQ(b_.replica_applied_seq(TinyWorld::kC), c_.state_seq());
    const Tables before = tables(a_);
    ASSERT_FALSE(before.subscriptions.empty()) << "cycle " << cycle;
    crash_and_restore(before);
    // C's replica never leaks into A's restore, and the restore is no gap.
    EXPECT_EQ(b_.replica_applied_seq(TinyWorld::kC), c_.state_seq());
    EXPECT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq());
  }
  EXPECT_EQ(resyncs_, 0);
}

TEST_F(StateStreamTest, DroppedDeltaTriggersOneResyncPerGapEpisode) {
  Rng rng(77);
  for (int step = 0; step < 20; ++step) mutate(a_, rng);
  sim_.run();
  ASSERT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq());

  for (int episode = 1; episode <= 2; ++episode) {
    const std::uint64_t applied = a_.state_seq();
    partition_a_to_b([&] {
      a_.set_topic_config(TopicId{episode},
                          {geo::RegionSet(0b011), core::DeliveryMode::kRouted});
    });
    ASSERT_EQ(a_.state_seq(), applied + 1);
    ASSERT_EQ(b_.replica_applied_seq(TinyWorld::kA), applied);
    // Every later delta finds the gap; only the first one asks.
    for (int step = 0; step < 6; ++step) mutate(a_, rng);
    sim_.run();
    EXPECT_EQ(resyncs_, episode);
    EXPECT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq());
  }
  crash_and_restore(tables(a_));
}

TEST_F(StateStreamTest, HeartbeatMismatchTriggersResync) {
  Rng rng(5);
  for (int step = 0; step < 12; ++step) mutate(a_, rng);
  sim_.run();
  // The last delta is lost and nothing follows it: only the heartbeat can
  // reveal the divergence.
  partition_a_to_b([&] {
    a_.set_topic_config(TopicId{0},
                        {geo::RegionSet(0b101), core::DeliveryMode::kDirect});
  });
  ASSERT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq() - 1);
  ASSERT_EQ(resyncs_, 0);
  a_.sync_with_peers();
  sim_.run();
  EXPECT_EQ(resyncs_, 1);
  EXPECT_EQ(b_.replica_applied_seq(TinyWorld::kA), a_.state_seq());
  // An agreeing heartbeat asks for nothing.
  a_.sync_with_peers();
  sim_.run();
  EXPECT_EQ(resyncs_, 1);
  crash_and_restore(tables(a_));
}

}  // namespace
}  // namespace multipub::broker
