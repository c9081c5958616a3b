#include "broker/region_manager.h"

#include <gtest/gtest.h>

#include <map>

#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::broker {
namespace {

using testutil::TinyWorld;

class RegionManagerTest : public ::testing::Test {
 protected:
  RegionManagerTest() : manager_(TinyWorld::kA, sim_, transport_) {
    for (ClientId c : {TinyWorld::kNearA, TinyWorld::kNearA2,
                       TinyWorld::kNearB, TinyWorld::kNearC}) {
      transport_.register_handler(
          net::Address::client(c), [this, c](const wire::Message& msg) {
            inbox_[c].push_back(msg);
          });
    }
  }

  void publish(ClientId publisher, TopicId topic, Bytes bytes) {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = topic;
    msg.publisher = publisher;
    msg.payload_bytes = bytes;
    manager_.broker().handle(msg);
  }

  void subscribe(ClientId subscriber, TopicId topic) {
    wire::Message msg;
    msg.type = wire::MessageType::kSubscribe;
    msg.topic = topic;
    msg.subscriber = subscriber;
    manager_.broker().handle(msg);
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  RegionManager manager_;
  std::map<ClientId, std::vector<wire::Message>> inbox_;
};

TEST_F(RegionManagerTest, ReportsCoverTrafficAndSubscriptions) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  publish(TinyWorld::kNearA, TopicId{0}, 200);
  subscribe(TinyWorld::kNearA2, TopicId{0});
  subscribe(TinyWorld::kNearB, TopicId{1});  // subscription-only topic

  const auto batch = manager_.collect_reports();
  EXPECT_TRUE(batch.full_snapshot);  // the first collection always is
  const auto& reports = batch.reports;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].topic, TopicId{0});
  ASSERT_EQ(reports[0].publishers.size(), 1u);
  EXPECT_EQ(reports[0].publishers[0].msg_count, 2u);
  EXPECT_EQ(reports[0].publishers[0].total_bytes, 300u);
  EXPECT_EQ(reports[0].subscribers,
            std::vector<ClientId>{TinyWorld::kNearA2});
  EXPECT_EQ(reports[1].topic, TopicId{1});
  EXPECT_TRUE(reports[1].publishers.empty());
}

TEST_F(RegionManagerTest, CollectResetsTrafficButKeepsSubscriptions) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  subscribe(TinyWorld::kNearA2, TopicId{0});
  (void)manager_.collect_reports();

  // Second interval: the traffic stopped, which IS a change — the delta
  // reports the topic once with an empty (authoritative) publisher list.
  const auto second = manager_.collect_reports();
  EXPECT_FALSE(second.full_snapshot);
  ASSERT_EQ(second.reports.size(), 1u);
  EXPECT_TRUE(second.reports[0].publishers.empty());
  EXPECT_EQ(second.reports[0].subscribers.size(), 1u);

  // Third interval: nothing changed anymore — the delta is empty.
  EXPECT_TRUE(manager_.collect_reports().reports.empty());
}

TEST_F(RegionManagerTest, DeltaSkipsTopicsWithUnchangedTraffic) {
  subscribe(TinyWorld::kNearA2, TopicId{0});
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  (void)manager_.collect_reports();

  // Identical traffic next interval: not worth reporting.
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  EXPECT_TRUE(manager_.collect_reports().reports.empty());

  // Different traffic: reported again.
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  const auto third = manager_.collect_reports();
  ASSERT_EQ(third.reports.size(), 1u);
  EXPECT_EQ(third.reports[0].publishers[0].msg_count, 2u);
}

TEST_F(RegionManagerTest, MembershipChangeTriggersDeltaReport) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  (void)manager_.collect_reports();
  publish(TinyWorld::kNearA, TopicId{0}, 100);  // same traffic as before

  subscribe(TinyWorld::kNearA2, TopicId{0});
  const auto batch = manager_.collect_reports();
  ASSERT_EQ(batch.reports.size(), 1u);
  EXPECT_EQ(batch.reports[0].subscribers,
            std::vector<ClientId>{TinyWorld::kNearA2});
}

TEST_F(RegionManagerTest, PeriodicRefreshIsAFullSnapshot) {
  static_assert(RegionManager::kRefreshPeriod == 16);
  subscribe(TinyWorld::kNearA2, TopicId{0});
  // Collections 1, 17 and 33 are full snapshots; the ones between are
  // (empty) deltas.
  for (int collection = 1; collection <= 33; ++collection) {
    const auto batch = manager_.collect_reports();
    const bool full = collection % 16 == 1;
    EXPECT_EQ(batch.full_snapshot, full) << "collection " << collection;
    // A refresh re-reports even unchanged topics, so the controller can
    // reconcile.
    ASSERT_EQ(batch.reports.size(), full ? 1u : 0u)
        << "collection " << collection;
    if (full) {
      EXPECT_EQ(batch.reports[0].subscribers.size(), 1u);
    }
  }
}

TEST_F(RegionManagerTest, KnownPublishersArePrunedWhenTopicLeavesRegion) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  (void)manager_.collect_reports();
  EXPECT_EQ(manager_.known_publisher_count(TopicId{0}), 1u);

  // The deployed configuration moves the topic away from this region and no
  // local activity remains: the remembered publishers are dropped.
  manager_.broker().set_topic_config(
      TopicId{0}, {geo::RegionSet(0b010), core::DeliveryMode::kRouted});
  (void)manager_.collect_reports();
  EXPECT_EQ(manager_.known_publisher_count(TopicId{0}), 0u);
  EXPECT_EQ(manager_.known_publisher_topic_count(), 0u);
}

TEST_F(RegionManagerTest, KnownPublishersKeptWhileRegionStillServes) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  (void)manager_.collect_reports();

  // Region A (bit 0) stays in the serving set: the quiet publisher must
  // keep hearing about configuration changes.
  manager_.broker().set_topic_config(
      TopicId{0}, {geo::RegionSet(0b011), core::DeliveryMode::kRouted});
  (void)manager_.collect_reports();
  EXPECT_EQ(manager_.known_publisher_count(TopicId{0}), 1u);
}

TEST_F(RegionManagerTest, KnownPublisherCapBoundsPerTopicMemory) {
  constexpr std::size_t kCap = RegionManager::kKnownPublisherCap;
  for (std::size_t id = 0; id < kCap + 2; ++id) {
    publish(ClientId{static_cast<std::int32_t>(id)}, TopicId{0}, 10);
  }
  (void)manager_.collect_reports();
  EXPECT_EQ(manager_.known_publisher_count(TopicId{0}), kCap);
}

TEST_F(RegionManagerTest, PublishersSortedDeterministically) {
  publish(TinyWorld::kNearB, TopicId{0}, 10);
  publish(TinyWorld::kNearA, TopicId{0}, 10);
  publish(TinyWorld::kNearC, TopicId{0}, 10);
  const auto reports = manager_.collect_reports().reports;
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].publishers.size(), 3u);
  EXPECT_LT(reports[0].publishers[0].client, reports[0].publishers[1].client);
  EXPECT_LT(reports[0].publishers[1].client, reports[0].publishers[2].client);
}

TEST_F(RegionManagerTest, ApplyConfigNotifiesSubscribersAndKnownPublishers) {
  publish(TinyWorld::kNearA, TopicId{0}, 100);
  subscribe(TinyWorld::kNearA2, TopicId{0});
  (void)manager_.collect_reports();  // learns the publisher

  core::TopicConfig config{geo::RegionSet(0b011), core::DeliveryMode::kRouted};
  manager_.apply_config(TopicId{0}, config);
  sim_.run();

  ASSERT_EQ(inbox_[TinyWorld::kNearA2].size(), 1u);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].type,
            wire::MessageType::kConfigUpdate);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].config_regions.mask(), 0b011u);
  EXPECT_EQ(inbox_[TinyWorld::kNearA2][0].config_mode, wire::WireMode::kRouted);
  // The publisher heard about it too.
  ASSERT_EQ(inbox_[TinyWorld::kNearA].size(), 1u);
  // Uninvolved clients heard nothing.
  EXPECT_TRUE(inbox_[TinyWorld::kNearC].empty());
}

TEST_F(RegionManagerTest, NotifyClientSendsDirectedUpdate) {
  core::TopicConfig config{geo::RegionSet(0b100), core::DeliveryMode::kDirect};
  manager_.notify_client(TopicId{3}, config, TinyWorld::kNearC);
  sim_.run();
  ASSERT_EQ(inbox_[TinyWorld::kNearC].size(), 1u);
  EXPECT_EQ(inbox_[TinyWorld::kNearC][0].topic, TopicId{3});
  EXPECT_EQ(inbox_[TinyWorld::kNearC][0].config_regions.mask(), 0b100u);
}

TEST_F(RegionManagerTest, ScalerSizesPoolFromEgressLoad) {
  // Default capacity is 1 MiB per interval; 2 MiB inbound fanned out to one
  // subscriber needs > 1 server.
  subscribe(TinyWorld::kNearA2, TopicId{0});
  for (int i = 0; i < 4; ++i) {
    publish(TinyWorld::kNearA, TopicId{0}, 512 * 1024);
  }
  (void)manager_.collect_reports();
  EXPECT_GE(manager_.provisioned_servers(), 2);
  EXPECT_NE(manager_.scaler().server_of(TopicId{0}), -1);

  // Idle interval: pool shrinks back.
  (void)manager_.collect_reports();
  EXPECT_EQ(manager_.provisioned_servers(), 1);
}

TEST_F(RegionManagerTest, LatencyReportsDrainOnce) {
  wire::Message report;
  report.type = wire::MessageType::kLatencyReport;
  report.subscriber = TinyWorld::kNearB;
  report.published_at = 17.5;
  manager_.broker().handle(report);

  const auto first = manager_.collect_latency_reports();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].client, TinyWorld::kNearB);
  EXPECT_DOUBLE_EQ(first[0].one_way_ms, 17.5);
  EXPECT_TRUE(manager_.collect_latency_reports().empty());
}

}  // namespace
}  // namespace multipub::broker
