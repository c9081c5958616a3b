// Publisher/Subscriber endpoint unit tests (the live suites cover them
// end-to-end; these pin the per-endpoint behaviours in isolation).
#include <gtest/gtest.h>

#include <map>

#include "client/publisher.h"
#include "client/subscriber.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::client {
namespace {

using testutil::TinyWorld;

class ClientEndpointTest : public ::testing::Test {
 protected:
  ClientEndpointTest() {
    for (int r = 0; r < 3; ++r) {
      transport_.register_handler(
          net::Address::region(RegionId{r}),
          [this, r](const wire::Message& msg) {
            region_inbox_[RegionId{r}].push_back(msg);
          });
    }
  }

  static core::TopicConfig config(std::uint64_t mask, core::DeliveryMode mode) {
    return {geo::RegionSet(mask), mode};
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  std::map<RegionId, std::vector<wire::Message>> region_inbox_;
};

TEST_F(ClientEndpointTest, DirectPublishFansOutToEveryServingRegion) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b111, core::DeliveryMode::kDirect));
  pub.publish(TopicId{0}, 512);
  sim_.run();
  EXPECT_EQ(region_inbox_[TinyWorld::kA].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kB].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kA][0].config_mode,
            wire::WireMode::kDirect);
}

TEST_F(ClientEndpointTest, RoutedPublishTargetsClosestServingRegionOnly) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  // Closest of {B, C} for nearA ([10,100,80]) is C.
  pub.set_config(TopicId{0}, config(0b110, core::DeliveryMode::kRouted));
  pub.publish(TopicId{0}, 512);
  sim_.run();
  EXPECT_TRUE(region_inbox_[TinyWorld::kA].empty());
  EXPECT_TRUE(region_inbox_[TinyWorld::kB].empty());
  ASSERT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC][0].config_mode,
            wire::WireMode::kRouted);
}

TEST_F(ClientEndpointTest, SequenceNumbersAreMonotonePerPublisher) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b001, core::DeliveryMode::kDirect));
  for (int i = 0; i < 5; ++i) pub.publish(TopicId{0}, 64);
  sim_.run();
  const auto& msgs = region_inbox_[TinyWorld::kA];
  ASSERT_EQ(msgs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(msgs[i].seq, i);
  EXPECT_EQ(pub.published_count(), 5u);
}

TEST_F(ClientEndpointTest, FirstConfigUpdateAppliesImmediately) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{0};
  update.config_regions = geo::RegionSet(0b010);
  update.config_mode = wire::WireMode::kDirect;
  transport_.send(net::Address::region(TinyWorld::kA),
                  net::Address::client(TinyWorld::kNearA), update);
  sim_.run();
  ASSERT_NE(pub.config(TopicId{0}), nullptr);
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b010u);
}

TEST_F(ClientEndpointTest, SubsequentConfigUpdateDefersByGrace) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  pub.set_config(TopicId{0}, config(0b001, core::DeliveryMode::kDirect));

  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{0};
  update.config_regions = geo::RegionSet(0b010);
  update.config_mode = wire::WireMode::kDirect;
  transport_.send(net::Address::region(TinyWorld::kA),
                  net::Address::client(TinyWorld::kNearA), update);

  // Update arrives at L[nearA][A] = 10 ms; applies one grace later.
  sim_.run_until(wire::kHandoverGraceMs);
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b001u);
  sim_.run();
  EXPECT_EQ(pub.config(TopicId{0})->regions.mask(), 0b010u);
}

TEST_F(ClientEndpointTest, SubscriberRecordsDeliveryLatency) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  wire::Message deliver;
  deliver.type = wire::MessageType::kDeliver;
  deliver.topic = TopicId{0};
  deliver.publisher = TinyWorld::kNearA;
  deliver.seq = 9;
  deliver.published_at = 0.0;
  transport_.send(net::Address::region(TinyWorld::kB),
                  net::Address::client(TinyWorld::kNearB), deliver);
  sim_.run();
  ASSERT_EQ(sub.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(sub.deliveries()[0].delivery_time, 15.0);  // L[nearB][B]
  EXPECT_EQ(sub.deliveries()[0].seq, 9u);
}

TEST_F(ClientEndpointTest, SubscriberIgnoresUpdatesForUnknownTopics) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = TopicId{42};  // never subscribed
  update.config_regions = geo::RegionSet(0b001);
  transport_.send(net::Address::region(TinyWorld::kB),
                  net::Address::client(TinyWorld::kNearB), update);
  sim_.run();
  EXPECT_FALSE(sub.attached_region(TopicId{42}).valid());
}

TEST_F(ClientEndpointTest, UnsubscribeClearsAttachmentAndFilter) {
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  sub.subscribe(TopicId{0}, config(0b010, core::DeliveryMode::kDirect),
                wire::KeyFilter{1, 2});
  sim_.run();
  EXPECT_EQ(sub.attached_region(TopicId{0}), TinyWorld::kB);

  sub.unsubscribe(TopicId{0});
  sim_.run();
  EXPECT_FALSE(sub.attached_region(TopicId{0}).valid());
  ASSERT_EQ(region_inbox_[TinyWorld::kB].size(), 2u);
  EXPECT_EQ(region_inbox_[TinyWorld::kB][1].type,
            wire::MessageType::kUnsubscribe);
}

TEST_F(ClientEndpointTest, ProberWorksForBothEndpointKinds) {
  Publisher pub(TinyWorld::kNearA, sim_, transport_, world_.clients);
  Subscriber sub(TinyWorld::kNearB, sim_, transport_, world_.clients);
  // No broker behind the region addresses here; pings land in the region
  // inbox. Just assert the sends happen (pong handling is covered by the
  // latency-monitoring integration suite).
  pub.probe_latencies(geo::RegionSet(0b011));
  sub.probe_latencies(geo::RegionSet(0b100));
  sim_.run();
  EXPECT_EQ(pub.prober().pings_sent(), 2u);
  EXPECT_EQ(sub.prober().pings_sent(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC].size(), 1u);
  EXPECT_EQ(region_inbox_[TinyWorld::kC][0].type, wire::MessageType::kPing);
}

}  // namespace
}  // namespace multipub::client
