#include "core/topic_store.h"

#include <gtest/gtest.h>

namespace multipub::core {
namespace {

constexpr TopicId kTopic{0};
constexpr RegionId kEast{0};
constexpr RegionId kWest{1};
constexpr ClientId kPub{10};
constexpr ClientId kPub2{11};
constexpr ClientId kSub{20};
constexpr ClientId kSub2{21};

TEST(TopicStore, FirstReportMarksTopicNew) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.dirty(kTopic));
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kNew), 0u);

  const TopicState* state = store.state(kTopic);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->publishers.size(), 1u);
  EXPECT_EQ(state->publishers[0].msg_count, 10u);
  ASSERT_EQ(state->subscribers.size(), 1u);
  EXPECT_EQ(state->subscribers[0].client, kSub);
}

TEST(TopicStore, IdenticalReportStaysClean) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  store.clear_dirty();
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  EXPECT_FALSE(store.dirty(kTopic));
  EXPECT_EQ(store.dirty_count(), 0u);
}

TEST(TopicStore, TrafficChangeDirtiesWithTrafficReason) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  store.clear_dirty();
  store.apply_report(kEast, kTopic, {{kPub, 25, 2500}}, {kSub});
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kTraffic),
            0u);
  EXPECT_EQ(store.state(kTopic)->publishers[0].msg_count, 25u);
}

TEST(TopicStore, NewPublisherDirtiesWithTrafficReason) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 100, 10000}}, {kSub});
  store.clear_dirty();
  // Same stats for the old publisher; the set itself grew.
  store.apply_report(kEast, kTopic, {{kPub, 100, 10000}, {kPub2, 1, 100}},
                     {kSub});
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kTraffic),
            0u);
  EXPECT_EQ(store.state(kTopic)->publishers.size(), 2u);
}

TEST(TopicStore, MembershipChangeDirtiesWithMembershipReason) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  store.clear_dirty();
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub, kSub2});
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kMembership),
            0u);
  EXPECT_EQ(store.state(kTopic)->subscribers.size(), 2u);
}

TEST(TopicStore, ConstraintDirtiesOnlyOnChange) {
  TopicStore store;
  store.set_constraint(kTopic, {95.0, 150.0});
  store.clear_dirty();
  store.set_constraint(kTopic, {95.0, 150.0});  // identical: no-op
  EXPECT_FALSE(store.dirty(kTopic));
  store.set_constraint(kTopic, {95.0, 120.0});
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kConstraint),
            0u);
}

TEST(TopicStore, CrossRegionMergeDedupsPublishersByMaxCount) {
  TopicStore store;
  // Under direct delivery both serving regions observe the same publisher;
  // the merge must not double-count it.
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  store.apply_report(kWest, kTopic, {{kPub, 8, 800}}, {kSub2});
  const TopicState* state = store.state(kTopic);
  ASSERT_EQ(state->publishers.size(), 1u);
  EXPECT_EQ(state->publishers[0].msg_count, 10u);  // max wins
  ASSERT_EQ(state->subscribers.size(), 2u);        // union
}

TEST(TopicStore, EmptyReportClearsRegionView) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {});
  store.apply_report(kWest, kTopic, {{kPub2, 5, 500}}, {kSub});
  store.clear_dirty();
  // East goes authoritatively silent: only West's view remains.
  store.apply_report(kEast, kTopic, {}, {});
  EXPECT_TRUE(store.dirty(kTopic));
  const TopicState* state = store.state(kTopic);
  ASSERT_EQ(state->publishers.size(), 1u);
  EXPECT_EQ(state->publishers[0].client, kPub2);
}

TEST(TopicStore, TouchClientDirtiesOnlyParticipatingTopics) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {kSub});
  store.apply_report(kEast, TopicId{1}, {{kPub2, 10, 1000}}, {kSub2});
  store.clear_dirty();

  store.touch_client(kSub, DirtyReason::kLatency);
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kLatency),
            0u);
  EXPECT_FALSE(store.dirty(TopicId{1}));

  store.touch_client(ClientId{999}, DirtyReason::kLatency);  // unknown: no-op
  EXPECT_EQ(store.dirty_count(), 1u);
}

TEST(TopicStore, ReconcileDropsViewsMissingFromFullSnapshot) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {});
  store.apply_report(kEast, TopicId{1}, {{kPub2, 5, 500}}, {});
  store.clear_dirty();

  // The full snapshot only mentions topic 1: topic 0's east view is stale
  // (e.g. its delta was lost) and gets dropped.
  store.reconcile_region(kEast, {TopicId{1}});
  EXPECT_NE(store.dirty_reasons(kTopic) & reason_bit(DirtyReason::kRefresh),
            0u);
  EXPECT_TRUE(store.state(kTopic)->publishers.empty());
  EXPECT_FALSE(store.dirty(TopicId{1}));
}

TEST(TopicStore, MarkAllAndClearDirty) {
  TopicStore store;
  store.apply_report(kEast, kTopic, {{kPub, 10, 1000}}, {});
  store.apply_report(kEast, TopicId{1}, {{kPub2, 5, 500}}, {});
  store.clear_dirty();
  EXPECT_EQ(store.dirty_count(), 0u);

  store.mark_all_dirty(DirtyReason::kAvailability);
  EXPECT_EQ(store.dirty_count(), 2u);
  EXPECT_EQ(store.dirty_topics(), (std::vector<TopicId>{kTopic, TopicId{1}}));
  store.clear_dirty();
  EXPECT_EQ(store.dirty_reasons(kTopic), 0u);
}

}  // namespace
}  // namespace multipub::core
