#include "core/topic_store.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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

// A naive oracle for the store's merge and reverse index: every rebuild
// re-merges the views through std::map / std::set and re-inserts every
// participant into the index.
class OracleStore {
 public:
  void apply_report(RegionId region, TopicId topic,
                    std::vector<PublisherStats> publishers,
                    std::vector<ClientId> subscribers) {
    Entry& entry = entry_for(topic);
    std::sort(publishers.begin(), publishers.end(),
              [](const PublisherStats& a, const PublisherStats& b) {
                return a.client < b.client;
              });
    std::sort(subscribers.begin(), subscribers.end());
    const auto view = entry.views.find(region);
    if (view != entry.views.end() &&
        same_pubs(publishers, view->second.first) &&
        subscribers == view->second.second) {
      return;
    }
    if (publishers.empty() && subscribers.empty()) {
      if (view == entry.views.end()) return;
      entry.views.erase(view);
    } else {
      entry.views[region] = {std::move(publishers), std::move(subscribers)};
    }
    rebuild(topic, entry, nullptr);
  }

  void reconcile_region(RegionId region, const std::vector<TopicId>& alive) {
    const std::set<TopicId> keep(alive.begin(), alive.end());
    const DirtyReason refresh = DirtyReason::kRefresh;
    for (auto& [topic, entry] : entries_) {
      if (keep.count(topic) > 0) continue;
      if (entry.views.erase(region) == 0) continue;
      rebuild(topic, entry, &refresh);
    }
  }

  void touch_client(ClientId client, DirtyReason reason) {
    const auto it = client_topics_.find(client);
    if (it == client_topics_.end()) return;
    for (TopicId topic : it->second) entries_.at(topic).dirty |= reason_bit(reason);
  }

  void clear_dirty() {
    for (auto& [topic, entry] : entries_) entry.dirty = 0;
  }

  std::vector<TopicId> dirty_topics() const {
    std::vector<TopicId> out;
    for (const auto& [topic, entry] : entries_) {
      if (entry.dirty != 0) out.push_back(topic);
    }
    return out;
  }

  const TopicState* state(TopicId topic) const {
    const auto it = entries_.find(topic);
    return it == entries_.end() ? nullptr : &it->second.aggregate;
  }

  unsigned dirty_reasons(TopicId topic) const {
    const auto it = entries_.find(topic);
    return it == entries_.end() ? 0u : it->second.dirty;
  }

 private:
  struct Entry {
    std::map<RegionId, std::pair<std::vector<PublisherStats>,
                                 std::vector<ClientId>>> views;
    TopicState aggregate;
    std::set<ClientId> participants;
    unsigned dirty = 0;
  };

  static bool same_pubs(const std::vector<PublisherStats>& a,
                        const std::vector<PublisherStats>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].client != b[i].client || a[i].msg_count != b[i].msg_count ||
          a[i].total_bytes != b[i].total_bytes) {
        return false;
      }
    }
    return true;
  }

  Entry& entry_for(TopicId topic) {
    const auto [it, inserted] = entries_.try_emplace(topic);
    if (inserted) {
      it->second.aggregate.topic = topic;
      it->second.dirty |= reason_bit(DirtyReason::kNew);
    }
    return it->second;
  }

  void rebuild(TopicId topic, Entry& entry, const DirtyReason* reason) {
    std::map<ClientId, PublisherStats> pubs;
    std::set<ClientId> subs;
    for (const auto& [region, view] : entry.views) {
      for (const PublisherStats& pub : view.first) {
        const auto [it, inserted] = pubs.try_emplace(pub.client, pub);
        if (!inserted && pub.msg_count > it->second.msg_count) it->second = pub;
      }
      subs.insert(view.second.begin(), view.second.end());
    }
    std::vector<PublisherStats> new_pubs;
    for (const auto& [client, stats] : pubs) new_pubs.push_back(stats);
    const std::vector<SubscriberStats> new_subs =
        unit_subscribers(std::vector<ClientId>(subs.begin(), subs.end()));
    const bool traffic = !same_pubs(entry.aggregate.publishers, new_pubs);
    bool membership = entry.aggregate.subscribers.size() != new_subs.size();
    for (std::size_t i = 0; !membership && i < new_subs.size(); ++i) {
      membership = entry.aggregate.subscribers[i].client != new_subs[i].client;
    }
    if (!traffic && !membership) return;
    entry.aggregate.publishers = new_pubs;
    entry.aggregate.subscribers = new_subs;

    std::set<ClientId> now(subs);
    for (const auto& [client, stats] : pubs) now.insert(client);
    for (ClientId former : entry.participants) {
      if (now.count(former) > 0) continue;
      client_topics_[former].erase(topic);
      if (client_topics_[former].empty()) client_topics_.erase(former);
    }
    for (ClientId client : now) client_topics_[client].insert(topic);
    entry.participants = now;

    if (reason != nullptr) {
      entry.dirty |= reason_bit(*reason);
    } else {
      if (traffic) entry.dirty |= reason_bit(DirtyReason::kTraffic);
      if (membership) entry.dirty |= reason_bit(DirtyReason::kMembership);
    }
  }

  std::map<TopicId, Entry> entries_;
  std::map<ClientId, std::set<TopicId>> client_topics_;
};

void expect_same_state(const TopicStore& store, const OracleStore& oracle,
                       int n_topics) {
  for (int t = 0; t < n_topics; ++t) {
    const TopicId topic{t};
    SCOPED_TRACE("topic " + std::to_string(t));
    const TopicState* got = store.state(topic);
    const TopicState* want = oracle.state(topic);
    ASSERT_EQ(got == nullptr, want == nullptr);
    EXPECT_EQ(store.dirty_reasons(topic), oracle.dirty_reasons(topic));
    if (got == nullptr) continue;
    ASSERT_EQ(got->publishers.size(), want->publishers.size());
    for (std::size_t i = 0; i < want->publishers.size(); ++i) {
      EXPECT_EQ(got->publishers[i].client, want->publishers[i].client);
      EXPECT_EQ(got->publishers[i].msg_count, want->publishers[i].msg_count);
      EXPECT_EQ(got->publishers[i].total_bytes,
                want->publishers[i].total_bytes);
    }
    ASSERT_EQ(got->subscribers.size(), want->subscribers.size());
    for (std::size_t i = 0; i < want->subscribers.size(); ++i) {
      EXPECT_EQ(got->subscribers[i].client, want->subscribers[i].client);
      EXPECT_EQ(got->subscribers[i].weight, want->subscribers[i].weight);
    }
  }
  EXPECT_EQ(store.dirty_topics(), oracle.dirty_topics());
}

// Random report / reconcile / touch sequences: the store's linear merges and
// difference-only reindexing must match the naive oracle's aggregates, dirty
// masks and touch_client fan-out after every step. Few clients and small
// msg_counts make cross-region publisher ties and duplicates common.
TEST(TopicStore, MatchesNaiveOracleUnderRandomOperations) {
  constexpr int kTopics = 6;
  constexpr int kRegions = 4;
  constexpr int kClients = 16;
  Rng rng(20261019);
  for (int run = 0; run < 20; ++run) {
    TopicStore store;
    OracleStore oracle;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("run " + std::to_string(run) + " step " +
                   std::to_string(step));
      const auto pick = [&](int n) {
        return static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      };
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op < 7) {
        const RegionId region{pick(kRegions)};
        const TopicId topic{pick(kTopics)};
        std::vector<PublisherStats> pubs;
        std::vector<ClientId> subs;
        if (rng.uniform_int(0, 5) != 0) {  // else an empty report
          for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
            const auto count = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
            pubs.push_back({ClientId{pick(kClients)}, count,
                            count * static_cast<Bytes>(rng.uniform_int(1, 3))});
          }
          for (std::int64_t i = rng.uniform_int(0, 6); i > 0; --i) {
            subs.push_back(ClientId{pick(kClients)});
          }
        }
        store.apply_report(region, topic, pubs, subs);
        oracle.apply_report(region, topic, pubs, subs);
      } else if (op == 7) {
        const RegionId region{pick(kRegions)};
        std::vector<TopicId> alive;
        for (int t = 0; t < kTopics; ++t) {
          if (rng.uniform_int(0, 1) == 0) alive.push_back(TopicId{t});
        }
        store.reconcile_region(region, alive);
        oracle.reconcile_region(region, alive);
      } else if (op == 8) {
        store.clear_dirty();
        oracle.clear_dirty();
        const ClientId client{pick(kClients)};
        store.touch_client(client, DirtyReason::kLatency);
        oracle.touch_client(client, DirtyReason::kLatency);
      } else {
        store.clear_dirty();
        oracle.clear_dirty();
      }
      expect_same_state(store, oracle, kTopics);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace multipub::core
