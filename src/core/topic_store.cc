#include "core/topic_store.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "common/assert.h"

namespace multipub::core {

namespace {

bool same_publishers(const std::vector<PublisherStats>& a,
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

bool same_subscribers(const std::vector<SubscriberStats>& a,
                      const std::vector<SubscriberStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].client != b[i].client || a[i].weight != b[i].weight ||
        a[i].selectivity != b[i].selectivity) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* to_string(DirtyReason reason) {
  switch (reason) {
    case DirtyReason::kNew: return "new";
    case DirtyReason::kTraffic: return "traffic";
    case DirtyReason::kMembership: return "membership";
    case DirtyReason::kConstraint: return "constraint";
    case DirtyReason::kAvailability: return "availability";
    case DirtyReason::kLatency: return "latency";
    case DirtyReason::kRefresh: return "refresh";
    case DirtyReason::kForced: return "forced";
  }
  return "?";
}

TopicStore::Entry& TopicStore::entry_for(TopicId topic) {
  const auto [it, inserted] = entries_.try_emplace(topic);
  if (inserted) {
    it->second.aggregate.topic = topic;
    mark(topic, it->second, DirtyReason::kNew);
  }
  return it->second;
}

void TopicStore::mark(TopicId topic, Entry& entry, DirtyReason reason) {
  entry.dirty |= reason_bit(reason);
  dirty_.insert(topic);
}

void TopicStore::mark_dirty(TopicId topic, DirtyReason reason) {
  const auto it = entries_.find(topic);
  if (it == entries_.end()) return;
  mark(topic, it->second, reason);
}

void TopicStore::mark_all_dirty(DirtyReason reason) {
  for (auto& [topic, entry] : entries_) {
    mark(topic, entry, reason);
  }
}

void TopicStore::clear_dirty() {
  for (TopicId topic : dirty_) {
    entries_.at(topic).dirty = 0;
  }
  dirty_.clear();
}

void TopicStore::set_constraint(TopicId topic,
                                const DeliveryConstraint& constraint) {
  MP_EXPECTS(constraint.ratio > 0.0 && constraint.ratio <= 100.0);
  Entry& entry = entry_for(topic);
  if (entry.aggregate.constraint == constraint) return;
  entry.aggregate.constraint = constraint;
  mark(topic, entry, DirtyReason::kConstraint);
}

void TopicStore::apply_report(RegionId region, TopicId topic,
                              const std::vector<PublisherStats>& publishers,
                              const std::vector<ClientId>& subscribers) {
  Entry& entry = entry_for(topic);

  RegionView incoming;
  incoming.publishers = publishers;
  std::sort(incoming.publishers.begin(), incoming.publishers.end(),
            [](const PublisherStats& a, const PublisherStats& b) {
              return a.client < b.client;
            });
  incoming.subscribers = subscribers;
  std::sort(incoming.subscribers.begin(), incoming.subscribers.end());

  const auto view_it = entry.views.find(region);
  if (view_it != entry.views.end() &&
      same_publishers(incoming.publishers, view_it->second.publishers) &&
      incoming.subscribers == view_it->second.subscribers) {
    return;  // nothing changed for this region
  }

  if (incoming.publishers.empty() && incoming.subscribers.empty()) {
    if (view_it == entry.views.end()) return;
    entry.views.erase(view_it);
  } else {
    entry.views[region] = std::move(incoming);
  }
  rebuild_aggregate(topic, entry);
}

void TopicStore::reconcile_region(RegionId region,
                                  const std::vector<TopicId>& reported) {
  const std::set<TopicId> alive(reported.begin(), reported.end());
  const DirtyReason refresh = DirtyReason::kRefresh;
  for (auto& [topic, entry] : entries_) {
    if (alive.count(topic) > 0) continue;
    const auto view_it = entry.views.find(region);
    if (view_it == entry.views.end()) continue;
    entry.views.erase(view_it);
    rebuild_aggregate(topic, entry, &refresh);
  }
}

void TopicStore::touch_client(ClientId client, DirtyReason reason) {
  const auto it = client_topics_.find(client);
  if (it == client_topics_.end()) return;
  for (TopicId topic : it->second) {
    mark_dirty(topic, reason);
  }
}

void TopicStore::rebuild_aggregate(TopicId topic, Entry& entry,
                                   const DirtyReason* override_reason) {
  // Cross-region merge of the views, each already sorted by client, in
  // region order. std::inplace_merge is stable, so a client's publisher
  // entries stay in region order: the first region's entry stands and a
  // later one replaces it only with a strictly larger msg_count (under
  // direct delivery every serving region observes the same publications).
  const auto by_client = [](const PublisherStats& a, const PublisherStats& b) {
    return a.client < b.client;
  };
  std::vector<PublisherStats> new_pubs;
  std::vector<ClientId> merged_subs;
  for (const auto& [region, view] : entry.views) {
    const auto pubs_mid = static_cast<std::ptrdiff_t>(new_pubs.size());
    new_pubs.insert(new_pubs.end(), view.publishers.begin(),
                    view.publishers.end());
    std::inplace_merge(new_pubs.begin(), new_pubs.begin() + pubs_mid,
                       new_pubs.end(), by_client);
    const auto subs_mid = static_cast<std::ptrdiff_t>(merged_subs.size());
    merged_subs.insert(merged_subs.end(), view.subscribers.begin(),
                       view.subscribers.end());
    std::inplace_merge(merged_subs.begin(), merged_subs.begin() + subs_mid,
                       merged_subs.end());
  }
  std::size_t kept = 0;
  for (const PublisherStats& pub : new_pubs) {
    if (kept > 0 && new_pubs[kept - 1].client == pub.client) {
      if (pub.msg_count > new_pubs[kept - 1].msg_count) {
        new_pubs[kept - 1] = pub;
      }
    } else {
      new_pubs[kept++] = pub;
    }
  }
  new_pubs.resize(kept);
  merged_subs.erase(std::unique(merged_subs.begin(), merged_subs.end()),
                    merged_subs.end());
  std::vector<SubscriberStats> new_subs = unit_subscribers(merged_subs);

  const bool traffic_changed =
      !same_publishers(entry.aggregate.publishers, new_pubs);
  const bool membership_changed =
      !same_subscribers(entry.aggregate.subscribers, new_subs);
  if (!traffic_changed && !membership_changed) return;

  entry.aggregate.publishers = std::move(new_pubs);
  entry.aggregate.subscribers = std::move(new_subs);
  reindex_participants(topic, entry);

  if (override_reason != nullptr) {
    mark(topic, entry, *override_reason);
  } else {
    if (traffic_changed) mark(topic, entry, DirtyReason::kTraffic);
    if (membership_changed) mark(topic, entry, DirtyReason::kMembership);
  }
}

void TopicStore::reindex_participants(TopicId topic, Entry& entry) {
  // Both aggregate lists are sorted by client and duplicate-free, so the
  // participants are one linear merge, and only the clients that left or
  // joined touch the reverse index.
  std::vector<ClientId> now;
  now.reserve(entry.aggregate.publishers.size() +
              entry.aggregate.subscribers.size());
  for (const PublisherStats& pub : entry.aggregate.publishers) {
    now.push_back(pub.client);
  }
  const auto subs_mid = static_cast<std::ptrdiff_t>(now.size());
  for (const SubscriberStats& sub : entry.aggregate.subscribers) {
    now.push_back(sub.client);
  }
  std::inplace_merge(now.begin(), now.begin() + subs_mid, now.end());
  now.erase(std::unique(now.begin(), now.end()), now.end());

  std::vector<ClientId> left;
  std::set_difference(entry.participants.begin(), entry.participants.end(),
                      now.begin(), now.end(), std::back_inserter(left));
  for (ClientId former : left) {
    const auto it = client_topics_.find(former);
    if (it == client_topics_.end()) continue;
    it->second.erase(topic);
    if (it->second.empty()) client_topics_.erase(it);
  }
  std::vector<ClientId> joined;
  std::set_difference(now.begin(), now.end(), entry.participants.begin(),
                      entry.participants.end(), std::back_inserter(joined));
  for (ClientId client : joined) {
    client_topics_[client].insert(topic);
  }
  entry.participants = std::move(now);
}

const TopicState* TopicStore::state(TopicId topic) const {
  const auto it = entries_.find(topic);
  return it == entries_.end() ? nullptr : &it->second.aggregate;
}

std::vector<TopicId> TopicStore::topic_ids() const {
  std::vector<TopicId> out;
  out.reserve(entries_.size());
  for (const auto& [topic, entry] : entries_) {
    out.push_back(topic);
  }
  return out;
}

std::vector<TopicId> TopicStore::dirty_topics() const {
  return std::vector<TopicId>(dirty_.begin(), dirty_.end());
}

unsigned TopicStore::dirty_reasons(TopicId topic) const {
  const auto it = entries_.find(topic);
  return it == entries_.end() ? 0u : it->second.dirty;
}

}  // namespace multipub::core
