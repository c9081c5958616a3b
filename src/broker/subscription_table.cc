#include "broker/subscription_table.h"

#include <algorithm>

namespace multipub::broker {
namespace {
const std::vector<Subscription> kEmpty;

[[nodiscard]] auto find_subscriber(std::vector<Subscription>& subs,
                                   ClientId subscriber) {
  return std::find_if(subs.begin(), subs.end(),
                      [subscriber](const Subscription& s) {
                        return s.subscriber == subscriber;
                      });
}

}  // namespace

bool SubscriptionTable::subscribe(TopicId topic, ClientId subscriber,
                                  wire::KeyFilter filter) {
  auto& subs = table_[topic];
  if (const auto it = find_subscriber(subs, subscriber); it != subs.end()) {
    it->filter = filter;  // refresh the filter, keep the position
    return false;
  }
  subs.push_back({subscriber, filter});
  return true;
}

bool SubscriptionTable::unsubscribe(TopicId topic, ClientId subscriber) {
  const auto it = table_.find(topic);
  if (it == table_.end()) return false;
  auto& subs = it->second;
  const auto pos = find_subscriber(subs, subscriber);
  if (pos == subs.end()) return false;
  subs.erase(pos);
  if (subs.empty()) table_.erase(it);
  return true;
}

const std::vector<Subscription>& SubscriptionTable::subscriptions(
    TopicId topic) const {
  const auto it = table_.find(topic);
  return it == table_.end() ? kEmpty : it->second;
}

std::vector<ClientId> SubscriptionTable::subscriber_ids(TopicId topic) const {
  const auto& subs = subscriptions(topic);
  std::vector<ClientId> out;
  out.reserve(subs.size());
  for (const auto& s : subs) out.push_back(s.subscriber);
  return out;
}

const Subscription* SubscriptionTable::find(TopicId topic,
                                            ClientId subscriber) const {
  const auto& subs = subscriptions(topic);
  const auto it = std::find_if(subs.begin(), subs.end(),
                               [subscriber](const Subscription& s) {
                                 return s.subscriber == subscriber;
                               });
  return it == subs.end() ? nullptr : &*it;
}

std::size_t SubscriptionTable::topic_count() const { return table_.size(); }

std::size_t SubscriptionTable::subscription_count() const {
  std::size_t n = 0;
  for (const auto& [topic, subs] : table_) n += subs.size();
  return n;
}

std::vector<TopicId> SubscriptionTable::topics() const {
  std::vector<TopicId> out;
  out.reserve(table_.size());
  for (const auto& [topic, subs] : table_) out.push_back(topic);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace multipub::broker
