// Topic -> subscriber mapping of one broker.
//
// Topic-based matching is "a simple lookup operation" (paper §III-D); this
// is that lookup. Each subscription optionally carries a content KeyFilter
// (the content-based extension of the paper's §VII): a publication is
// delivered to a subscriber only when its key matches the filter. Insertion
// is idempotent (re-subscribing replaces the filter) and removal tolerates
// absent entries, so retried control messages are harmless.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "wire/message.h"

namespace multipub::broker {

/// One subscriber's registration on a topic.
struct Subscription {
  ClientId subscriber;
  wire::KeyFilter filter;
};

class SubscriptionTable {
 public:
  /// Adds (or re-registers) `subscriber` on `topic`; returns false when the
  /// subscriber was already present (its filter is updated regardless).
  bool subscribe(TopicId topic, ClientId subscriber,
                 wire::KeyFilter filter = wire::KeyFilter::all());

  /// Removes `subscriber` from `topic`; returns false when absent.
  bool unsubscribe(TopicId topic, ClientId subscriber);

  /// Subscriptions of `topic` in subscription order (empty when none).
  [[nodiscard]] const std::vector<Subscription>& subscriptions(
      TopicId topic) const;

  /// Just the subscriber ids, in subscription order. Builds a fresh vector
  /// on every call — reach for the by-reference subscriptions() view
  /// instead unless you genuinely need an owned ClientId vector (e.g. a
  /// report that outlives the table's current state).
  [[nodiscard]] std::vector<ClientId> subscriber_ids(TopicId topic) const;

  /// `subscriber`'s registration on `topic`, nullptr when absent. Valid
  /// until the table's next mutation.
  [[nodiscard]] const Subscription* find(TopicId topic,
                                         ClientId subscriber) const;
  [[nodiscard]] bool contains(TopicId topic, ClientId subscriber) const {
    return find(topic, subscriber) != nullptr;
  }
  [[nodiscard]] std::size_t topic_count() const;
  [[nodiscard]] std::size_t subscription_count() const;

  /// Topics that currently have at least one subscriber, ascending.
  [[nodiscard]] std::vector<TopicId> topics() const;

  /// Drops every subscription (a crashed broker loses its table; the
  /// Clone-pattern standby re-seeds it, DESIGN.md §15).
  void clear() { table_.clear(); }

 private:
  std::unordered_map<TopicId, std::vector<Subscription>> table_;
};

}  // namespace multipub::broker
