#include "client/subscriber.h"

#include "common/assert.h"

namespace multipub::client {

Subscriber::Subscriber(ClientId id, net::Clock& clock, net::Bus& bus,
                       const geo::ClientLatencyMap& latencies)
    : id_(id),
      clock_(&clock),
      bus_(&bus),
      latencies_(&latencies),
      prober_(id, clock, bus) {
  MP_EXPECTS(id.valid());
  bus.register_handler(net::Address::client(id),
                       [this](const wire::Message& msg) { handle(msg); });
}

void Subscriber::subscribe(TopicId topic, const core::TopicConfig& config,
                           wire::KeyFilter filter) {
  MP_EXPECTS(!config.regions.empty());
  filters_[topic] = filter;
  attach(topic, latencies_->closest_region(id_, config.regions));
}

void Subscriber::unsubscribe(TopicId topic) {
  const auto it = attachments_.find(topic);
  if (it == attachments_.end()) return;

  wire::Message msg;
  msg.type = wire::MessageType::kUnsubscribe;
  msg.topic = topic;
  msg.subscriber = id_;
  bus_->send(net::Address::client(id_), net::Address::region(it->second),
                   msg);
  attachments_.erase(it);
  filters_.erase(topic);
}

RegionId Subscriber::attached_region(TopicId topic) const {
  const auto it = attachments_.find(topic);
  return it == attachments_.end() ? RegionId::invalid() : it->second;
}

std::vector<Millis> Subscriber::delivery_times() const {
  std::vector<Millis> out;
  out.reserve(deliveries_.size());
  for (const auto& record : deliveries_) out.push_back(record.delivery_time);
  return out;
}

void Subscriber::attach(TopicId topic, RegionId region) {
  const auto it = attachments_.find(topic);
  if (it != attachments_.end() && it->second != region) {
    // Reconnection (paper §III-A5), make-before-break: join the new region
    // now, leave the old one after the grace period so in-flight
    // publications still land somewhere that knows us.
    const RegionId old_region = it->second;
    ++reconnects_;
    clock_->schedule_after(wire::kHandoverGraceMs, [this, topic, old_region] {
      const auto current = attachments_.find(topic);
      if (current != attachments_.end() && current->second == old_region) {
        return;  // flapped back during the grace period: still attached
      }
      wire::Message unsub;
      unsub.type = wire::MessageType::kUnsubscribe;
      unsub.topic = topic;
      unsub.subscriber = id_;
      bus_->send(net::Address::client(id_),
                       net::Address::region(old_region), unsub);
    });
  }

  wire::Message sub;
  sub.type = wire::MessageType::kSubscribe;
  sub.topic = topic;
  sub.subscriber = id_;
  if (const auto filter_it = filters_.find(topic);
      filter_it != filters_.end()) {
    sub.filter = filter_it->second;  // content filter survives reconnections
  }
  bus_->send(net::Address::client(id_), net::Address::region(region),
                   sub);
  attachments_[topic] = region;
  // Every (re)attach restarts gap tracking at the ring's origin: the broker
  // we now face may be a crashed-and-rebuilt one with fresh numbering, and
  // starting at 1 means even a loss of the very first delivery is detected.
  if (reliable_) cursors_[topic].reset();
}

std::uint64_t Subscriber::unique_count(TopicId topic) const {
  const auto it = seen_.find(topic);
  if (it == seen_.end()) return 0;
  std::uint64_t count = 0;
  for (const auto& [publisher, seqs] : it->second) count += seqs.size();
  return count;
}

bool Subscriber::matches_all(TopicId topic) const {
  const auto it = filters_.find(topic);
  return it != filters_.end() && it->second.match_all();
}

void Subscriber::request_replay(TopicId topic, std::uint64_t from) {
  const auto it = attachments_.find(topic);
  if (it == attachments_.end()) return;
  wire::Message req;
  req.type = wire::MessageType::kReplayRequest;
  req.topic = topic;
  req.subscriber = id_;
  req.delivery_seq = from;
  bus_->send(net::Address::client(id_), net::Address::region(it->second),
             req);
}

void Subscriber::reconnect(RegionId region) {
  for (const auto& [topic, attached] : attachments_) {
    // Same-region re-attach: an idempotent kSubscribe upsert on the broker
    // (which may have just been rebuilt empty) plus a next_seq reset here.
    if (attached == region) attach(topic, region);
  }
}

void Subscriber::sync_replay() {
  if (!reliable_) return;
  for (const auto& [topic, region] : attachments_) {
    request_replay(topic, cursors_[topic].next());
  }
}

void Subscriber::on_publication(const wire::Message& msg, bool replayed) {
  if (reliable_) {
    if (const auto from =
            cursors_[msg.topic].arrive(msg.delivery_seq, replayed)) {
      request_replay(msg.topic, *from);
    }
  }
  // Handover overlap (and replay) can deliver the same publication twice;
  // the (topic, publisher, seq) identity — never the broker's ring stamp —
  // decides what counts, so a rebuilt broker's fresh numbering cannot turn
  // old publications into new ones.
  if (!seen_[msg.topic][msg.publisher].insert(msg.seq)) {
    ++duplicates_;
    if (dedup_enabled_) return;
    ++recorded_duplicates_;  // negative hook: let the oracle see it
  }
  DeliveryRecord record;
  record.topic = msg.topic;
  record.publisher = msg.publisher;
  record.seq = msg.seq;
  record.delivery_time = clock_->now() - msg.published_at;
  deliveries_.push_back(record);
}

void Subscriber::handle(const wire::Message& msg) {
  if (prober_.on_message(msg)) return;
  switch (msg.type) {
    case wire::MessageType::kDeliver:
      on_publication(msg, /*replayed=*/false);
      break;
    case wire::MessageType::kReplayBatch:
      on_publication(msg, /*replayed=*/true);
      break;
    case wire::MessageType::kConfigUpdate: {
      // Only react if we are subscribed to the topic.
      if (attachments_.find(msg.topic) == attachments_.end()) break;
      attach(msg.topic, latencies_->closest_region(id_, msg.config_regions));
      break;
    }
    default:
      break;
  }
}

}  // namespace multipub::client
