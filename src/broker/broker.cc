#include "broker/broker.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/logging.h"
#include "wire/topic_config.h"

namespace multipub::broker {

Broker::Broker(RegionId self, net::Clock& clock, net::Bus& bus)
    : self_(self), clock_(&clock), bus_(&bus) {
  MP_EXPECTS(self.valid());
  bus.register_handler(net::Address::region(self),
                       [this](const wire::Message& msg) { handle(msg); });
}

void Broker::set_topic_config(TopicId topic, const core::TopicConfig& config) {
  MP_EXPECTS(!config.regions.empty());
  if (const auto it = configs_.find(topic);
      it != configs_.end() && !(it->second == config)) {
    // Reconfiguration: keep the outgoing fan-out covering the previous
    // serving set until clients have finished their handover.
    Drain& drain = draining_[topic];
    drain.regions = drain.regions | it->second.regions;
    drain.until = clock_->now() + wire::kHandoverGraceMs;
    clock_->schedule_after(wire::kHandoverGraceMs, [this, topic] {
      const auto drain_it = draining_.find(topic);
      if (drain_it != draining_.end() &&
          clock_->now() >= drain_it->second.until) {
        draining_.erase(drain_it);
      }
    });
  }
  configs_[topic] = config;
  if (reliable_) {
    wire::Message delta;
    delta.topic = topic;
    delta.subscriber = ClientId{-1};  // config entry, not a subscription
    wire::set_config(delta, config);
    delta.seq = 1;  // upsert
    emit_state_delta(delta);
  }
}

geo::RegionSet Broker::draining_regions(TopicId topic) const {
  const auto it = draining_.find(topic);
  return it == draining_.end() ? geo::RegionSet{} : it->second.regions;
}

const core::TopicConfig* Broker::topic_config(TopicId topic) const {
  const auto it = configs_.find(topic);
  return it == configs_.end() ? nullptr : &it->second;
}

void Broker::handle(const wire::Message& msg) {
  switch (msg.type) {
    case wire::MessageType::kSubscribe:
      if (bus_->cohort_directory() != nullptr) {
        // Cohort plane: msg.subscriber carries a flock id, and msg.seq says
        // whether this attach changes the region's member set (the pool
        // mirrors the per-client table transitions exactly; a re-attach to
        // the same region arrives with seq 0, like the idempotent
        // re-subscribe below).
        (void)subs_.subscribe(msg.topic, msg.subscriber, msg.filter);
        if (msg.seq != 0) membership_changed_.insert(msg.topic);
      } else if (subs_.subscribe(msg.topic, msg.subscriber, msg.filter)) {
        membership_changed_.insert(msg.topic);
      }
      if (reliable_) {
        // Upsert delta: re-subscribes replace the filter on the primary, so
        // the replica applies the same upsert and the tables stay mirrored.
        // The delta inherits the subscribe's weight: a weighted cohort
        // subscribe stands for that many per-client subscribes, and the
        // replication stream must bill like the per-client expansion would.
        wire::Message delta;
        delta.topic = msg.topic;
        delta.subscriber = msg.subscriber;
        delta.filter = msg.filter;
        delta.weight = msg.weight;
        delta.seq = 1;  // add/upsert
        emit_state_delta(delta);
      }
      break;
    case wire::MessageType::kUnsubscribe: {
      bool erased = false;
      const Subscription* kept = nullptr;
      if (const net::CohortDirectory* dir = bus_->cohort_directory();
          dir != nullptr) {
        // A flock entry outlives single-member departures: it goes away
        // only when nobody is left behind it or the flock re-attached
        // elsewhere — the exact moments the per-client table would have
        // dropped its last member entry for this region.
        const std::int32_t flock = msg.subscriber.value();
        if (const Subscription* entry = subs_.find(msg.topic, msg.subscriber);
            entry != nullptr) {
          membership_changed_.insert(msg.topic);
          if (dir->flock_weight(flock) == 0 ||
              dir->flock_attachment(flock) != self_) {
            erased = subs_.unsubscribe(msg.topic, msg.subscriber);
          } else {
            kept = entry;
          }
        }
      } else if (subs_.unsubscribe(msg.topic, msg.subscriber)) {
        membership_changed_.insert(msg.topic);
        erased = true;
      }
      if (reliable_ && (erased || kept != nullptr)) {
        // One delta per departure, weighted like the per-client expansion's
        // removals. A flock entry that stays behind is restated as an
        // upsert: the replica keeps it, and state_seq moves exactly as the
        // per-client member's removal would move it.
        wire::Message delta;
        delta.topic = msg.topic;
        delta.subscriber = msg.subscriber;
        delta.weight = msg.weight;
        if (kept != nullptr) {
          delta.filter = kept->filter;
          delta.seq = 1;  // upsert of the kept entry
        } else {
          delta.seq = 0;  // remove
        }
        emit_state_delta(delta);
      }
      break;
    }
    case wire::MessageType::kPublish:
      on_publish(msg);
      break;
    case wire::MessageType::kForward:
      if (reliable_) {
        on_reliable_arrival(msg, /*from_replay=*/false);
      } else {
        deliver_locally(msg);
      }
      break;
    case wire::MessageType::kReplayRequest:
      if (reliable_) on_replay_request(msg);
      break;
    case wire::MessageType::kReplayBatch:
      // Broker-bound replay: a peer's catch-up answer. Client-bound batches
      // go to client/cohort addresses and never reach a broker.
      if (reliable_) on_reliable_arrival(msg, /*from_replay=*/true);
      break;
    case wire::MessageType::kStateSnapshot:
      if (reliable_) on_state_snapshot(msg);
      break;
    case wire::MessageType::kStateDelta:
      if (reliable_) on_state_delta(msg);
      break;
    case wire::MessageType::kPing: {
      // Latency probe: echo it back so the client can measure the RTT.
      wire::Message pong = msg;
      pong.type = wire::MessageType::kPong;
      bus_->send(net::Address::region(self_),
                       net::Address::client(msg.subscriber), pong);
      break;
    }
    case wire::MessageType::kLatencyReport:
      latency_reports_.push_back({msg.subscriber, msg.published_at});
      break;
    case wire::MessageType::kDeliver:
    case wire::MessageType::kConfigUpdate:
    case wire::MessageType::kPong:
      MP_LOG_WARN("broker") << "region R" << self_.value() + 1
                            << " ignoring client-bound message "
                            << wire::to_string(msg.type);
      break;
    case wire::MessageType::kNodeHello:
    case wire::MessageType::kNodeWelcome:
    case wire::MessageType::kPeerInfo:
    case wire::MessageType::kHeartbeat:
    case wire::MessageType::kPhaseStart:
    case wire::MessageType::kPhaseDone:
    case wire::MessageType::kReportPublisher:
    case wire::MessageType::kReportSubscriber:
    case wire::MessageType::kReportEnd:
    case wire::MessageType::kNodeBye:
      // Node lifecycle traffic is consumed by the node runtime wrapper
      // before it reaches the broker; seeing one here means no wrapper is
      // installed (e.g. a stray send in a simulation).
      MP_LOG_WARN("broker") << "region R" << self_.value() + 1
                            << " ignoring node-lifecycle message "
                            << wire::to_string(msg.type);
      break;
  }
}

void Broker::on_publish(const wire::Message& msg) {
  // Collection-interval statistics (paper §III-A3): who published, how many
  // messages, how many bytes.
  auto& observed = traffic_[msg.topic][msg.publisher];
  observed.msg_count += 1;
  observed.total_bytes += msg.payload_bytes;

  // Reliable mode: the ring position this publication gets here is the
  // delivery sequence number every local subscriber orders against, and the
  // stamp peers use to detect forward gaps. Publishers never retransmit,
  // but recording first sight lets a replayed copy of this publication
  // dedup later.
  std::uint64_t rseq = 0;
  if (reliable_) {
    (void)first_sight(msg.topic, msg.publisher, msg.seq);
    rseq = ring(msg.topic).append(msg);
  }

  // Under routed delivery the publisher sent the publication only to us (its
  // closest serving region); we forward it to every other serving region.
  // Two reconfiguration races are handled here:
  //  - the fan-out decision follows the MESSAGE's stamped intent, not our
  //    own (possibly newer) configuration — during a routed->direct switch
  //    a publication already in flight still expects us to fan it out;
  //  - the fan-out TARGETS include regions in the drain window — remote
  //    subscribers may still be attached to a region that just left the
  //    serving set.
  // The target list is built into a reusable scratch buffer and handed to
  // the transport as one batch: one shared message, no per-peer copy here.
  // A region in both the serving and the draining set appears once — the
  // union is still a set.
  if (const core::TopicConfig* config = topic_config(msg.topic);
      config != nullptr && msg.config_mode == wire::WireMode::kRouted) {
    const geo::RegionSet draining = draining_regions(msg.topic);
    const geo::RegionSet targets = config->regions | draining;
    fanout_scratch_.clear();
    for (RegionId peer : targets) {
      if (peer == self_) continue;
      fanout_scratch_.push_back(net::Address::region(peer));
      ++forwarded_;
      if (draining.contains(peer) && !config->regions.contains(peer)) {
        ++drain_forwarded_;
      }
    }
    if (reliable_) {
      // The forward carries our ring position (gap detection at the peer)
      // and our region id in the subscriber field — send_batch preserves it
      // for region targets, and the peer needs to know whom to ask for a
      // replay.
      wire::Message fwd = msg;
      fwd.delivery_seq = rseq;
      fwd.subscriber = ClientId{self_.value()};
      bus_->send_batch(net::Address::region(self_), fanout_scratch_, fwd,
                       wire::MessageType::kForward);
    } else {
      bus_->send_batch(net::Address::region(self_), fanout_scratch_, msg,
                       wire::MessageType::kForward);
    }
  }
  if (reliable_) {
    wire::Message local = msg;
    local.delivery_seq = rseq;
    deliver_locally(local);
  } else {
    deliver_locally(msg);
  }
}

void Broker::deliver_locally(const wire::Message& msg) {
  deliver_scratch_.clear();
  const net::CohortDirectory* dir = bus_->cohort_directory();
  for (const Subscription& sub : subs_.subscriptions(msg.topic)) {
    if (dir != nullptr) {
      // Cohort plane: the entry is a flock; its live weight is the member
      // count the per-client loop would have iterated. A retired cohort
      // (weight 0) contributes nothing to fan-out.
      const std::int32_t flock = sub.subscriber.value();
      const std::uint64_t weight = dir->flock_weight(flock);
      if (weight == 0) continue;
      if (!sub.filter.matches(msg.key)) {
        filtered_ += weight;
        continue;
      }
      deliver_scratch_.push_back(net::Address::cohort(flock));
      delivered_ += weight;
      continue;
    }
    // Content-based matching: filtered subscriptions only receive
    // publications whose key falls inside their interval.
    if (!sub.filter.matches(msg.key)) {
      ++filtered_;
      continue;
    }
    deliver_scratch_.push_back(net::Address::client(sub.subscriber));
    ++delivered_;
  }
  // The batch stamps kDeliver and the per-target subscriber as each
  // delivery is scheduled.
  bus_->send_batch(net::Address::region(self_), deliver_scratch_, msg,
                         wire::MessageType::kDeliver);
}

void Broker::reset_traffic() { traffic_.clear(); }

// ---- Reliable delivery + Clone-pattern state replication (DESIGN.md §15)

namespace {

/// The configured topics in ascending order (a hash map's own order is not
/// deterministic), so streams and sync passes run in one fixed order.
std::vector<TopicId> sorted_topics(
    const std::unordered_map<TopicId, core::TopicConfig>& configs) {
  std::vector<TopicId> topics;
  topics.reserve(configs.size());
  for (const auto& [topic, config] : configs) topics.push_back(topic);
  std::sort(topics.begin(), topics.end());
  return topics;
}

/// The one rule that applies a state entry — a snapshot entry or a delta —
/// to a pair of tables: an invalid subscriber marks a config entry (always
/// an upsert, installed without a drain window); otherwise seq bit 0 selects
/// subscription upsert (1) or removal (0). Serves the standby's replica and
/// the restoring owner's own tables alike.
void apply_state_entry(std::unordered_map<TopicId, core::TopicConfig>& configs,
                       SubscriptionTable& subs, const wire::Message& entry) {
  if (!entry.subscriber.valid()) {
    configs[entry.topic] = wire::config_of(entry);
  } else if ((entry.seq & 1) != 0) {
    (void)subs.subscribe(entry.topic, entry.subscriber, entry.filter);
  } else {
    (void)subs.unsubscribe(entry.topic, entry.subscriber);
  }
}

}  // namespace

bool Broker::first_sight(TopicId topic, ClientId publisher,
                         std::uint64_t seq) {
  return seen_[topic][publisher].insert(seq);
}

bool Broker::has_accepted(TopicId topic, ClientId publisher,
                          std::uint64_t seq) const {
  const auto topic_it = seen_.find(topic);
  if (topic_it == seen_.end()) return false;
  const auto pub_it = topic_it->second.find(publisher);
  return pub_it != topic_it->second.end() && pub_it->second.contains(seq);
}

ReplayRing& Broker::ring(TopicId topic) {
  return rings_.try_emplace(topic).first->second;
}

std::uint64_t Broker::replica_applied_seq(RegionId owner) const {
  const auto it = replicas_.find(owner.value());
  return it == replicas_.end() ? 0 : it->second.applied_seq;
}

void Broker::on_reliable_arrival(const wire::Message& msg, bool from_replay) {
  // The subscriber field of a reliable kForward/broker-bound kReplayBatch
  // carries the sending region, and delivery_seq its ring position there.
  const RegionId sender{msg.subscriber.value()};
  if (const auto from = peer_cursors_[{sender.value(), msg.topic.value()}]
                            .arrive(msg.delivery_seq, from_replay)) {
    wire::Message req;
    req.type = wire::MessageType::kReplayRequest;
    req.topic = msg.topic;
    req.publisher = ClientId{self_.value()};  // requester region
    req.subscriber = ClientId{-1};
    req.delivery_seq = *from;
    bus_->send(net::Address::region(self_), net::Address::region(sender),
               req);
  }

  if (!first_sight(msg.topic, msg.publisher, msg.seq)) return;  // duplicate
  const std::uint64_t rseq = ring(msg.topic).append(msg);
  wire::Message local = msg;
  local.type = wire::MessageType::kForward;  // publication field shape
  local.subscriber = ClientId{-1};           // drop the region carrier
  local.delivery_seq = rseq;                 // OUR numbering for subscribers
  deliver_locally(local);
}

void Broker::on_replay_request(const wire::Message& msg) {
  if (!msg.topic.valid()) {
    // Standby host asking for a full state resync (its delta stream
    // diverged or it lost the replica). Gated on the STATE-SYNC hook, not
    // the replay hook: set_replay_enabled(false) sabotages data replay
    // only, so each negative chaos hook trips exactly its own oracle.
    if (state_sync_enabled_) {
      stream_tables(RegionId{msg.publisher.value()}, self_, state_seq_,
                    configs_, subs_);
    }
    return;
  }
  if (!replay_enabled_) return;
  const auto rit = rings_.find(msg.topic);
  if (rit == rings_.end()) return;  // nothing retained for the topic
  const ReplayRing& r = rit->second;
  // Below oldest_retained() the ring has evicted: the requester gets the
  // surviving suffix — the mechanism's documented loss bound.
  const std::uint64_t from =
      std::max<std::uint64_t>(msg.delivery_seq, r.oldest_retained());

  const bool to_flock = msg.key != 0;
  const bool to_client = to_flock || msg.subscriber.valid();
  if (!to_client) {
    // Broker-level catch-up: stream our ring suffix to the requesting
    // region, stamped like reliable forwards.
    const net::Address requester =
        net::Address::region(RegionId{msg.publisher.value()});
    for (std::uint64_t seq = from; seq <= r.head(); ++seq) {
      wire::Message batch = *r.find(seq);
      batch.type = wire::MessageType::kReplayBatch;
      batch.subscriber = ClientId{self_.value()};
      bus_->send(net::Address::region(self_), requester, batch);
    }
    return;
  }

  // Client-level replay: honour the requester's content filter (a filtered
  // publication was never delivered, so it is not replayed either).
  const ClientId table_key =
      to_flock ? ClientId{static_cast<std::int32_t>(msg.key - 1)}
               : msg.subscriber;
  const Subscription* sub = subs_.find(msg.topic, table_key);
  const wire::KeyFilter filter =
      sub != nullptr ? sub->filter : wire::KeyFilter::all();
  const net::Address dest =
      to_flock ? net::Address::cohort(static_cast<std::int32_t>(msg.key - 1))
               : net::Address::client(msg.subscriber);
  for (std::uint64_t seq = from; seq <= r.head(); ++seq) {
    const wire::Message* entry = r.find(seq);
    if (!filter.matches(entry->key)) continue;
    wire::Message batch = *entry;
    batch.type = wire::MessageType::kReplayBatch;
    // A whole-flock request (invalid subscriber) is answered with weighted
    // whole-flock batches; a member-stamped request with weight-1 batches
    // for exactly that member.
    batch.subscriber = msg.subscriber;
    batch.weight = msg.weight;
    bus_->send(net::Address::region(self_), dest, batch);
  }
}

void Broker::emit_state_delta(wire::Message delta) {
  MP_EXPECTS(reliable_);
  // A weighted delta stands for `weight` per-client table mutations, so the
  // sequence numbers the per-client expansion on either plane.
  state_seq_ += delta.weight;
  if (!standby_.valid() || !state_sync_enabled_) return;
  delta.type = wire::MessageType::kStateDelta;
  delta.publisher = ClientId{self_.value()};  // state owner
  delta.delivery_seq = state_seq_;
  bus_->send(net::Address::region(self_), net::Address::region(standby_),
             delta);
}

void Broker::set_standby(RegionId standby) {
  MP_EXPECTS(!standby.valid() || standby != self_);
  standby_ = standby;
  if (reliable_ && standby_.valid() && state_sync_enabled_) {
    stream_tables(standby_, self_, state_seq_, configs_, subs_);
  }
}

void Broker::stream_tables(
    RegionId to, RegionId owner, std::uint64_t seq,
    const std::unordered_map<TopicId, core::TopicConfig>& configs,
    const SubscriptionTable& subs) {
  const net::Address self_addr = net::Address::region(self_);
  const net::Address dest = net::Address::region(to);
  wire::Message base;
  base.type = wire::MessageType::kStateSnapshot;
  base.publisher = ClientId{owner.value()};
  base.subscriber = ClientId{-1};
  base.seq = 1;  // every entry is an upsert

  // Markers carry an invalid topic: seq 0 begins (clear), seq 1 ends
  // (commit at state seq `seq`).
  wire::Message marker = base;
  marker.topic = TopicId{-1};
  marker.seq = 0;
  marker.delivery_seq = seq;
  bus_->send(self_addr, dest, marker);
  for (const TopicId topic : sorted_topics(configs)) {
    wire::Message entry = base;
    entry.topic = topic;
    wire::set_config(entry, configs.at(topic));
    bus_->send(self_addr, dest, entry);
  }
  // On the cohort plane a table entry stands for a whole flock: its weight
  // is read from the directory now, so every stream — bootstrap, resync or
  // restore — bills as the per-client expansion of the current tables.
  const net::CohortDirectory* dir = bus_->cohort_directory();
  for (const TopicId topic : subs.topics()) {
    for (const Subscription& sub : subs.subscriptions(topic)) {
      wire::Message entry = base;
      entry.topic = topic;
      entry.subscriber = sub.subscriber;
      entry.filter = sub.filter;
      entry.weight =
          dir == nullptr ? 1 : dir->flock_weight(sub.subscriber.value());
      bus_->send(self_addr, dest, entry);
    }
  }
  marker.seq = 1;
  bus_->send(self_addr, dest, marker);
}

void Broker::request_state_resync(RegionId owner) {
  wire::Message req;
  req.type = wire::MessageType::kReplayRequest;
  req.topic = TopicId{-1};  // state, not a topic ring
  req.publisher = ClientId{self_.value()};
  req.subscriber = ClientId{-1};
  bus_->send(net::Address::region(self_), net::Address::region(owner), req);
}

void Broker::on_state_snapshot(const wire::Message& msg) {
  if (msg.publisher.value() == self_.value()) {
    // Our own state coming back from the standby after a crash.
    if (!msg.topic.valid()) {
      if (msg.seq == 1) state_seq_ = msg.delivery_seq;
      return;
    }
    apply_state_entry(configs_, subs_, msg);
    // The controller must re-learn what this region serves.
    if (msg.subscriber.valid()) membership_changed_.insert(msg.topic);
    return;
  }

  // We are the standby host receiving the owner's stream.
  StandbyReplica& rep = replicas_[msg.publisher.value()];
  if (!msg.topic.valid()) {
    if (msg.seq == 0) {
      rep.configs.clear();
      rep.subs.clear();
    } else {
      rep.applied_seq = msg.delivery_seq;
      rep.resync_pending = false;  // resync committed; gaps may re-request
    }
    return;
  }
  apply_state_entry(rep.configs, rep.subs, msg);
}

void Broker::on_state_delta(const wire::Message& msg) {
  const RegionId owner{msg.publisher.value()};
  StandbyReplica& rep = replicas_[owner.value()];
  if (!msg.topic.valid() && !msg.subscriber.valid()) {
    // Heartbeat restating the owner's state_seq: any divergence (dropped
    // deltas, a crashed-and-restarted host) triggers a full resync. The
    // heartbeat also re-arms the pending flag, so a snapshot lost in
    // transit is re-requested once per sync interval, never per delta.
    rep.resync_pending = false;
    if (rep.applied_seq != msg.delivery_seq) {
      request_state_resync(owner);
      rep.resync_pending = true;
    }
    return;
  }
  // A delta is next in line when it advances the applied seq by exactly its
  // weight (a weight-0 delta, the departure of a flock nobody is left
  // behind, advances it by nothing).
  if (msg.delivery_seq != rep.applied_seq + msg.weight) {
    if (msg.delivery_seq <= rep.applied_seq) return;  // stale duplicate
    // Gap in the sequenced delta stream: one resync per gap episode, not
    // one per delta that arrives while the snapshot is still in flight.
    if (!rep.resync_pending) {
      request_state_resync(owner);
      rep.resync_pending = true;
    }
    return;
  }
  apply_state_entry(rep.configs, rep.subs, msg);
  rep.applied_seq = msg.delivery_seq;
}

void Broker::crash() {
  // A crash loses every piece of in-memory state; the counters survive —
  // they are the experiment's observability, not broker state.
  subs_.clear();
  configs_.clear();
  draining_.clear();
  traffic_.clear();
  membership_changed_.clear();
  latency_reports_.clear();
  rings_.clear();
  seen_.clear();
  peer_cursors_.clear();
  replicas_.clear();
  state_seq_ = 0;
}

void Broker::restore_peer(RegionId owner) {
  if (!reliable_ || !state_sync_enabled_) return;
  const auto it = replicas_.find(owner.value());
  if (it == replicas_.end()) return;
  const StandbyReplica& rep = it->second;
  stream_tables(owner, owner, rep.applied_seq, rep.configs, rep.subs);
}

void Broker::sync_with_peers() {
  if (!reliable_) return;
  for (const TopicId topic : sorted_topics(configs_)) {
    const core::TopicConfig& config = configs_.at(topic);
    // Both modes sync: under direct delivery serving brokers hold parallel
    // rings (one kPublish copy each), and a region that JOINS the serving
    // set must backfill from its peers or re-homed subscribers would find
    // an empty ring. The first pull pays a one-time ring backfill (billed
    // like deliveries); afterwards the per-peer cursor keeps it incremental.
    // Only serving regions hold subscribers to repair; a bystander pulling
    // rings would replicate (and bill) traffic it has no use for.
    if (!config.regions.contains(self_)) continue;
    const geo::RegionSet peers = config.regions | draining_regions(topic);
    for (const RegionId peer : peers) {
      if (peer == self_) continue;
      const auto it = peer_cursors_.find({peer.value(), topic.value()});
      // Unknown cursor (first contact or post-crash): ask for everything
      // the peer still retains.
      const std::uint64_t from =
          it == peer_cursors_.end() ? 1 : it->second.next();
      wire::Message req;
      req.type = wire::MessageType::kReplayRequest;
      req.topic = topic;
      req.publisher = ClientId{self_.value()};
      req.subscriber = ClientId{-1};
      req.delivery_seq = from;
      bus_->send(net::Address::region(self_), net::Address::region(peer),
                 req);
    }
  }
  if (standby_.valid() && state_sync_enabled_) {
    wire::Message hb;
    hb.type = wire::MessageType::kStateDelta;
    hb.publisher = ClientId{self_.value()};
    hb.topic = TopicId{-1};
    hb.subscriber = ClientId{-1};
    hb.delivery_seq = state_seq_;
    bus_->send(net::Address::region(self_), net::Address::region(standby_),
               hb);
  }
}

}  // namespace multipub::broker
