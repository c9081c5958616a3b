#include "client/cohort_pool.h"

#include <algorithm>
#include <iterator>

#include "common/assert.h"

namespace multipub::client {
namespace {

std::uint64_t stream_key(TopicId topic, ClientId publisher) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(topic.value()))
             << 32 |
         static_cast<std::uint32_t>(publisher.value());
}

bool holds(const std::vector<ClientId>& holders, ClientId member) {
  return std::find(holders.begin(), holders.end(), member) != holders.end();
}

/// Holders are distinct, so fewer holders than members cannot cover them.
bool held_by_all(std::span<const ClientId> members,
                 const std::vector<ClientId>& holders) {
  return holders.size() >= members.size() &&
         std::all_of(members.begin(), members.end(),
                     [&](ClientId member) { return holds(holders, member); });
}

}  // namespace

CohortPool::CohortPool(ClientRegistry& registry, TopicSetPool& topic_sets,
                       net::Clock& clock, net::Bus& bus)
    : registry_(&registry),
      topic_sets_(&topic_sets),
      clock_(&clock),
      bus_(&bus) {}

CohortPool::~CohortPool() {
  if (bus_->cohort_directory() == this) {
    bus_->set_cohort_directory(nullptr);
  }
  for (std::size_t fid = 0; fid < flocks_.size(); ++fid) {
    bus_->unregister_handler(
        net::Address::cohort(static_cast<std::int32_t>(fid)));
  }
}

std::int32_t CohortPool::enroll(ClientId client) {
  MP_EXPECTS(registry_->cohort_of(client) < 0);
  const std::int32_t set = registry_->topic_set(client);
  if (set == TopicSetPool::kEmpty) return -1;
  const std::int32_t slot =
      cohort_slot(registry_->home(client), set, registry_->row_of(client));
  Cohort& cohort = cohorts_[static_cast<std::size_t>(slot)];
  cohort.members.push_back(client);
  registry_->set_cohort(client, slot,
                        static_cast<std::int32_t>(cohort.members.size()) - 1);
  return slot;
}

std::size_t CohortPool::retired_cohort_count() const {
  std::size_t retired = 0;
  for (const Cohort& cohort : cohorts_) {
    if (cohort.members.empty()) ++retired;
  }
  return retired;
}

RegionId CohortPool::cohort_home(std::int32_t cohort) const {
  MP_EXPECTS(cohort >= 0 &&
             static_cast<std::size_t>(cohort) < cohorts_.size());
  return cohorts_[static_cast<std::size_t>(cohort)].home;
}

std::uint32_t CohortPool::cohort_weight(std::int32_t cohort) const {
  MP_EXPECTS(cohort >= 0 &&
             static_cast<std::size_t>(cohort) < cohorts_.size());
  return static_cast<std::uint32_t>(
      cohorts_[static_cast<std::size_t>(cohort)].members.size());
}

void CohortPool::deploy(TopicId topic, const core::TopicConfig& config,
                        wire::KeyFilter filter) {
  MP_EXPECTS(!config.regions.empty());
  for (Cohort& cohort : cohorts_) {
    if (cohort.members.empty()) continue;
    for (const auto& [t, fid] : cohort.flocks) {
      if (t != topic) continue;
      flocks_[static_cast<std::size_t>(fid)].filter = filter;
      attach(fid, registry_->closest_region(cohort.row, config.regions));
    }
  }
}

void CohortPool::subscribe_client(ClientId client, TopicId topic,
                                  const core::TopicConfig& config,
                                  wire::KeyFilter filter) {
  MP_EXPECTS(!config.regions.empty());
  MP_EXPECTS(registry_->alive(client));
  const std::int32_t row = registry_->row_of(client);
  const RegionId target = registry_->closest_region(row, config.regions);
  const std::int32_t set = registry_->topic_set(client);
  if (topic_sets_->contains(set, topic)) {
    // Idempotent re-subscribe, mirroring Subscriber::subscribe when the
    // closest region is the current attachment. A member can never compute
    // a DIFFERENT closest region than its flock — everyone in the cohort
    // shares the latency row — so a flock-splitting re-attach cannot arise.
    const std::int32_t fid = flock_of(client, topic);
    MP_EXPECTS(fid >= 0);
    const Flock& flock = flocks_[static_cast<std::size_t>(fid)];
    MP_EXPECTS(flock.attachment == target);
    MP_EXPECTS(flock.filter == filter &&
               "cohort flocks are uniformly filtered");
    send_control(fid, target, wire::MessageType::kSubscribe, 1, 0);
    return;
  }
  // The client's other topics move with it: their flocks in the new cohort
  // start where the old ones sit, next to the newly subscribed one.
  std::vector<FlockPlacement> carried = placements_except(client, topic);
  carried.push_back({topic, target, filter});
  if (registry_->cohort_of(client) >= 0) leave_cohort(client);
  join_cohort(client, topic_sets_->with(set, topic), carried);
}

void CohortPool::unsubscribe_client(ClientId client, TopicId topic) {
  const std::int32_t set = registry_->topic_set(client);
  if (!topic_sets_->contains(set, topic)) return;  // mirror: not attached
  MP_EXPECTS(registry_->cohort_of(client) >= 0);
  // Retained topics move with the client, so a brand-new smaller cohort
  // starts attached in the same places.
  const std::vector<FlockPlacement> carried = placements_except(client, topic);
  leave_cohort(client);
  const std::int32_t new_set = topic_sets_->without(set, topic);
  registry_->set_topic_set(client, new_set);
  if (new_set == TopicSetPool::kEmpty) return;
  join_cohort(client, new_set, carried);
}

void CohortPool::kill_client(ClientId client) {
  if (registry_->cohort_of(client) >= 0) remove_member(client);
  registry_->set_alive(client, false);
}

std::int32_t CohortPool::flock_of(ClientId client, TopicId topic) const {
  const std::int32_t cohort = registry_->cohort_of(client);
  if (cohort < 0) return -1;
  for (const auto& [t, fid] :
       cohorts_[static_cast<std::size_t>(cohort)].flocks) {
    if (t == topic) return fid;
  }
  return -1;
}

RegionId CohortPool::attached_region(ClientId client, TopicId topic) const {
  const std::int32_t fid = flock_of(client, topic);
  return fid < 0 ? RegionId::invalid()
                 : flocks_[static_cast<std::size_t>(fid)].attachment;
}

void CohortPool::clear_arrivals() {
  for (Cohort& cohort : cohorts_) {
    cohort.arrivals.clear();
    cohort.interval_deliveries_w = 0;
  }
}

void CohortPool::append_delivery_times(ClientId member,
                                       std::vector<Millis>& out) const {
  const std::int32_t cohort = registry_->cohort_of(member);
  if (cohort < 0) return;
  for (const Arrival& arrival :
       cohorts_[static_cast<std::size_t>(cohort)].arrivals) {
    bool covered;
    if (arrival.member.valid()) {
      covered = arrival.member == member;
    } else if (arrival.fresh.empty()) {
      covered = true;  // whole-flock arrival: every member got a copy
    } else {
      covered = holds(arrival.fresh, member);
    }
    if (covered) out.push_back(arrival.value);
  }
}

std::uint64_t CohortPool::reconnect_weight() const {
  std::uint64_t total = 0;
  for (const Cohort& cohort : cohorts_) total += cohort.reconnects_w;
  return total;
}

std::uint64_t CohortPool::duplicate_weight() const {
  std::uint64_t total = 0;
  for (const Cohort& cohort : cohorts_) total += cohort.duplicates_w;
  return total;
}

std::uint64_t CohortPool::interval_delivery_weight() const {
  std::uint64_t total = 0;
  for (const Cohort& cohort : cohorts_) total += cohort.interval_deliveries_w;
  return total;
}

std::uint64_t CohortPool::total_delivery_weight() const {
  std::uint64_t total = 0;
  for (const Cohort& cohort : cohorts_) total += cohort.total_deliveries_w;
  return total;
}

std::size_t CohortPool::seen_run_count() const {
  std::size_t runs = 0;
  for (const Cohort& cohort : cohorts_) {
    for (const auto& [key, seen] : cohort.seen) runs += seen.whole.run_count();
  }
  return runs;
}

std::uint32_t CohortPool::flock_weight(std::int32_t flock) const {
  return static_cast<std::uint32_t>(cohort_of_flock(flock).members.size());
}

std::span<const ClientId> CohortPool::flock_members(std::int32_t flock) const {
  return cohort_of_flock(flock).members;
}

Millis CohortPool::flock_latency(std::int32_t flock, RegionId region) const {
  return registry_->row_latency(cohort_of_flock(flock).row, region);
}

RegionId CohortPool::flock_home(std::int32_t flock) const {
  return cohort_of_flock(flock).home;
}

RegionId CohortPool::flock_attachment(std::int32_t flock) const {
  MP_EXPECTS(flock >= 0 && static_cast<std::size_t>(flock) < flocks_.size());
  return flocks_[static_cast<std::size_t>(flock)].attachment;
}

CohortPool::Cohort& CohortPool::cohort_of_flock(std::int32_t flock) {
  MP_EXPECTS(flock >= 0 && static_cast<std::size_t>(flock) < flocks_.size());
  return cohorts_[static_cast<std::size_t>(
      flocks_[static_cast<std::size_t>(flock)].cohort)];
}

const CohortPool::Cohort& CohortPool::cohort_of_flock(
    std::int32_t flock) const {
  MP_EXPECTS(flock >= 0 && static_cast<std::size_t>(flock) < flocks_.size());
  return cohorts_[static_cast<std::size_t>(
      flocks_[static_cast<std::size_t>(flock)].cohort)];
}

std::int32_t CohortPool::cohort_slot(RegionId home, std::int32_t topic_set,
                                     std::int32_t row) {
  const std::uint64_t key = cohort_key(home, topic_set, row);
  if (const auto it = by_key_.find(key); it != by_key_.end()) {
    return it->second;
  }
  MP_EXPECTS(!frozen_ &&
             "the cohort universe is closed once the simulator is sharded");
  const auto slot = static_cast<std::int32_t>(cohorts_.size());
  Cohort cohort;
  cohort.home = home;
  cohort.topic_set = topic_set;
  cohort.row = row;
  for (const TopicId topic : topic_sets_->view(topic_set)) {
    const auto fid = static_cast<std::int32_t>(flocks_.size());
    Flock flock;
    flock.cohort = slot;
    flock.topic = topic;
    flocks_.push_back(flock);
    cohort.flocks.emplace_back(topic, fid);
    bus_->register_handler(
        net::Address::cohort(fid),
        [this, fid](const wire::Message& msg) { handle(fid, msg); });
  }
  cohorts_.push_back(std::move(cohort));
  by_key_.emplace(key, slot);
  return slot;
}

void CohortPool::remove_member(ClientId client) {
  const std::int32_t slot = registry_->cohort_of(client);
  const std::int32_t index = registry_->index_in_cohort(client);
  MP_EXPECTS(slot >= 0 && index >= 0);
  auto& members = cohorts_[static_cast<std::size_t>(slot)].members;
  MP_EXPECTS(static_cast<std::size_t>(index) < members.size() &&
             members[static_cast<std::size_t>(index)] == client);
  const ClientId last = members.back();
  members[static_cast<std::size_t>(index)] = last;
  members.pop_back();
  if (last != client) registry_->set_cohort(last, slot, index);
  registry_->set_cohort(client, -1, -1);
}

void CohortPool::leave_cohort(ClientId client) {
  const std::int32_t slot = registry_->cohort_of(client);
  MP_EXPECTS(slot >= 0);
  remove_member(client);
  Cohort& cohort = cohorts_[static_cast<std::size_t>(slot)];
  for (const auto& [t, fid] : cohort.flocks) {
    Flock& flock = flocks_[static_cast<std::size_t>(fid)];
    if (!flock.attachment.valid()) continue;
    send_control(fid, flock.attachment, wire::MessageType::kUnsubscribe, 1,
                 0);
    // Last member out: the broker drops the flock's entry on arrival.
    if (cohort.members.empty()) flock.presence.remove(flock.attachment);
  }
}

std::vector<CohortPool::FlockPlacement> CohortPool::placements_except(
    ClientId client, TopicId topic) const {
  std::vector<FlockPlacement> placements;
  const std::int32_t cohort = registry_->cohort_of(client);
  if (cohort < 0) return placements;
  for (const auto& [t, fid] :
       cohorts_[static_cast<std::size_t>(cohort)].flocks) {
    if (t == topic) continue;
    const Flock& flock = flocks_[static_cast<std::size_t>(fid)];
    placements.push_back({t, flock.attachment, flock.filter});
  }
  return placements;
}

void CohortPool::join_cohort(ClientId client, std::int32_t topic_set,
                             std::span<const FlockPlacement> placements) {
  const std::int32_t slot = cohort_slot(registry_->home(client), topic_set,
                                        registry_->row_of(client));
  Cohort& cohort = cohorts_[static_cast<std::size_t>(slot)];
  // An empty (new or revived) cohort attaches where this first member's
  // flocks sit; a populated one must already sit exactly there (same row +
  // same config history => same closest region).
  for (const auto& [t, fid] : cohort.flocks) {
    Flock& flock = flocks_[static_cast<std::size_t>(fid)];
    for (const FlockPlacement& placement : placements) {
      if (placement.topic != t) continue;
      if (cohort.members.empty() || !flock.attachment.valid()) {
        flock.attachment = placement.attachment;
        flock.filter = placement.filter;
      } else {
        MP_EXPECTS(flock.attachment == placement.attachment);
        MP_EXPECTS(flock.filter == placement.filter &&
                   "cohort flocks are uniformly filtered");
      }
    }
  }
  add_member(client, topic_set);
}

void CohortPool::add_member(ClientId client, std::int32_t topic_set) {
  const std::int32_t slot = cohort_slot(registry_->home(client), topic_set,
                                        registry_->row_of(client));
  Cohort& cohort = cohorts_[static_cast<std::size_t>(slot)];
  cohort.members.push_back(client);
  registry_->set_cohort(client, slot,
                        static_cast<std::int32_t>(cohort.members.size()) - 1);
  registry_->set_topic_set(client, topic_set);
  for (const auto& [t, fid] : cohort.flocks) {
    Flock& flock = flocks_[static_cast<std::size_t>(fid)];
    MP_EXPECTS(flock.attachment.valid() &&
               "a member can only join a fully deployed cohort");
    flock.presence.add(flock.attachment);
    // A joining member is a new per-client table entry everywhere, so every
    // one of these is membership-marking (seq 1).
    send_control(fid, flock.attachment, wire::MessageType::kSubscribe, 1, 1);
  }
}

void CohortPool::attach(std::int32_t flock_id, RegionId region) {
  Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  Cohort& cohort = cohorts_[static_cast<std::size_t>(flock.cohort)];
  const auto weight = static_cast<std::uint32_t>(cohort.members.size());
  if (weight == 0) return;  // retired flock: the per-client loop is empty
  if (flock.attachment.valid() && flock.attachment != region) {
    // Reconnection (paper §III-A5), make-before-break: join the new region
    // now, leave the old one after the grace period — one weighted
    // good-bye standing for every member's.
    const RegionId old_region = flock.attachment;
    cohort.reconnects_w += weight;
    clock_->schedule_after(wire::kHandoverGraceMs, [this, flock_id,
                                                    old_region] {
      Flock& current = flocks_[static_cast<std::size_t>(flock_id)];
      if (current.attachment == old_region) {
        return;  // flapped back during the grace period: still attached
      }
      current.presence.remove(old_region);
      const auto grace_weight = static_cast<std::uint32_t>(
          cohorts_[static_cast<std::size_t>(current.cohort)].members.size());
      send_control(flock_id, old_region, wire::MessageType::kUnsubscribe,
                   grace_weight, 0);
    });
  }
  // The kSubscribe marks membership only when the region's table would gain
  // entries — i.e. when the flock has no entry there yet.
  const std::uint64_t membership_seq =
      flock.presence.contains(region) ? 0 : 1;
  flock.presence.add(region);
  flock.attachment = region;
  send_control(flock_id, region, wire::MessageType::kSubscribe, weight,
               membership_seq);
  // Every member's Subscriber would reset its gap tracking to the ring's
  // origin on (re)attach; the flock does it once for all of them.
  if (reliable_) {
    flock.cursor.reset();
    flock.cursor_override.clear();
  }
}

void CohortPool::send_control(std::int32_t flock_id, RegionId to,
                              wire::MessageType type, std::uint32_t weight,
                              std::uint64_t membership_seq) {
  if (weight == 0) return;  // zero members: the per-client loop sends nothing
  const Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  wire::Message msg;
  msg.type = type;
  msg.topic = flock.topic;
  msg.subscriber = ClientId{flock_id};  // the broker table's flock handle
  msg.seq = membership_seq;
  msg.weight = weight;
  if (type == wire::MessageType::kSubscribe) msg.filter = flock.filter;
  bus_->send(net::Address::cohort(flock_id), net::Address::region(to),
                   msg);
}

void CohortPool::handle(std::int32_t flock_id, const wire::Message& msg) {
  switch (msg.type) {
    case wire::MessageType::kDeliver:
      on_deliver(flock_id, msg, /*replayed=*/false);
      break;
    case wire::MessageType::kReplayBatch:
      on_deliver(flock_id, msg, /*replayed=*/true);
      break;
    case wire::MessageType::kConfigUpdate: {
      const Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
      // Only react while attached, like Subscriber's subscription check.
      if (!flock.attachment.valid() || msg.config_regions.empty()) break;
      const Cohort& cohort =
          cohorts_[static_cast<std::size_t>(flock.cohort)];
      attach(flock_id,
             registry_->closest_region(cohort.row, msg.config_regions));
      break;
    }
    default:
      break;
  }
}

void CohortPool::on_deliver(std::int32_t flock_id, const wire::Message& msg,
                            bool replayed) {
  Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  Cohort& cohort = cohorts_[static_cast<std::size_t>(flock.cohort)];
  if (reliable_) track_sequence(flock_id, msg, replayed);
  const Millis value = clock_->now() - msg.published_at;
  const auto duplicate = [&](std::uint32_t weight) {
    cohort.duplicates_w += weight;
    if (!dedup_enabled_) cohort.recorded_duplicates_w += weight;
  };
  const auto arrive = [&](ClientId member, std::uint32_t weight,
                          std::vector<ClientId> fresh) {
    cohort.arrivals.push_back(
        {msg.topic, member, weight, value, std::move(fresh)});
    cohort.interval_deliveries_w += weight;
    cohort.total_deliveries_w += weight;
  };
  SeenStream& seen = cohort.seen[stream_key(msg.topic, msg.publisher)];
  if (!msg.subscriber.valid()) {
    // Whole-flock delivery standing for msg.weight per-member copies.
    if (!seen.whole.insert(msg.seq)) return duplicate(msg.weight);
    const auto split = seen.split.find(msg.seq);
    if (split == seen.split.end()) {
      return arrive(ClientId::invalid(), msg.weight, {});
    }
    // A fault already split this publication: the listed members hold
    // their first copy, everyone else sees theirs now.
    std::vector<ClientId> fresh;
    std::copy_if(
        cohort.members.begin(), cohort.members.end(), std::back_inserter(fresh),
        [&](ClientId member) { return !holds(split->second, member); });
    seen.split.erase(split);
    const auto fresh_count = static_cast<std::uint32_t>(fresh.size());
    if (msg.weight > fresh_count) duplicate(msg.weight - fresh_count);
    if (fresh_count > 0) {
      arrive(ClientId::invalid(), fresh_count, std::move(fresh));
    }
    return;
  }
  // Fault-split weight-1 copy addressed to one member.
  const ClientId member = msg.subscriber;
  if (seen.whole.contains(msg.seq)) return duplicate(1);
  std::vector<ClientId>& holders = seen.split[msg.seq];
  if (holds(holders, member)) return duplicate(1);
  holders.push_back(member);
  arrive(member, 1, {});
  if (held_by_all(cohort.members, holders)) {
    seen.whole.insert(msg.seq);
    seen.split.erase(msg.seq);
  }
}

// ---- Reliable delivery (DESIGN.md §15)

void CohortPool::request_replay(std::int32_t flock_id, std::uint64_t from,
                                std::uint32_t weight, ClientId member) {
  if (weight == 0) return;
  const Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  if (!flock.attachment.valid()) return;
  wire::Message req;
  req.type = wire::MessageType::kReplayRequest;
  req.topic = flock.topic;
  req.subscriber = member;  // invalid = whole-flock weighted request
  req.key = static_cast<std::uint64_t>(flock_id) + 1;  // flock handle
  req.weight = weight;
  req.delivery_seq = from;
  bus_->send(net::Address::cohort(flock_id),
             net::Address::region(flock.attachment), req);
}

void CohortPool::track_sequence(std::int32_t flock_id,
                                const wire::Message& msg, bool replayed) {
  Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  Cohort& cohort = cohorts_[static_cast<std::size_t>(flock.cohort)];
  const std::uint64_t s = msg.delivery_seq;
  if (!msg.subscriber.valid()) {
    // Whole-flock copy: every member sees it (uniform replay requests are
    // only ever emitted while the flock IS uniform, so a replayed batch too
    // stands for everyone it was requested for).
    if (flock.cursor_override.empty()) {
      // Uniform: the members' identical gap requests compress into one
      // weighted request.
      if (const auto from = flock.cursor.arrive(s, replayed)) {
        request_replay(flock_id, *from,
                       static_cast<std::uint32_t>(cohort.members.size()),
                       ClientId::invalid());
      }
    } else {
      // Divergent positions: exactly the per-client plane's requests, in
      // member order; every member still records the arrival. The shared
      // decision is taken once (the first arrival would hide the gap from
      // the remaining shared members).
      const auto shared_from = flock.cursor.arrive(s, replayed);
      for (const ClientId member : cohort.members) {
        const auto it = flock.cursor_override.find(member.value());
        const auto from =
            it == flock.cursor_override.end() ? shared_from
                                              : it->second.arrive(s, replayed);
        if (from) request_replay(flock_id, *from, 1, member);
      }
    }
  } else {
    // Fault-split weight-1 copy: only this member advances; everyone else's
    // position is untouched (they never received it — just like the
    // per-client plane). A member diverging for the first time starts from
    // the shared cursor's position.
    SeqTracker& cursor =
        flock.cursor_override.try_emplace(msg.subscriber.value(), flock.cursor)
            .first->second;
    if (const auto from = cursor.arrive(s, replayed)) {
      request_replay(flock_id, *from, 1, msg.subscriber);
    }
  }
  // Collapse the overrides once every member is back at the same position.
  if (!flock.cursor_override.empty()) {
    bool uniform = true;
    for (const auto& [member, cursor] : flock.cursor_override) {
      if (!(cursor == flock.cursor)) {
        uniform = false;
        break;
      }
    }
    if (uniform) flock.cursor_override.clear();
  }
}

void CohortPool::reconnect(RegionId region) {
  for (std::size_t fid = 0; fid < flocks_.size(); ++fid) {
    if (flocks_[fid].attachment == region) {
      attach(static_cast<std::int32_t>(fid), region);
    }
  }
}

void CohortPool::sync_replay() {
  if (!reliable_) return;
  for (std::size_t fid = 0; fid < flocks_.size(); ++fid) {
    const Flock& flock = flocks_[fid];
    if (!flock.attachment.valid()) continue;
    const Cohort& cohort = cohorts_[static_cast<std::size_t>(flock.cohort)];
    if (cohort.members.empty()) continue;
    const auto id = static_cast<std::int32_t>(fid);
    if (flock.cursor_override.empty()) {
      request_replay(id, flock.cursor.next(),
                     static_cast<std::uint32_t>(cohort.members.size()),
                     ClientId::invalid());
    } else {
      for (const ClientId member : cohort.members) {
        const auto it = flock.cursor_override.find(member.value());
        const std::uint64_t from = it == flock.cursor_override.end()
                                       ? flock.cursor.next()
                                       : it->second.next();
        request_replay(id, from, 1, member);
      }
    }
  }
}

std::uint64_t CohortPool::recorded_duplicate_weight() const {
  std::uint64_t total = 0;
  for (const Cohort& cohort : cohorts_) total += cohort.recorded_duplicates_w;
  return total;
}

TopicId CohortPool::flock_topic(std::int32_t flock) const {
  return flocks_[static_cast<std::size_t>(flock)].topic;
}

bool CohortPool::flock_matches_all(std::int32_t flock) const {
  return flocks_[static_cast<std::size_t>(flock)].filter.match_all();
}

std::uint64_t CohortPool::flock_complete_count(std::int32_t flock_id) const {
  const Flock& flock = flocks_[static_cast<std::size_t>(flock_id)];
  const Cohort& cohort = cohorts_[static_cast<std::size_t>(flock.cohort)];
  std::uint64_t count = 0;
  for (const auto& [key, seen] : cohort.seen) {
    if (key >> 32 != static_cast<std::uint32_t>(flock.topic.value())) continue;
    count += seen.whole.size();
    for (const auto& [seq, holders] : seen.split) {
      if (held_by_all(cohort.members, holders)) ++count;
    }
  }
  return count;
}

}  // namespace multipub::client
