#include "net/transport.h"

#include <cmath>
#include <utility>

#include "common/assert.h"

namespace multipub::net {

namespace {

/// Packed directed-link identity: (kind, id) of both endpoints. Address ids
/// are nonnegative int32, so kind fits above them in each half.
[[nodiscard]] std::uint64_t link_key(Address from, Address to) {
  const auto half = [](Address a) {
    // Cohort links never own RNG streams (the weighted plane forbids jitter
    // and replays fault coins on the members' own client links), so the
    // 1-bit kind encoding stays collision-free.
    MP_EXPECTS(a.kind != Address::Kind::kCohort);
    return static_cast<std::uint64_t>(
               a.kind == Address::Kind::kClient ? 1u : 0u)
               << 31 |
           static_cast<std::uint32_t>(a.id);
  };
  return half(from) << 32 | half(to);
}

/// Domain separator so a fault plan and a jitter config that happen to share
/// a seed still produce unrelated per-link streams.
constexpr std::uint64_t kCoinDomain = 0xc01fc01fc01fc01fULL;

/// The payload-carrying kinds the reliable mode's fault semantics still
/// drops; everything else is control traffic the protocol would retry until
/// acknowledged (DESIGN.md §15).
[[nodiscard]] bool is_data_kind(wire::MessageType type) {
  return type == wire::MessageType::kPublish ||
         type == wire::MessageType::kForward ||
         type == wire::MessageType::kDeliver ||
         type == wire::MessageType::kReplayBatch;
}

}  // namespace

Dollars CostLedger::total_cost(const geo::RegionCatalog& catalog) const {
  MP_EXPECTS(catalog.size() == inter_region_bytes.size());
  Dollars total = 0.0;
  for (const auto& region : catalog.all()) {
    total += static_cast<double>(inter_region_bytes[region.id.index()]) *
             region.alpha_per_byte();
    total += static_cast<double>(internet_bytes[region.id.index()]) *
             region.beta_per_byte();
  }
  return total;
}

SimTransport::SimTransport(Simulator& sim, const geo::RegionCatalog& catalog,
                           const geo::InterRegionLatency& backbone,
                           const geo::ClientLatencyMap& clients)
    : sim_(&sim),
      catalog_(&catalog),
      backbone_(&backbone),
      clients_(&clients),
      region_down_(catalog.size(), false),
      bills_(catalog.size()),
      ledger_(catalog.size()) {
  MP_EXPECTS(catalog.size() == backbone.size());
  MP_EXPECTS(catalog.size() == clients.n_regions());
  handler_table(Address::Kind::kRegion).resize(catalog.size());
  lanes_.push_back(std::make_unique<ShardLane>());
}

void SimTransport::set_cohort_directory(const CohortDirectory* directory) {
  MP_EXPECTS(directory == nullptr || !jitter_.has_value());
  directory_ = directory;
}

void SimTransport::set_shards(std::uint32_t shards) {
  MP_EXPECTS(shards >= 1);
  // Fresh lanes and counter layouts: a shard-count change re-baselines the
  // books, so it belongs before any traffic (next to configure_shards).
  sent_.configure(shards);
  delivered_.configure(shards);
  dropped_.configure(shards);
  dropped_unregistered_.configure(shards);
  dropped_sender_down_.configure(shards);
  dropped_dead_arrival_.configure(shards);
  dropped_faulted_.configure(shards);
  lanes_.clear();
  for (std::uint32_t i = 0; i < shards; ++i) {
    lanes_.push_back(std::make_unique<ShardLane>());
  }
}

std::vector<Millis> SimTransport::cross_shard_lookaheads(
    const ShardMap& map) const {
  const std::size_t k = map.shards;
  std::vector<Millis> la(k * k, kUnreachable);
  const auto fold = [&](std::uint32_t src, std::uint32_t dst, Millis l) {
    if (src == dst) return;
    Millis& slot = la[static_cast<std::size_t>(src) * k + dst];
    slot = std::min(slot, l);
  };
  const std::size_t regions = catalog_->size();
  MP_EXPECTS(map.region_shard.size() >= regions);
  for (std::size_t a = 0; a < regions; ++a) {
    for (std::size_t b = 0; b < regions; ++b) {
      if (a == b) continue;
      fold(map.region_shard[a], map.region_shard[b],
           backbone_->at(RegionId{static_cast<std::int32_t>(a)},
                         RegionId{static_cast<std::int32_t>(b)}));
    }
  }
  const std::size_t n_clients =
      std::min(map.client_shard.size(), clients_->n_clients());
  for (std::size_t c = 0; c < n_clients; ++c) {
    for (std::size_t r = 0; r < regions; ++r) {
      // Client links are symmetric: at(c, r) covers both directions.
      const Millis l = clients_->at(ClientId{static_cast<std::int32_t>(c)},
                                    RegionId{static_cast<std::int32_t>(r)});
      fold(map.client_shard[c], map.region_shard[r], l);
      fold(map.region_shard[r], map.client_shard[c], l);
    }
  }
  // Cohort rows matter independently of the client rows above: flock
  // latencies are the cohort key's QUANTIZED values, which floor-quantize
  // below the exact per-client latency, so they can be the binding minimum.
  if (directory_ != nullptr) {
    for (std::size_t f = 0; f < map.cohort_shard.size(); ++f) {
      for (std::size_t r = 0; r < regions; ++r) {
        const Millis l = directory_->flock_latency(
            static_cast<std::int32_t>(f),
            RegionId{static_cast<std::int32_t>(r)});
        fold(map.cohort_shard[f], map.region_shard[r], l);
        fold(map.region_shard[r], map.cohort_shard[f], l);
      }
    }
  }
  return la;
}

Millis SimTransport::min_cross_shard_latency(const ShardMap& map) const {
  const std::vector<Millis> la = cross_shard_lookaheads(map);
  const std::size_t k = map.shards;
  Millis best = kUnreachable;
  for (std::size_t src = 0; src < k; ++src) {
    for (std::size_t dst = 0; dst < k; ++dst) {
      if (src != dst) best = std::min(best, la[src * k + dst]);
    }
  }
  return best;
}

void SimTransport::register_handler(Address address, Handler handler) {
  MP_EXPECTS(handler != nullptr);
  MP_EXPECTS(address.id >= 0);
  // During parallel windows the tables must stay immutable (workers read
  // them concurrently); churn-driven registration is only legal from
  // single-threaded dispatch or between runs.
  MP_EXPECTS(!sim_->sharded() || !sim_->dispatching());
  const auto index = static_cast<std::size_t>(address.id);
  auto& dense = handler_table(address.kind);
  if (index >= dense.size()) dense.resize(index + 1);
  // Growing the deque above is safe mid-delivery (existing elements stay
  // put), but overwriting the std::function deliver() is currently invoking
  // would destroy it under its own feet.
  MP_EXPECTS(&dense[index] != lane(sim_->current_shard()).active_handler &&
             "cannot replace a handler from within its own delivery");
  dense[index] = std::move(handler);
}

void SimTransport::unregister_handler(Address address) {
  MP_EXPECTS(address.id >= 0);
  MP_EXPECTS(!sim_->sharded() || !sim_->dispatching());
  const auto index = static_cast<std::size_t>(address.id);
  auto& dense = handler_table(address.kind);
  if (index < dense.size()) {
    MP_EXPECTS(&dense[index] != lane(sim_->current_shard()).active_handler &&
               "cannot remove a handler from within its own delivery");
    dense[index] = nullptr;
  }
}

const SimTransport::Handler* SimTransport::find_handler(
    Address address) const {
  const auto& dense = handler_table(address.kind);
  const auto index = static_cast<std::size_t>(address.id);
  if (index >= dense.size() || !dense[index]) return nullptr;
  return &dense[index];
}

Millis SimTransport::latency(Address from, Address to) const {
  using Kind = Address::Kind;
  if (from.kind == Kind::kRegion && to.kind == Kind::kRegion) {
    return backbone_->at(from.as_region(), to.as_region());
  }
  if (from.kind == Kind::kClient && to.kind == Kind::kRegion) {
    return clients_->at(from.as_client(), to.as_region());
  }
  if (from.kind == Kind::kRegion && to.kind == Kind::kClient) {
    return clients_->at(to.as_client(), from.as_region());
  }
  // Cohort links: every member shares one latency row by construction, so
  // the directory's per-(flock, region) value is the members' exact value.
  if (from.kind == Kind::kCohort && to.kind == Kind::kRegion) {
    MP_EXPECTS(directory_ != nullptr);
    return directory_->flock_latency(from.as_flock(), to.as_region());
  }
  if (from.kind == Kind::kRegion && to.kind == Kind::kCohort) {
    MP_EXPECTS(directory_ != nullptr);
    return directory_->flock_latency(to.as_flock(), from.as_region());
  }
  MP_EXPECTS(false && "client<->client links do not exist");
  return kUnreachable;
}

void SimTransport::enable_jitter(const JitterSpec& spec, std::uint64_t seed) {
  MP_EXPECTS(spec.relative >= 0.0 && spec.absolute_ms >= 0.0);
  // A weighted cohort delivery cannot replay w per-member jitter draws.
  MP_EXPECTS(directory_ == nullptr);
  jitter_.emplace(Jitter{spec, seed});
  reset_streams(/*jitter=*/true, /*coins=*/false);
}

void SimTransport::disable_jitter() {
  jitter_.reset();
  reset_streams(/*jitter=*/true, /*coins=*/false);
}

void SimTransport::set_fault_plan(FaultPlan* plan) {
  fault_plan_ = plan;
  reset_streams(/*jitter=*/false, /*coins=*/true);
}

void SimTransport::reset_streams(bool jitter, bool coins) {
  for (auto& lane : lanes_) {
    if (jitter) lane->jitter_streams.clear();
    if (coins) lane->coin_streams.clear();
  }
}

Millis SimTransport::jittered(ShardLane& lane, Address from, Address to,
                              Millis delay) {
  const std::uint64_t key = link_key(from, to);
  auto it = lane.jitter_streams.find(key);
  if (it == lane.jitter_streams.end()) {
    it = lane.jitter_streams
             .emplace(key, Rng(derive_stream_seed(jitter_->seed, key)))
             .first;
  }
  Rng& stream = it->second;
  return delay * stream.uniform(1.0, 1.0 + jitter_->spec.relative) +
         std::abs(stream.normal(0.0, jitter_->spec.absolute_ms));
}

Rng& SimTransport::coin_stream(ShardLane& lane, Address from, Address to) {
  const std::uint64_t key = link_key(from, to);
  auto it = lane.coin_streams.find(key);
  if (it == lane.coin_streams.end()) {
    it = lane.coin_streams
             .emplace(key, Rng(derive_stream_seed(
                               fault_plan_->seed() ^ kCoinDomain, key)))
             .first;
  }
  return it->second;
}

std::uint64_t SimTransport::publish_drop_count(TopicId topic) const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    const auto it = lane->publish_drops.find(topic.value());
    if (it != lane->publish_drops.end()) total += it->second;
  }
  return total;
}

const CostLedger& SimTransport::ledger() const {
  for (std::size_t r = 0; r < bills_.size(); ++r) {
    ledger_.inter_region_bytes[r] = bills_[r].inter_region;
    ledger_.internet_bytes[r] = bills_[r].internet;
  }
  return ledger_;
}

Dollars SimTransport::topic_cost(TopicId topic) const {
  // Region-id order: a deterministic merge of the per-region byte totals,
  // converted to dollars at read time — one multiply per (region, tariff),
  // so the result is independent of how many sends accumulated the bytes.
  Dollars total = 0.0;
  for (std::size_t r = 0; r < bills_.size(); ++r) {
    const RegionBill& bill = bills_[r];
    const geo::Region& region =
        catalog_->at(RegionId{static_cast<std::int32_t>(r)});
    const auto inter = bill.topic_inter.find(topic);
    if (inter != bill.topic_inter.end()) {
      total += static_cast<double>(inter->second) * region.alpha_per_byte();
    }
    const auto internet = bill.topic_internet.find(topic);
    if (internet != bill.topic_internet.end()) {
      total += static_cast<double>(internet->second) * region.beta_per_byte();
    }
  }
  return total;
}

Dollars SimTransport::topic_cost_total() const {
  Dollars total = 0.0;
  for (std::size_t r = 0; r < bills_.size(); ++r) {
    const RegionBill& bill = bills_[r];
    const geo::Region& region =
        catalog_->at(RegionId{static_cast<std::int32_t>(r)});
    for (const auto& [topic, bytes] : bill.topic_inter) {
      total += static_cast<double>(bytes) * region.alpha_per_byte();
    }
    for (const auto& [topic, bytes] : bill.topic_internet) {
      total += static_cast<double>(bytes) * region.beta_per_byte();
    }
  }
  return total;
}

void SimTransport::set_region_down(RegionId region, bool down) {
  MP_EXPECTS(region.valid() && region.index() < region_down_.size());
  region_down_[region.index()] = down;
}

bool SimTransport::region_down(RegionId region) const {
  MP_EXPECTS(region.valid() && region.index() < region_down_.size());
  return region_down_[region.index()];
}

void SimTransport::deliver(const DeliveryEvent& event) {
  const std::size_t shard = sim_->current_shard();
  // Every counter moves by the message's weight: a cohort delivery stands
  // for `weight` per-client copies (weight is 1 for ordinary traffic, so
  // this is the seed arithmetic outside cohort mode).
  const std::uint32_t weight = event.msg.weight;
  // Drop-on-arrival: the destination region died while this message was in
  // flight. The bytes were billed at departure (they left the sender), but
  // a dead datacenter processes nothing.
  if (event.to.kind == Address::Kind::kRegion &&
      region_down(event.to.as_region())) {
    drop(shard, event.msg, weight, &dropped_dead_arrival_);
    return;
  }
  const Handler* handler = find_handler(event.to);
  if (handler == nullptr) {
    drop(shard, event.msg, weight, &dropped_unregistered_);
    return;
  }
  delivered_.add(shard, weight);
  // Mark the slot as executing so register_handler can reject replacing it
  // mid-call (the deque keeps the reference stable against table growth).
  ShardLane& self = lane(shard);
  const Handler* previous = self.active_handler;
  self.active_handler = handler;
  (*handler)(event.msg);
  self.active_handler = previous;
}

void SimTransport::drop_sender_down(std::uint64_t copies) {
  const std::size_t shard = sim_->current_shard();
  dropped_.add(shard, copies);
  dropped_sender_down_.add(shard, copies);
}

void SimTransport::drop(std::size_t shard, const wire::Message& msg,
                        std::uint32_t weight, ShardedCounter* reason) {
  dropped_.add(shard, weight);
  if (reason != nullptr) reason->add(shard, weight);
  if (msg.type == wire::MessageType::kPublish) {
    lane(shard).publish_drops[msg.topic.value()] += weight;
  }
}

SimTransport::SendCall SimTransport::open_call(Address from,
                                               const wire::Message& msg) {
  SendCall call{from, sim_->share(msg), sim_->current_shard(),
                &lane(sim_->owner_shard(from))};
  if (from.kind == Address::Kind::kRegion) {
    call.bill = &bills_[from.as_region().index()];
    call.billable = msg.billable_bytes();
  }
  return call;
}

// Inlined into every caller: an out-of-line hop per target costs the
// fan-out loop measurably (DESIGN.md §9).
[[gnu::always_inline]] inline void SimTransport::send_hop(
    SendCall& call, Address to, ClientId subscriber, std::uint32_t weight,
    Address link) {
  const wire::Message& msg = *call.shared.msg;
  const Address from = call.from;
  const std::size_t shard = call.shard;
  // A message towards a dead destination is lost in transit.
  if (to.kind == Address::Kind::kRegion && region_down(to.as_region())) {
    sent_.add(shard, weight);
    drop(shard, msg, weight, nullptr);
    return;
  }

  // Injected faults: a partitioned or coin-flipped-away message is lost in
  // transit (sent, dropped, not billed — like a send towards a dead
  // region); delay rules stretch the latency below. The sender's OWNER
  // shard keys the stream lane: every send on a link draws from one stream
  // in per-link send order, whether it runs inside a window (where the
  // executing shard IS the owner shard) or from the quiescent control
  // plane — the link's position never forks across lanes.
  FaultPlan::Outcome fault;
  if (fault_plan_ != nullptr &&
      (!reliable_control_ || is_data_kind(msg.type))) {
    if (from.kind == Address::Kind::kCohort) {
      // A weighted control send stands for `weight` client-originated
      // sends, each of which would draw from its own per-client link
      // stream; no generated schedule installs client-originated rules, so
      // reject them rather than replay them wrong.
      MP_EXPECTS(!fault_plan_->may_affect_client_sends(to, sim_->now()) &&
                 "client-originated fault rules are unsupported in cohort "
                 "mode");
      // No rule can match this hop: the per-client loop would have
      // consulted the plan and drawn nothing.
    } else if (link.kind != Address::Kind::kCohort) {
      fault = fault_plan_->apply(from, link, sim_->now(),
                                 coin_stream(*call.sender_lane, from, link));
      if (fault.dropped) {
        sent_.add(shard, weight);
        drop(shard, msg, weight, &dropped_faulted_);
        return;
      }
    }
  }

  // Bill egress at the sender's tariff before the message is even delivered:
  // the bytes leave the region regardless of what happens downstream.
  if (call.bill != nullptr) {
    const Bytes billed = call.billable * weight;
    if (to.kind == Address::Kind::kRegion) {
      if (call.topic_inter == nullptr) {
        call.topic_inter = &call.bill->topic_inter[msg.topic];
      }
      call.bill->inter_region += billed;
      *call.topic_inter += billed;
    } else {
      if (call.topic_internet == nullptr) {
        call.topic_internet = &call.bill->topic_internet[msg.topic];
      }
      call.bill->internet += billed;
      *call.topic_internet += billed;
    }
  }

  // The delay expression is the same for every target kind, so a whole
  // flock lands exactly when each member would (x * 1 + 0 is exact for the
  // positive latencies the matrices hold).
  Millis delay = latency(from, to);
  if (jitter_.has_value()) {
    delay = jittered(*call.sender_lane, from, to, delay);
  }
  delay = delay * fault.delay_factor + fault.delay_extra_ms;
  sent_.add(shard, weight);
  sim_->schedule_delivery_after(delay, *this, from, to, call.shared,
                                subscriber, weight);
}

void SimTransport::send_flock(SendCall& call, Address to,
                              std::uint32_t weight) {
  const wire::Message& msg = *call.shared.msg;
  MP_EXPECTS(call.from.kind == Address::Kind::kRegion);
  MP_EXPECTS(directory_ != nullptr && !jitter_.has_value());
  if (msg.type == wire::MessageType::kReplayBatch && msg.subscriber.valid()) {
    // Member-addressed replay: one member asked, one member is served —
    // exactly the single send() the per-client plane performs, drawing the
    // member's own region->client coin.
    send_hop(call, to, msg.subscriber, 1, Address::client(msg.subscriber));
    return;
  }
  if (fault_plan_ != nullptr &&
      (!reliable_control_ || is_data_kind(msg.type)) &&
      fault_plan_->may_affect_client_deliveries(call.from, sim_->now())) {
    // Exact per-member replay: each member's coin comes from its own
    // region->client link stream — the very streams the per-client plane
    // consumes — and survivors travel as weight-1 deliveries addressed to
    // the flock with the member stamped in `subscriber`.
    for (const ClientId member : directory_->flock_members(to.as_flock())) {
      send_hop(call, to, member, 1, Address::client(member));
    }
    return;
  }
  // Whole flock: no active rule can touch region->client links, so the
  // per-client loop would have drawn nothing and scheduled `weight`
  // identical copies; one weighted delivery records the same books. A
  // retired flock has nobody to deliver to.
  if (weight == 0) return;
  send_hop(call, to, ClientId{-1} /* whole-flock sentinel */, weight, to);
}

void SimTransport::send(Address from, Address to, wire::Message msg) {
  // Outage handling: a dead region neither sends nor receives. A dead
  // sender emits nothing (and bills nothing); send_hop drops messages
  // towards a dead destination.
  if (sender_down(from)) {
    drop_sender_down(msg.weight);
    return;
  }
  SendCall call = open_call(from, msg);
  if (to.kind == Address::Kind::kCohort) {
    // The caller (a broker or region manager) set msg.weight to the number
    // of per-client copies this send stands for.
    send_flock(call, to, msg.weight);
  } else {
    send_hop(call, to, msg.subscriber, msg.weight, to);
  }
}

void SimTransport::send_batch(Address from, std::span<const Address> targets,
                              const wire::Message& msg,
                              wire::MessageType stamped_type) {
  if (targets.empty()) return;
  if (sender_down(from)) {
    // Exactly what the per-target send() loop records: one drop per copy,
    // nothing sent, nothing billed. Cohort targets weigh their member
    // count.
    std::uint64_t copies = 0;
    for (const Address to : targets) {
      copies += to.kind == Address::Kind::kCohort
                    ? directory_->flock_weight(to.as_flock())
                    : msg.weight;
    }
    drop_sender_down(copies);
    return;
  }

  wire::Message stamped = msg;
  stamped.type = stamped_type;
  // The whole batch shares one stored copy of the stamped message and one
  // set of sender-side billing facts; each delivery keeps only its own
  // subscriber stamp and weight.
  SendCall call = open_call(from, stamped);
  for (const Address to : targets) {
    if (to.kind == Address::Kind::kCohort) {
      send_flock(call, to, directory_->flock_weight(to.as_flock()));
      continue;
    }
    // Per-target stamp; region targets keep the original subscriber so a
    // mixed batch cannot leak one client's stamp into a broker-bound copy.
    send_hop(call, to,
             to.kind == Address::Kind::kClient ? to.as_client()
                                               : msg.subscriber,
             msg.weight, to);
  }
}

}  // namespace multipub::net
