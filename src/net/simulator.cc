#include "net/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.h"

namespace multipub::net {

namespace {
constexpr std::uint32_t kKindAction = 0;
constexpr std::uint32_t kKindDelivery = 1;
constexpr std::size_t kArity = 4;
// Aimed-for events per rung bucket == steady-state near-heap depth: small
// enough that the near heap's sift path stays in L1/L2.
constexpr std::size_t kBucketTarget = 2048;
constexpr std::size_t kMaxBuckets = 8192;
// A promoted bucket above this size gets a child rung instead of going
// straight into the near heap.
constexpr std::size_t kSpawnThreshold = 2 * kBucketTarget;

/// One spin-wait pause: keeps the core's speculative pipeline calm (and on
/// SMT hands cycles to the sibling) without giving up the time slice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

void Simulator::EventStore::heap_push(const CompactEvent& event) {
  std::size_t i = heap_.size();
  heap_.push_back(event);
  // Hole-based sift-up: shift parents down instead of swapping.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(event, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = event;
}

void Simulator::EventStore::push_top(const CompactEvent& event) {
  if (top_.empty()) {
    top_min_ = event.time;
    top_max_ = event.time;
  } else {
    top_min_ = std::min(top_min_, event.time);
    top_max_ = std::max(top_max_, event.time);
  }
  top_.push_back(event);
}

void Simulator::EventStore::far_push(const CompactEvent& event) {
  ++compact_pending_;
  if (depth_ == 0) {
    push_top(event);
    return;
  }
  for (std::size_t level = 0;; ++level) {
    Rung& rung = rungs_[level];
    // Compare in double first: casting an out-of-range value to size_t is
    // UB, and a pathological far-future timestamp must simply go to top_.
    const double idx_d = (event.time - rung.start) / rung.width;
    // Below the rung's start. At the first rung this is legal after
    // run_until stops short of its coverage (the clock was advanced to a
    // time below its start); at a child rung the parent's bucket simply
    // starts below the earliest event the child was spread from. Either
    // way the event precedes everything this rung and its children hold,
    // so the near heap is its ordering-preserving home.
    if (idx_d < 0.0) break;
    std::size_t idx = rung.count - 1;
    if (idx_d < static_cast<double>(rung.count)) {
      idx = static_cast<std::size_t>(idx_d);
    } else if (level == 0) {
      // Beyond the first rung's coverage. The top list keeps the exact
      // boundary (no clamping), so top events never precede rung events.
      push_top(event);
      return;
    }
    // (A child rung clamps: the parent's floor already placed the event in
    // the child's domain, and its last bucket is still monotone.)
    if (idx >= rung.cur) {
      rung.buckets[idx].push_back(event);
      return;
    }
    // Its bucket has been promoted: if that bucket became the next rung,
    // descend into it; otherwise the near heap is now the only store
    // allowed to hold the event.
    if (idx + 1 != rung.cur || level + 1 == depth_) break;
  }
  heap_push(event);
}

void Simulator::EventStore::build_rung() {
  // One pass: distribute the top list over constant-width buckets sized so
  // a bucket holds ~kBucketTarget events. Width 0 (all-equal timestamps)
  // degenerates to a single bucket. The mapping here must be the EXACT
  // computation far_push uses, so an event at the coverage boundary (FP
  // rounding can push floor((max-start)/width) to count) stays in the top
  // list rather than being force-clamped into the last bucket — that keeps
  // "top events never precede bucket events" airtight. At least the
  // top-minimum always lands in bucket 0, so the rebuild loop terminates.
  Rung& rung = rungs_[0];
  depth_ = 1;
  rung.count = std::clamp<std::size_t>(top_.size() / kBucketTarget + 1, 1,
                                       kMaxBuckets);
  if (rung.buckets.size() < rung.count) rung.buckets.resize(rung.count);
  rung.start = top_min_;
  rung.width = (top_max_ - top_min_) / static_cast<double>(rung.count);
  if (!(rung.width > 0.0)) rung.width = 1.0;
  rung.cur = 0;
  std::size_t kept = 0;
  Millis kept_min = 0.0, kept_max = 0.0;
  for (const CompactEvent& event : top_) {
    const double idx_d = (event.time - rung.start) / rung.width;
    if (idx_d < static_cast<double>(rung.count)) {
      rung.buckets[static_cast<std::size_t>(idx_d)].push_back(event);
      continue;
    }
    if (kept == 0) {
      kept_min = event.time;
      kept_max = event.time;
    } else {
      kept_min = std::min(kept_min, event.time);
      kept_max = std::max(kept_max, event.time);
    }
    top_[kept++] = event;
  }
  top_.resize(kept);
  top_min_ = kept_min;
  top_max_ = kept_max;
}

void Simulator::EventStore::promote_bucket() {
  Rung& rung = rungs_[depth_ - 1];
  std::vector<CompactEvent>& bucket = rung.buckets[rung.cur];
  ++rung.cur;
  if (bucket.size() > kSpawnThreshold && depth_ < kMaxRungs) {
    Millis lo = bucket.front().time;
    Millis hi = lo;
    for (const CompactEvent& event : bucket) {
      lo = std::min(lo, event.time);
      hi = std::max(hi, event.time);
    }
    Rung& child = rungs_[depth_];
    child.count = std::min(bucket.size() / kBucketTarget + 1, kMaxBuckets);
    child.width = (hi - lo) / static_cast<double>(child.count);
    // All-equal times (or a span too small to split) cannot be spread:
    // such a bucket is heapified whole.
    if (child.width > 0.0) {
      if (child.buckets.size() < child.count) {
        child.buckets.resize(child.count);
      }
      child.start = lo;
      child.cur = 0;
      ++depth_;
      // Same floor as far_push, clamped: FP rounding can map `hi` to count.
      for (const CompactEvent& event : bucket) {
        const auto idx = std::min(
            static_cast<std::size_t>((event.time - lo) / child.width),
            child.count - 1);
        child.buckets[idx].push_back(event);
      }
      bucket.clear();
      return;
    }
  }
  // These events dispatch next. Fetch their records, then the messages
  // the records name, for the whole bucket at once: the misses overlap
  // instead of stalling one dispatch each.
  for (const CompactEvent& event : bucket) {
    if (event.kind() == kKindDelivery) {
      __builtin_prefetch(&deliveries_[event.slot()]);
    }
  }
  for (const CompactEvent& event : bucket) {
    if (event.kind() == kKindDelivery) {
      __builtin_prefetch(&payloads_[deliveries_[event.slot()].payload]);
    }
    heap_push(event);
  }
  bucket.clear();
}

void Simulator::EventStore::refill() {
  while (heap_.empty()) {
    if (depth_ > 0 && rungs_[depth_ - 1].cur < rungs_[depth_ - 1].count) {
      promote_bucket();
      continue;
    }
    if (depth_ > 1) {
      // An exhausted child rung: its whole domain has reached the near
      // heap, so its parent's promoted bucket is now simply promoted.
      --depth_;
      continue;
    }
    if (top_.empty()) return;  // fully drained
    build_rung();
  }
}

Simulator::CompactEvent Simulator::EventStore::heap_pop() {
  const CompactEvent top = heap_.front();
  const CompactEvent last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t end_child = std::min(first_child + kArity, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Simulator::EventStore::insert_action(Millis t, Simulator::Action action) {
  const std::uint32_t slot = actions_.acquire();
  actions_[slot] = std::move(action);
  far_push(CompactEvent::make(t, seq++, kKindAction, slot));
}

std::uint32_t Simulator::EventStore::intern(const wire::Message& msg) {
  const std::uint32_t slot = payloads_.acquire();
  payloads_[slot] = SharedPayload{msg, 0};
  return slot;
}

void Simulator::EventStore::insert_record(Millis t,
                                          const DeliveryRecord& record) {
  ++payloads_[record.payload].refs;
  const std::uint32_t slot = deliveries_.acquire();
  deliveries_[slot] = record;
  far_push(CompactEvent::make(t, seq++, kKindDelivery, slot));
}

void Simulator::EventStore::insert_delivery(Millis t, DeliveryRecord record,
                                            const SharedMessage& shared) {
  if (shared.id != share_id_) {
    share_slot_ = intern(*shared.msg);
    share_id_ = shared.id;
  }
  record.payload = share_slot_;
  insert_record(t, record);
}

Millis Simulator::EventStore::next_time() {
  if (heap_.empty()) refill();
  return heap_.empty() ? kUnreachable : heap_.front().time;
}

void Simulator::EventStore::dispatch_one() {
  const CompactEvent event = heap_pop();
  --compact_pending_;
  clock = event.time;
  ++processed;
  const std::uint32_t slot = event.slot();
  if (event.kind() == kKindAction) {
    // Move the callback out and release the slot before invoking: the
    // action may schedule new events, growing or reusing the pool.
    Action action = std::move(actions_[slot]);
    actions_[slot] = nullptr;
    actions_.release(slot);
    action();
    return;
  }
  // Rebuild the hop on the stack and release both slots before invoking:
  // the handler may schedule further hops, reusing either slot or growing
  // either pool.
  const DeliveryRecord record = deliveries_[slot];
  deliveries_.release(slot);
  SharedPayload& shared = payloads_[record.payload];
  DeliveryEvent delivery{record.sink, record.from, record.to, shared.msg};
  delivery.msg.subscriber = record.subscriber;
  delivery.msg.weight = record.weight;
  if (--shared.refs == 0) {
    payloads_.release(record.payload);
    // A recycled slot must not be mistaken for the cached fan-out's.
    if (record.payload == share_slot_) share_id_ = kNoShare;
  }
  record.sink->deliver(delivery);
}

Simulator::~Simulator() { shutdown_workers(); }

std::size_t Simulator::pending() const {
  std::size_t total = 0;
  for (const auto& store : stores_) total += store->compact_pending_;
  return total;
}

std::uint64_t Simulator::processed() const {
  std::uint64_t total = processed_base_;
  for (const auto& store : stores_) total += store->processed;
  return total;
}

void Simulator::configure_shards(ShardMap map, Millis lookahead) {
  MP_EXPECTS(pending() == 0);
  MP_EXPECTS(tls_store_ == nullptr);
  MP_EXPECTS(map.shards >= 1);
  shutdown_workers();
  const std::uint32_t k = map.shards;
  map_ = std::move(map);
  // Fresh stores: pools and per-shard sequence counters restart, the clocks
  // carry the current time forward, and already-dispatched counts fold into
  // the base so processed() stays monotone.
  for (const auto& store : stores_) processed_base_ += store->processed;
  stores_.clear();
  stores_.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    stores_.push_back(std::make_unique<EventStore>(i));
    stores_.back()->clock = now_;
  }
  mail_.assign(static_cast<std::size_t>(k) * k, Mailbox{});
  // The lookahead matrix is per-map (it depends on which entities share a
  // shard); the caller re-derives it for the new map before an adaptive run.
  la_.clear();
  dist_.clear();
  window_end_.assign(k, 0.0);
  next_times_.assign(k, 0.0);
  window_base_.assign(k, 0);
  sync_.assign(k, ShardSync{});
  windows_ = 0;
  width_sum_ = 0.0;
  width_max_ = 0.0;
  mail_items_ = 0;
  critical_events_ = 0;
  // No workers exist here (shutdown_workers above), so plain stores suffice;
  // thread creation below publishes everything to the new workers.
  epoch_.store(0, std::memory_order_relaxed);
  arrivals_.store(0, std::memory_order_relaxed);
  parties_ = k;
  if (k == 1) {
    lookahead_ = 0.0;
    return;
  }
  MP_EXPECTS(lookahead > 0.0);
  lookahead_ = lookahead;
  workers_.reserve(k - 1);
  for (std::uint32_t i = 1; i < k; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Simulator::set_lookahead(Millis lookahead) {
  MP_EXPECTS(sharded());
  MP_EXPECTS(tls_store_ == nullptr);
  MP_EXPECTS(lookahead > 0.0);
  lookahead_ = lookahead;
}

void Simulator::set_window_policy(WindowPolicy policy) {
  MP_EXPECTS(tls_store_ == nullptr);
  policy_ = policy;
}

void Simulator::set_lookahead_matrix(std::vector<Millis> lookaheads) {
  MP_EXPECTS(sharded());
  MP_EXPECTS(tls_store_ == nullptr);
  const std::size_t k = stores_.size();
  MP_EXPECTS(lookaheads.size() == k * k);
  for (const Millis entry : lookaheads) MP_EXPECTS(entry >= 0.0);
  la_ = std::move(lookaheads);
  // Shortest-walk closure by Floyd–Warshall with an UNREACHABLE diagonal:
  // starting from the direct edges only, dist_[i][j] (i != j) relaxes to the
  // cheapest >= 1-hop walk i -> j, and dist_[i][i] to the cheapest cycle
  // through i. The closure — not the raw edges — is what bounds adaptive
  // windows: a busy shard A can reach d indirectly by waking an idle shard
  // that then sends to d, and that chain costs at least dist_[A][d]. The
  // diagonal cycle term likewise stops a lone busy shard from running past
  // the earliest echo of its own sends. Entries stay kUnreachable exactly
  // when no chain exists at all, in which case no bound is needed.
  dist_.assign(k * k, kUnreachable);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i != j) dist_[i * k + j] = la_[i * k + j];
    }
  }
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < k; ++i) {
      const Millis im = dist_[i * k + m];
      if (!(im < kUnreachable)) continue;
      for (std::size_t j = 0; j < k; ++j) {
        const Millis cand = im + dist_[m * k + j];
        if (cand < dist_[i * k + j]) dist_[i * k + j] = cand;
      }
    }
  }
}

WindowStats Simulator::window_stats() const {
  WindowStats stats;
  if (!sharded()) return stats;
  stats.windows = windows_;
  stats.width_sum = width_sum_;
  stats.width_max = width_max_;
  stats.mail_items = mail_items_;
  stats.critical_events = critical_events_;
  // sync_ slots are single-writer; the kEndRun ack barrier ordered every
  // worker's in-run counter writes before this (between-runs) read.
  for (const ShardSync& sync : sync_) {
    stats.barrier_spins += sync.spins;
    stats.barrier_parks += sync.parks;
  }
  for (const auto& store : stores_) stats.events += store->processed;
  return stats;
}

void Simulator::shutdown_workers() {
  if (workers_.empty()) return;
  // Workers are parked in await_publication between runs, so command_ is
  // ours to write; publish() hands it over and wakes them.
  command_ = Command::kShutdown;
  publish();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Simulator::schedule_at(Millis t, Action action) {
  MP_EXPECTS(t >= now());
  // Inside a window the action stays on the dispatching shard (timers are
  // entity-local); outside, shard 0 hosts un-hinted actions.
  EventStore& store = tls_store_ != nullptr ? *tls_store_ : *stores_[0];
  store.insert_action(t, std::move(action));
}

void Simulator::schedule_at(Millis t, Address owner, Action action) {
  MP_EXPECTS(t >= now());
  EventStore& store = *stores_[owner_shard(owner)];
  // Cross-shard actions have no sequenced channel — only deliveries do — so
  // from inside a window the owner must be local.
  MP_EXPECTS(tls_store_ == nullptr || tls_store_ == &store);
  store.insert_action(t, std::move(action));
}

void Simulator::schedule_after(Millis delay, Action action) {
  MP_EXPECTS(delay >= 0.0);
  schedule_at(now() + delay, std::move(action));
}

Simulator::SharedMessage Simulator::share(const wire::Message& msg) {
  std::uint64_t& next = tls_store_ != nullptr ? tls_store_->next_share
                                              : next_share_;
  return {&msg, next++};
}

void Simulator::schedule_delivery_at(Millis t, DeliverySink& sink,
                                     Address from, Address to,
                                     const SharedMessage& shared,
                                     ClientId subscriber,
                                     std::uint32_t weight) {
  MP_EXPECTS(t >= now());
  const DeliveryRecord record{&sink, from, to, subscriber, weight, 0};
  if (!sharded()) {
    stores_[0]->insert_delivery(t, record, shared);
    return;
  }
  const std::uint32_t dst = map_.shard_of(to);
  if (tls_store_ == nullptr) {
    // No window running (control plane, test setup): every store is
    // quiescent, insert straight into the owner's.
    stores_[dst]->insert_delivery(t, record, shared);
    return;
  }
  if (dst == tls_shard_) {
    tls_store_->insert_delivery(t, record, shared);
    return;
  }
  // Cross-shard: park in the (src, dst) mailbox until the window barrier.
  mail_[static_cast<std::size_t>(tls_shard_) * stores_.size() + dst].push(
      t, record, shared);
}

void Simulator::schedule_delivery_after(Millis delay, DeliverySink& sink,
                                        Address from, Address to,
                                        const SharedMessage& shared,
                                        ClientId subscriber,
                                        std::uint32_t weight) {
  MP_EXPECTS(delay >= 0.0);
  schedule_delivery_at(now() + delay, sink, from, to, shared, subscriber,
                       weight);
}

bool Simulator::step() {
  MP_EXPECTS(!sharded());  // the parallel plane runs whole windows
  EventStore& store = *stores_[0];
  if (store.next_time() == kUnreachable) return false;
  tls_store_ = &store;
  store.dispatch_one();
  tls_store_ = nullptr;
  now_ = store.clock;
  return true;
}

void Simulator::run_window(std::uint32_t shard) {
  EventStore& store = *stores_[shard];
  tls_store_ = &store;
  tls_shard_ = shard;
  const Millis end = window_end_[shard];
  while (store.next_time() < end) store.dispatch_one();
  tls_store_ = nullptr;
  tls_shard_ = 0;
}

void Simulator::drain_all_inboxes() {
  const std::size_t k = stores_.size();
  // Fixed merge order — source shard ascending, FIFO within a source — with
  // fresh destination-local sequence numbers: the interleaving is a pure
  // function of the schedule-independent send order, never of thread timing.
  for (std::size_t dst = 0; dst < k; ++dst) {
    EventStore& store = *stores_[dst];
    for (std::size_t src = 0; src < k; ++src) {
      Mailbox& box = mail_[src * k + dst];
      if (box.full.empty() && box.tail.empty()) continue;
      const auto insert = [&](const MailItem& item) {
        // Conservative-window invariant: a cross-shard send arrives no
        // earlier than the end of the window its destination just ran (the
        // destination's window end is bounded by every busy shard's horizon
        // plus the lookahead closure — see plan_round).
        MP_EXPECTS(item.time >= window_end_[dst]);
        // A fan-out's message crossed once per mailbox; it takes one
        // payload slot here, on its first delivery.
        MailPayload& payload = box.payloads[item.record.payload];
        if (payload.slot == Mailbox::kNoSlot) {
          payload.slot = store.intern(payload.msg);
        }
        DeliveryRecord record = item.record;
        record.payload = payload.slot;
        store.insert_record(item.time, record);
      };
      for (std::vector<MailItem>& chunk : box.full) {
        for (const MailItem& item : chunk) insert(item);
        mail_items_ += chunk.size();
        chunk.clear();
        box.spare.push_back(std::move(chunk));
      }
      box.full.clear();
      for (const MailItem& item : box.tail) insert(item);
      mail_items_ += box.tail.size();
      box.tail.clear();
      box.payloads.clear();
      box.share_id = kNoShare;
    }
  }
}

void Simulator::plan_round() {
  const std::size_t k = stores_.size();
  Millis t_min = kUnreachable;
  for (std::size_t i = 0; i < k; ++i) {
    next_times_[i] = stores_[i]->next_time();
    t_min = std::min(t_min, next_times_[i]);
    window_base_[i] = stores_[i]->processed;
  }
  if (!(t_min < limit_)) {
    command_ = Command::kEndRun;
    return;
  }
  command_ = Command::kRunWindow;
  if (policy_ == WindowPolicy::kFixed) {
    // Window [t_min, t_min + lookahead) for every shard: any event inside it
    // can only reach another shard at t >= end (delays are at least the
    // lookahead; jitter and fault factors only stretch them). IEEE addition
    // is monotone, so computed arrival times respect the bound; nextafter
    // keeps the window non-empty even when lookahead_ vanishes against the
    // ulp of t_min.
    Millis end = t_min + lookahead_;
    if (!(end > t_min)) end = std::nextafter(t_min, kUnreachable);
    end = std::min(end, limit_);
    for (std::size_t d = 0; d < k; ++d) window_end_[d] = end;
  } else {
    // Adaptive: shard d may run to the earliest time any BUSY shard's work
    // could possibly reach it — directly or through a chain of reactivated
    // shards, hence the walk closure dist_, whose diagonal also bounds d
    // against echoes of its own sends. Idle shards impose no bound, so a
    // lone busy shard advances a full self-cycle per round and quiet
    // stretches collapse; with every shard busy at ~t_min this degenerates
    // to the fixed pacing. Soundness of the drain assert: a send dispatched
    // by src at t_e arrives >= t_e + la_[src][dst] >= next_times_[src] +
    // dist_[src][dst] >= window_end_[dst].
    for (std::size_t d = 0; d < k; ++d) {
      Millis end = kUnreachable;
      for (std::size_t a = 0; a < k; ++a) {
        if (!(next_times_[a] < kUnreachable)) continue;
        end = std::min(end, next_times_[a] + dist_[a * k + d]);
      }
      if (!(end > t_min)) end = std::nextafter(t_min, kUnreachable);
      window_end_[d] = std::min(end, limit_);
    }
  }
  ++windows_;
  Millis top = window_end_[0];
  for (std::size_t d = 1; d < k; ++d) top = std::max(top, window_end_[d]);
  const Millis width = top - t_min;
  width_sum_ += width;
  width_max_ = std::max(width_max_, width);
}

void Simulator::serial_phase() {
  if (command_ != Command::kRunWindow) return;  // kEndRun ack: nothing to do
  // The round's critical path: its busiest shard's dispatch count, read off
  // the stores' counters, so the shards' dispatch loops pay nothing for it.
  std::uint64_t busiest = 0;
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    busiest = std::max(busiest, stores_[i]->processed - window_base_[i]);
  }
  critical_events_ += busiest;
  drain_all_inboxes();
  plan_round();
}

std::uint32_t Simulator::arrive_and_wait(std::uint32_t shard,
                                         std::uint32_t seen,
                                         bool window_round) {
  if (arrivals_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arriver. Everyone else is spinning or parked on epoch_, so the
    // reset cannot race a next-round arrival; the release bump below
    // publishes it (and the serial phase's work) together.
    arrivals_.store(0, std::memory_order_relaxed);
    serial_phase();
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    return seen + 1;
  }
  return window_round ? await_change(seen, shard) : await_publication(seen);
}

std::uint32_t Simulator::await_change(std::uint32_t seen, std::uint32_t shard) {
  // Exponential-backoff spin: load-balanced windows flip the epoch within a
  // few hundred cycles, so most waits resolve here without a syscall.
  for (std::uint32_t delay = 1; delay <= 64; delay *= 2) {
    for (std::uint32_t i = 0; i < delay; ++i) cpu_relax();
    if (epoch_.load(std::memory_order_acquire) != seen) {
      ++sync_[shard].spins;
      return seen + 1;
    }
  }
  for (int i = 0; i < 8; ++i) {
    std::this_thread::yield();
    if (epoch_.load(std::memory_order_acquire) != seen) {
      ++sync_[shard].spins;
      return seen + 1;
    }
  }
  ++sync_[shard].parks;
  return await_publication(seen);
}

std::uint32_t Simulator::await_publication(std::uint32_t seen) {
  // Waits until epoch_ != seen (the != comparison is wrap-safe), then
  // consumes exactly ONE protocol step: the return is seen + 1, NOT the
  // loaded epoch. A slow waiter can observe two bumps merged — the kEndRun
  // ack plus the very next publication — and adopting the loaded value
  // would swallow the publication and strand the thread waiting for a
  // change that already happened. Stepping one epoch at a time keeps every
  // transition processed; the epoch can only run ahead across steps the
  // caller does not read state from (the ack break), because any window
  // round needs this thread's arrival before it can complete. Reading a
  // LATER epoch still synchronizes: the bumps are an RMW release sequence,
  // so the acquire load sees every serial phase up to that epoch.
  while (epoch_.load(std::memory_order_acquire) == seen) {
    epoch_.wait(seen, std::memory_order_acquire);
  }
  return seen + 1;
}

std::uint32_t Simulator::publish() {
  const std::uint32_t next =
      epoch_.fetch_add(1, std::memory_order_release) + 1;
  epoch_.notify_all();
  return next;
}

void Simulator::worker_loop(std::uint32_t shard) {
  // configure_shards() zeroes epoch_ before spawning, so epoch 0 is the
  // well-known starting point — loading epoch_ here instead could miss a
  // publication that lands between spawn and load.
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_publication(seen);  // a command round was published
    for (;;) {
      // Safe to read: the publication (or the previous round's serial
      // phase) wrote command_ before the epoch bump this thread acquired.
      const Command command = command_;
      if (command == Command::kShutdown) return;
      if (command == Command::kEndRun) {
        // Ack round: after it the driver owns command_ again and this
        // thread is back to waiting for a fresh publication.
        seen = arrive_and_wait(shard, seen, /*window_round=*/false);
        break;
      }
      run_window(shard);
      seen = arrive_and_wait(shard, seen, /*window_round=*/true);
    }
  }
}

void Simulator::run_windows(Millis limit) {
  MP_EXPECTS(tls_store_ == nullptr);
  MP_EXPECTS(policy_ == WindowPolicy::kFixed ||
             dist_.size() == stores_.size() * stores_.size());
  limit_ = limit;
  // Mailboxes are empty here (every serial phase drains before planning),
  // so the entry plan needs no drain.
  plan_round();
  std::uint32_t seen = publish();
  for (;;) {
    if (command_ == Command::kEndRun) {
      // Ack round: every worker has read kEndRun; command_ is ours again.
      arrive_and_wait(0, seen, /*window_round=*/false);
      return;
    }
    run_window(0);  // the driving thread doubles as shard 0's worker
    seen = arrive_and_wait(0, seen, /*window_round=*/true);
  }
}

void Simulator::run() {
  if (!sharded()) {
    while (step()) {
    }
    return;
  }
  run_windows(kUnreachable);
  // The run's end time is schedule-independent: the max event timestamp any
  // shard dispatched (or the previous time when nothing ran).
  Millis end = now_;
  for (const auto& store : stores_) end = std::max(end, store->clock);
  now_ = end;
  for (const auto& store : stores_) store->clock = end;
}

void Simulator::run_until(Millis t) {
  MP_EXPECTS(t >= now());
  if (!sharded()) {
    EventStore& store = *stores_[0];
    while (store.next_time() <= t) {
      step();
    }
    now_ = t;
    store.clock = t;
    return;
  }
  // Exclusive bound just past t: events at exactly t still run.
  run_windows(std::nextafter(t, kUnreachable));
  now_ = t;
  for (const auto& store : stores_) store->clock = t;
}

}  // namespace multipub::net
