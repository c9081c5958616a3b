// Discrete-event simulator.
//
// The substrate on which the live MultiPub middleware runs (substitution #1
// in DESIGN.md): virtual time in milliseconds, a priority queue of events,
// deterministic FIFO ordering among same-timestamp events (a sequence number
// breaks ties), so every run is reproducible.
//
// Two event representations share one (time, seq) order:
//  - generic Actions (std::function) for control-plane callbacks, and
//  - typed deliveries — one message hop, dispatched straight to the
//    transport that scheduled it — so the data plane never pays a heap
//    allocation per hop. The queue holds a 16-byte handle; the handle names
//    a compact per-target record (sink, endpoints, subscriber stamp,
//    weight), and the record names a message stored ONCE per fan-out in a
//    ref-counted payload slab (DESIGN.md §9). share() opens a fan-out; the
//    single-message schedule_delivery_* forms are one-target fan-outs.
// The queue itself is a multi-rung ladder queue feeding a small near heap
// (see EventStore). Both representations consume one sequence counter per
// store, so dispatch order is the (time, seq) order of scheduling, and
// golden digests of the data plane's observables pin it (DESIGN.md §9).
//
// Sharded parallel mode (DESIGN.md §11): configure_shards() partitions the
// address space over K shards, each with its own two-level event store and
// worker thread, synchronized by conservative time windows. Every window
// [T, T + lookahead) is executed by all shards in parallel; an event may
// only schedule a cross-shard delivery at least `lookahead` (the minimum
// cross-shard link latency) in the future, so no event inside a window can
// affect another shard within the same window. Cross-shard deliveries land
// in per-(source, destination) mailboxes and are drained at the window
// barrier in fixed source-shard order, which makes the interleaving — and
// with it every observable — bit-identical to the single-threaded run.
//
// Window policy (DESIGN.md §14): kFixed, the default and the only policy
// the repository's own paths run, sizes every window by the single scalar
// lookahead. kAdaptive gives each shard its own window end derived from
// which shards actually hold work — E_d = min over busy shards A of
// (t_A + dist[A][d]), where dist is the shortest-walk matrix over the
// per-(source, destination) lookahead graph. It stays only because
// perfbench's twin-sharded workload selects it, and is pending deletion:
// the measured critical path (WindowStats::critical_events) shows it never
// shortens the parallel bound measurably. Both policies execute the
// identical event sequence — windows only batch, never reorder.
//
// Synchronization is one purpose-built sense-reversing barrier round per
// window: arrivals spin briefly (exponential backoff, then yields) before
// parking on a futex via std::atomic::wait; the LAST arriver drains every
// mailbox and plans the next window inside the barrier's serial phase, so
// a window costs a single synchronization episode instead of the previous
// run/drain barrier pair.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "net/address.h"
#include "net/bus.h"
#include "net/shard_placement.h"
#include "net/slot_pool.h"
#include "wire/message.h"

namespace multipub::net {

class DeliverySink;

/// One message hop as its sink sees it: deliver `msg` (sent by `from`) to
/// `to`. Not what the queue stores — the simulator rebuilds it on the stack
/// at dispatch from the pooled per-target record and the fan-out's shared
/// payload, stamping the record's `subscriber` and `weight` into `msg`.
struct DeliveryEvent {
  DeliverySink* sink = nullptr;
  Address from;
  Address to;
  wire::Message msg;
};

/// Receiver of typed delivery events (implemented by SimTransport).
class DeliverySink {
 public:
  virtual void deliver(const DeliveryEvent& event) = 0;

 protected:
  ~DeliverySink() = default;
};

/// Static entity-to-shard assignment for the sharded data plane. Every
/// address (client or region broker) lives on exactly one shard; all events
/// OWNED by an entity (deliveries to it, its timers) execute on that shard.
struct ShardMap {
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> region_shard;  ///< indexed by RegionId
  std::vector<std::uint32_t> client_shard;  ///< indexed by ClientId
  /// Indexed by flock id; a cohort lives on its home region's shard.
  std::vector<std::uint32_t> cohort_shard;

  [[nodiscard]] std::uint32_t shard_of(Address address) const {
    const auto index = static_cast<std::size_t>(address.id);
    const auto& table = address.kind == Address::Kind::kClient ? client_shard
                        : address.kind == Address::Kind::kRegion
                            ? region_shard
                            : cohort_shard;
    MP_EXPECTS(address.id >= 0 && index < table.size());
    return table[index];
  }
};

/// Telemetry of the sharded plane's window machinery. Hardware-independent
/// counters (windows, widths, mailbox traffic) prove scheduling progress
/// even on a 1-core bench host; the barrier counters diagnose whether waits
/// resolve by spinning or by parking. Reset by configure_shards().
struct WindowStats {
  std::uint64_t windows = 0;        ///< barrier rounds executed
  Millis width_sum = 0.0;           ///< sum of (max window end - round start)
  Millis width_max = 0.0;           ///< widest single round
  std::uint64_t mail_items = 0;     ///< cross-shard deliveries drained
  std::uint64_t barrier_spins = 0;  ///< waits resolved while spinning
  std::uint64_t barrier_parks = 0;  ///< waits that parked on the futex
  std::uint64_t events = 0;         ///< events dispatched by the shard stores
  /// Sum over windows of the largest per-shard event count: the events a
  /// K-core run must execute one after another. A pure function of the
  /// schedule (window ends depend only on virtual time), so events /
  /// critical_events bounds the speedup at K cores on any host.
  std::uint64_t critical_events = 0;

  [[nodiscard]] Millis width_mean() const {
    return windows > 0 ? width_sum / static_cast<double>(windows) : 0.0;
  }
  [[nodiscard]] double events_per_window() const {
    return windows > 0
               ? static_cast<double>(events) / static_cast<double>(windows)
               : 0.0;
  }
  /// events / critical_events; 0 before any window ran.
  [[nodiscard]] double predicted_parallelism() const {
    return critical_events > 0 ? static_cast<double>(events) /
                                     static_cast<double>(critical_events)
                               : 0.0;
  }
};

/// Virtual-time event loop; single-threaded by default, optionally sharded
/// over worker threads via configure_shards(). The middleware sees it as a
/// Clock (virtual time); the overrides are final, so calls through a
/// concrete Simulator* still devirtualize.
class Simulator : public Clock {
 public:
  using Action = std::function<void()>;

  Simulator() { stores_.push_back(std::make_unique<EventStore>(0)); }
  ~Simulator() override;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time (ms since simulation start). Inside a sharded
  /// window this is the executing shard's clock — the timestamp of the
  /// event being dispatched, exactly as in a single-threaded run.
  [[nodiscard]] Millis now() const final {
    return tls_store_ != nullptr ? tls_store_->clock : now_;
  }

  /// Schedules `action` at absolute virtual time `t`. Pre: t >= now().
  /// In sharded mode the action runs on the CALLING shard (entity timers
  /// are entity-local); from outside a window it lands on shard 0 — use the
  /// owner-hinted overload for actions that touch a specific entity.
  void schedule_at(Millis t, Action action);

  /// Owner-hinted form for sharded mode: the action executes on the shard
  /// that owns `owner` (e.g. a publisher's client address for a traffic
  /// injection). From inside a window the owner must be on the calling
  /// shard — cross-shard effects must travel as deliveries, which are the
  /// only sequenced cross-shard channel.
  void schedule_at(Millis t, Address owner, Action action);

  /// Schedules `action` `delay` ms from now. Pre: delay >= 0.
  void schedule_after(Millis delay, Action action) final;

  /// Handle to one message shared by the deliveries of a fan-out (see
  /// share()). `id` is unique per share() call, so the stores can tell
  /// fan-outs apart without comparing messages.
  struct SharedMessage {
    const wire::Message* msg;
    std::uint64_t id;
  };

  /// Opens a fan-out of `msg`: every delivery scheduled through the handle
  /// carries `msg` with only `subscriber` and `weight` set per target. The
  /// message is copied into a destination store's payload slab on the first
  /// delivery routed there, once per store (or cross-shard mailbox), and
  /// recycled when its last delivery dispatches. The handle is valid until
  /// the calling event returns; `msg` must stay unchanged while it is used.
  [[nodiscard]] SharedMessage share(const wire::Message& msg);

  /// Schedules a typed delivery of `shared` at absolute virtual time `t`,
  /// stamped with `subscriber` and `weight`; the event is dispatched back
  /// to `sink` when it fires. Pre: t >= now(). In sharded mode the event
  /// is routed to the shard owning `to`: directly into its store when the
  /// sender shares the shard (or no window is running), through the
  /// sequenced mailbox otherwise.
  void schedule_delivery_at(Millis t, DeliverySink& sink, Address from,
                            Address to, const SharedMessage& shared,
                            ClientId subscriber, std::uint32_t weight);

  /// Same, `delay` ms from now. Pre: delay >= 0.
  void schedule_delivery_after(Millis delay, DeliverySink& sink, Address from,
                               Address to, const SharedMessage& shared,
                               ClientId subscriber, std::uint32_t weight);

  /// Executes the earliest pending event; returns false when idle. Only
  /// meaningful single-threaded (the sharded plane runs whole windows).
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs all events with timestamp <= t, then advances the clock to t.
  void run_until(Millis t);

  /// Splits the simulation into `map.shards` parallel shards with the given
  /// conservative window width (the minimum cross-shard link latency; see
  /// SimTransport::min_cross_shard_latency). Spawns shards-1 worker threads;
  /// the calling thread doubles as shard 0's worker inside run(). Only
  /// allowed while the queue is empty.
  /// `map.shards == 1` restores single-threaded operation.
  void configure_shards(ShardMap map, Millis lookahead);
  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(stores_.size());
  }
  [[nodiscard]] bool sharded() const { return stores_.size() > 1; }

  /// Refreshes the window width (e.g. after a FaultPlan starts shrinking
  /// latencies). Only between runs. Pre: sharded, lookahead > 0.
  void set_lookahead(Millis lookahead);
  [[nodiscard]] Millis lookahead() const { return lookahead_; }

  /// Selects how windows are sized (kFixed by default). kAdaptive requires a
  /// lookahead matrix (set_lookahead_matrix); only perfbench's twin-sharded
  /// workload selects it (pending deletion, DESIGN.md §14). Only between
  /// runs.
  void set_window_policy(WindowPolicy policy);
  [[nodiscard]] WindowPolicy window_policy() const { return policy_; }

  /// Per-(source shard, destination shard) lookahead matrix for the adaptive
  /// policy (perfbench only, pending deletion with it), row-major K*K:
  /// la[src * K + dst] is the earliest a shard-`src` event at time t can
  /// affect shard `dst` (t + la). The diagonal is ignored. Internally
  /// expanded to the shortest-walk closure (>= 1 hop), so transitive
  /// reactivation chains — A wakes B which sends back to A — bound every
  /// window correctly. Only between runs; pre: sharded, entries >= 0.
  /// Rescale together with set_lookahead when a FaultPlan shrinks
  /// latencies.
  void set_lookahead_matrix(std::vector<Millis> lookaheads);

  /// Snapshot of the window/barrier telemetry accumulated since the last
  /// configure_shards(). All zeros when unsharded. Only between runs.
  [[nodiscard]] WindowStats window_stats() const;

  /// Shard of the event being dispatched on the calling thread; 0 outside
  /// dispatch. Counters indexed by this are race-free lane-wise.
  [[nodiscard]] std::uint32_t current_shard() const { return tls_shard_; }

  /// Shard that OWNS `address` under the current map (0 when unsharded).
  /// Per-sender state (e.g. the transport's per-link RNG streams) keyed by
  /// this is single-writer: during a window only the owner shard dispatches
  /// the sender's events, and outside windows every shard is quiescent.
  [[nodiscard]] std::uint32_t owner_shard(Address address) const {
    return sharded() ? map_.shard_of(address) : 0;
  }

  /// True while the calling thread is dispatching an event (single-threaded
  /// step or a sharded window).
  [[nodiscard]] bool dispatching() const { return tls_store_ != nullptr; }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t processed() const;

 private:
  friend struct SimulatorPeer;  // white-box ladder checks in the tests

  /// 16-byte queue entry; the event body (an Action or
  /// a DeliveryRecord) lives in the matching pool at index `slot`. seq, kind
  /// and slot share one word: seq occupies the HIGH bits, so comparing the
  /// packed words compares seq — the FIFO tie-break for equal timestamps —
  /// and kind/slot below it never influence the order (seq is unique).
  struct CompactEvent {
    Millis time;
    std::uint64_t packed;  // seq:39 | kind:1 | slot:24

    static constexpr std::uint64_t kSlotBits = 24;
    static constexpr std::uint64_t kKindShift = kSlotBits;
    static constexpr std::uint64_t kSeqShift = kSlotBits + 1;
    static constexpr std::uint64_t kSeqBits = 64 - kSeqShift;  // 39
    static_assert(kSlotBits == SlotPool<int>::kSlotBits);

    [[nodiscard]] static CompactEvent make(Millis time, std::uint64_t seq,
                                           std::uint32_t kind,
                                           std::uint32_t slot) {
      // A seq past 39 bits would silently spill into kind/slot and corrupt
      // both dispatch and the FIFO tie-break; fail loudly instead (the slot
      // pools already assert their 24-bit limit).
      MP_EXPECTS(seq < (std::uint64_t{1} << kSeqBits));
      return {time, seq << kSeqShift |
                        std::uint64_t{kind} << kKindShift | slot};
    }
    [[nodiscard]] std::uint32_t kind() const {
      return static_cast<std::uint32_t>(packed >> kKindShift & 1);
    }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(packed & ((1u << kSlotBits) - 1));
    }
  };
  /// (time, seq) is a TOTAL order (seq is unique per store), so any correct
  /// min-heap pops the exact same sequence — the container choice cannot
  /// affect determinism.
  [[nodiscard]] static bool before(const CompactEvent& a,
                                   const CompactEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;  // high bits are seq
  }

  /// The pooled body of one typed delivery: everything that differs per
  /// target. The message itself is the `payload` slot of the store's slab
  /// (or, inside a Mailbox, the index into its `payloads`).
  struct DeliveryRecord {
    DeliverySink* sink;
    Address from;
    Address to;
    ClientId subscriber;
    std::uint32_t weight;
    std::uint32_t payload;
  };
  /// One fan-out's message in a store's payload slab, shared by `refs`
  /// pending deliveries and recycled when the last of them dispatches.
  struct SharedPayload {
    wire::Message msg;
    std::uint32_t refs = 0;
  };

  /// No fan-out: the id of an empty share cache.
  static constexpr std::uint64_t kNoShare = ~std::uint64_t{0};

  /// One shard's complete event state: the ladder store (see the member
  /// comment below), the recycled pools, its own sequence counter (assigned
  /// in insertion order, exactly as the single-threaded engine would) and
  /// its clock. In single-threaded mode there is exactly one.
  struct EventStore {
    /// `shard` seeds the fan-out ids this store issues (see share()), so
    /// they never collide with another shard's or the idle thread's.
    explicit EventStore(std::uint32_t shard)
        : next_share((std::uint64_t{shard} + 1) << 48) {}

    void heap_push(const CompactEvent& event);
    CompactEvent heap_pop();
    /// Routes a compact event to the near heap, a rung bucket, or the top
    /// list.
    void far_push(const CompactEvent& event);
    void push_top(const CompactEvent& event);
    /// Promotes buckets of the finest rung — spawning a child rung for an
    /// oversized one, dropping exhausted child rungs, rebuilding the first
    /// rung from the top list — until the near heap has events or
    /// everything is drained.
    void refill();
    void build_rung();
    /// Moves bucket `rungs_[depth_ - 1].cur` into the near heap, or spreads
    /// it over a new child rung when it is too big to heapify cheaply.
    void promote_bucket();

    void insert_action(Millis t, Simulator::Action action);
    /// Copies `msg` into a fresh payload slot (no references yet).
    [[nodiscard]] std::uint32_t intern(const wire::Message& msg);
    /// Schedules `record` (whose `payload` names a live slot of this store).
    void insert_record(Millis t, const DeliveryRecord& record);
    /// Schedules `record` carrying `shared`, interning the message on the
    /// fan-out's first delivery into this store.
    void insert_delivery(Millis t, DeliveryRecord record,
                         const SharedMessage& shared);
    /// Timestamp of the earliest pending event (kUnreachable when empty);
    /// refills the near heap as a side effect.
    [[nodiscard]] Millis next_time();
    /// Pops and invokes the earliest event, advancing `clock` to its time.
    void dispatch_one();

    Millis clock = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t processed = 0;
    /// Next fan-out id issued while this store's shard dispatches.
    std::uint64_t next_share;

    // Ladder queue (Tang, Goh & Thng, ACM TOMACS 15(3), 2005) in front of a
    // small NEAR heap (4-ary min-heap). Pops are served by the near heap;
    // far-future events wait unsorted — first in the TOP list, then spread
    // once over the first rung's constant-width time buckets — and are only
    // heapified when the horizon reaches their bucket. A bucket that has
    // grown too big to heapify cheaply (a fan-out burst landed in it) is not
    // heapified but spread over a CHILD rung of finer buckets, down to
    // kMaxRungs levels; so the near heap stays ~kBucketTarget entries and
    // every event is bucketed O(depth) times, however the arrivals cluster.
    //
    // Ordering stays EXACT. A rung's bucket_of(t) = floor((t - start) /
    // width) is monotone in t under IEEE rounding (subtraction, division by
    // a positive constant and floor are all monotone), so no event in a
    // lower bucket is later than one in a higher bucket, and equal times
    // always share a bucket. Rung i+1 covers exactly the events whose rung-i
    // bucket is the one promoted last (cur - 1): membership is decided by
    // rung i's own floor, never by the child's, so the child may clamp an
    // FP-rounded index into its last bucket (still monotone) and send a time
    // below its start to the near heap (it precedes everything the child
    // holds). far_push walks the rungs coarsest first and keeps the
    // invariant near heap < finest rung < ... < first rung < top list:
    // an event in an unpromoted bucket joins it, one in the just-promoted
    // bucket descends to that bucket's child, and anything earlier joins
    // the near heap. So the near heap holds the global minimum whenever it
    // is non-empty, and ties are settled inside it by (time, seq).
    static constexpr std::size_t kMaxRungs = 8;
    struct Rung {
      Millis start = 0.0;
      Millis width = 1.0;
      std::size_t count = 0;  // active buckets this generation
      std::size_t cur = 0;    // next bucket to promote
      std::vector<std::vector<CompactEvent>> buckets;  // reused storage
    };
    std::vector<CompactEvent> heap_;  // near events
    std::array<Rung, kMaxRungs> rungs_;
    std::size_t depth_ = 0;          // active rungs; rungs_[0] is coarsest
    std::vector<CompactEvent> top_;  // beyond the first rung's coverage
    Millis top_min_ = 0.0, top_max_ = 0.0;
    std::size_t compact_pending_ = 0;  // near + rungs + top
    SlotPool<Action> actions_;
    // Records are plain data: dispatch copies one to the stack before
    // releasing its slot, and the pool and mailboxes move them as bytes.
    static_assert(std::is_trivially_copyable_v<DeliveryRecord>);
    static_assert(sizeof(DeliveryRecord) <= 40);
    SlotPool<DeliveryRecord> deliveries_;
    SlotPool<SharedPayload> payloads_;
    /// The fan-out whose message sits in payload slot `share_slot_`: later
    /// deliveries of it into this store reuse the slot.
    std::uint64_t share_id_ = kNoShare;
    std::uint32_t share_slot_ = 0;
  };

  /// Cross-shard delivery in flight between two window barriers; the
  /// record's `payload` indexes its Mailbox's `payloads`.
  struct MailItem {
    Millis time;
    DeliveryRecord record;
  };
  /// A fan-out's message carried once per mailbox; `slot` is its payload
  /// slot in the destination store, assigned by the drain.
  struct MailPayload {
    wire::Message msg;
    std::uint32_t slot;
  };
  /// One (source shard, destination shard) channel. Written only by the
  /// source shard during a window, drained only in the barrier's serial
  /// phase — never both at once, so no lock is needed. Items accumulate in
  /// fixed-size chunks that the drain splices out wholesale and recycles
  /// through `spare`, so a push never copies earlier items (no mid-window
  /// vector growth) and steady-state traffic allocates nothing. The
  /// padding keeps concurrent writers off each other's cache lines.
  struct alignas(64) Mailbox {
    static constexpr std::size_t kChunkItems = 256;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    std::vector<std::vector<MailItem>> full;  ///< sealed chunks, oldest first
    std::vector<MailItem> tail;               ///< chunk being filled
    std::vector<std::vector<MailItem>> spare;  ///< recycled empty chunks
    /// One per (fan-out, window); capacity is kept across windows.
    std::vector<MailPayload> payloads;
    std::uint64_t share_id = kNoShare;  ///< fan-out of payloads.back()

    void push(Millis time, DeliveryRecord record,
              const SharedMessage& shared) {
      if (shared.id != share_id) {
        payloads.push_back({*shared.msg, kNoSlot});
        share_id = shared.id;
      }
      record.payload = static_cast<std::uint32_t>(payloads.size() - 1);
      if (tail.size() == kChunkItems) roll();
      if (tail.capacity() == 0) tail.reserve(kChunkItems);
      tail.push_back({time, record});
    }

    void roll() {
      full.push_back(std::move(tail));
      if (!spare.empty()) {
        tail = std::move(spare.back());
        spare.pop_back();
      } else {
        tail = {};
        tail.reserve(kChunkItems);
      }
    }
  };

  enum class Command : std::uint8_t { kRunWindow, kEndRun, kShutdown };

  /// Runs windows until no store has an event before `limit` (exclusive).
  void run_windows(Millis limit);
  /// Executes every event of `shard` with time < window_end_[shard].
  void run_window(std::uint32_t shard);
  void worker_loop(std::uint32_t shard);
  void shutdown_workers();

  // --- barrier protocol (sharded mode) -----------------------------------
  //
  // One epoch-counter barrier replaces the previous run/drain std::barrier
  // pair. A round: every shard runs its window, then calls arrive_and_wait;
  // the LAST arriver executes serial_phase() — drain every mailbox, plan the
  // next round (or publish kEndRun) — then releases the epoch. Waiters spin
  // with exponential backoff, then park via std::atomic::wait (futex-backed
  // on Linux). Correctness of the data handoff: each shard's window writes
  // happen-before its acq_rel fetch_add on arrivals_, so the serial thread
  // (whose fetch_add reads all prior increments) sees every mailbox and
  // store; the release bump of epoch_ then publishes the serial writes to
  // every waiter's acquire load. Epoch comparison uses != (wrap-safe).

  /// Arrive at the barrier; the last arriver runs serial_phase() and bumps
  /// the epoch. Returns the epoch after release. `seen` is the epoch
  /// observed before arriving. Only window rounds credit the wait to
  /// sync_[shard]: a worker leaves the kEndRun ack round while the driver
  /// may already be reading sync_ (window_stats), so that wait must not
  /// write it.
  std::uint32_t arrive_and_wait(std::uint32_t shard, std::uint32_t seen,
                                bool window_round);
  /// Spin-then-park until epoch_ != seen; returns the new epoch and credits
  /// sync_[shard] with a spin or a park.
  std::uint32_t await_change(std::uint32_t seen, std::uint32_t shard);
  /// Parks immediately until epoch_ != seen. Workers idle between runs use
  /// this instead of await_change: the gap is control-plane time, not
  /// barrier contention, so it must not pollute the telemetry — and not
  /// counting it keeps sync_ single-owner while window_stats() reads it.
  std::uint32_t await_publication(std::uint32_t seen);
  /// Bumps the epoch (releasing command_/window_end_) and wakes parked
  /// waiters; returns the new epoch. Thread 0 only, between rounds.
  std::uint32_t publish();
  /// Last arriver's work: credit the round's busiest shard to
  /// critical_events_, drain all mailboxes, plan the next round.
  void serial_phase();
  /// Computes the next window [t_min, window_end_[*]) under policy_, or
  /// sets command_ = kEndRun when nothing remains before limit_.
  void plan_round();
  /// Moves every mailbox's items into the destination stores, in source-
  /// shard ascending FIFO order, assigning fresh shard-local sequence
  /// numbers. Serial phase only.
  void drain_all_inboxes();

  Millis now_ = 0.0;
  /// Events dispatched by stores retired when configure_shards() rebuilt
  /// them.
  std::uint64_t processed_base_ = 0;

  std::vector<std::unique_ptr<EventStore>> stores_;  // one per shard
  ShardMap map_;
  Millis lookahead_ = 0.0;
  WindowPolicy policy_ = WindowPolicy::kFixed;
  std::vector<Millis> la_;    ///< K*K per-(src,dst) lookaheads (row-major)
  std::vector<Millis> dist_;  ///< shortest-walk closure of la_ (>= 1 hop);
                              ///< diagonal = shortest cycle through the shard
  std::vector<Mailbox> mail_;  // K*K, index = src * K + dst
  std::vector<std::thread> workers_;

  Command command_ = Command::kEndRun;
  std::vector<Millis> window_end_;  ///< per-shard end of the current round
  Millis limit_ = 0.0;              ///< run_windows() horizon (exclusive)
  std::vector<Millis> next_times_;  ///< plan_round scratch: store horizons
  /// Each store's `processed` when the current round was planned; the
  /// serial phase turns it into the round's per-shard event counts.
  std::vector<std::uint64_t> window_base_;
  std::uint32_t parties_ = 1;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> arrivals_{0};
  /// Per-shard wait counters; single-writer (each shard updates its own
  /// slot), read between runs. Padded against false sharing in the spin
  /// loops.
  struct alignas(64) ShardSync {
    std::uint64_t spins = 0;
    std::uint64_t parks = 0;
  };
  std::vector<ShardSync> sync_;
  // Window telemetry; written only in the serial phase (rounds are ordered
  // by the barrier, so no atomics needed).
  std::uint64_t windows_ = 0;
  Millis width_sum_ = 0.0;
  Millis width_max_ = 0.0;
  std::uint64_t mail_items_ = 0;
  std::uint64_t critical_events_ = 0;

  /// Next fan-out id issued outside dispatch (shard stores issue their own
  /// from disjoint ranges; see EventStore).
  std::uint64_t next_share_ = 0;

  // Shard context of the calling thread while it dispatches a window.
  // Static: runs of different Simulator instances never overlap on one
  // thread, and both are reset to null/0 outside dispatch. Defined inline
  // with a constant initializer, so now() reads them directly instead of
  // through a TLS init wrapper.
  static inline thread_local constinit EventStore* tls_store_ = nullptr;
  static inline thread_local constinit std::uint32_t tls_shard_ = 0;
};

}  // namespace multipub::net
