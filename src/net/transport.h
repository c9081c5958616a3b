// Latency-aware, cost-accounting message transport over the simulator.
//
// Every node of the live system — clients, per-region brokers — has an
// Address. send() looks the one-way latency up (client<->region in L,
// region<->region in L^R), schedules delivery on the simulator, and bills
// the message's billable bytes against the sending region's tariff:
//   region -> region : alpha(from)   (inter-region rate)
//   region -> client : beta(from)    (Internet rate)
//   client -> region : free          (cloud ingress is not billed)
// The resulting CostLedger is what the live-vs-model property tests compare
// against Equations 3/4.
//
// Deliveries travel as typed simulator events (no per-hop heap allocation)
// and are dispatched through dense per-kind handler tables. Every target —
// client, region or cohort, from send() or send_batch() — goes through one
// per-target hop (dead-destination check, fault consult, billing, latency +
// jitter + fault delay, schedule); send_batch() runs it over a whole fan-out
// from one message the simulator stores once (Simulator::share), with only
// the subscriber stamp and weight kept per target. A cohort target takes the
// hop once for the whole flock, or once per member while a fault rule can
// touch client-bound links.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/latency.h"
#include "geo/region.h"
#include "net/address.h"
#include "net/bus.h"
#include "net/cohort_directory.h"
#include "net/fault_plan.h"
#include "net/simulator.h"
#include "wire/message.h"

namespace multipub::net {

/// Per-region egress accounting.
struct CostLedger {
  std::vector<Bytes> inter_region_bytes;  ///< indexed by RegionId
  std::vector<Bytes> internet_bytes;      ///< indexed by RegionId

  explicit CostLedger(std::size_t n_regions)
      : inter_region_bytes(n_regions, 0), internet_bytes(n_regions, 0) {}

  /// Dollar total under the catalog's tariffs (Eq. 3/4 shape).
  [[nodiscard]] Dollars total_cost(const geo::RegionCatalog& catalog) const;
};

/// The simulated network: the Bus implementation of the digital twin.
/// Borrows the simulator and matrices; they must outlive the transport.
/// final: the data plane calls through concrete SimTransport*/Simulator*
/// almost everywhere, so the Bus virtualization costs the hot paths
/// nothing.
class SimTransport final : public Bus, public DeliverySink {
 public:
  using Handler = Bus::Handler;

  SimTransport(Simulator& sim, const geo::RegionCatalog& catalog,
               const geo::InterRegionLatency& backbone,
               const geo::ClientLatencyMap& clients);

  /// Installs (or replaces) the message handler for an address.
  void register_handler(Address address, Handler handler) override;

  /// Removes the handler for an address (deliveries to it count as
  /// dropped_unregistered afterwards). Cohort mode uses this to take the
  /// per-client subscriber handlers off the wire once the pool owns their
  /// traffic. Same immutability rules as register_handler.
  void unregister_handler(Address address) override;

  /// Installs (or, with nullptr, clears) the directory that resolves cohort
  /// addresses. Cohort traffic requires no jitter — the weighted plane has
  /// no per-member jitter streams to replay. Borrowed; must outlive the
  /// transport or be cleared first.
  void set_cohort_directory(const CohortDirectory* directory) override;
  [[nodiscard]] const CohortDirectory* cohort_directory() const override {
    return directory_;
  }

  /// Schedules delivery of `msg` to `to` after the one-way latency from
  /// `from`. Bills billable_bytes() against `from` when `from` is a region.
  /// Messages to unregistered addresses are counted as dropped (billing
  /// still applies — the bytes left the region).
  void send(Address from, Address to, wire::Message msg) override;

  /// Fan-out form of send(): bills and schedules one delivery per target
  /// from a single shared message, stamping `type` to `stamped_type` and —
  /// for client targets — `subscriber` to the target as each delivery is
  /// scheduled. Equivalent to the per-target copy-and-send loop (same
  /// billing order, same jitter draws, same counters) without materialising
  /// a wire::Message per target on the caller's side. The span only needs
  /// to live for the duration of the call, so callers can reuse a scratch
  /// buffer.
  void send_batch(Address from, std::span<const Address> targets,
                  const wire::Message& msg,
                  wire::MessageType stamped_type) override;

  /// One-way latency between two addresses. Client<->client links do not
  /// exist in the architecture (everything goes through a broker).
  [[nodiscard]] Millis latency(Address from, Address to) const;

  /// Fails (or restores) a region: while down, messages from or to the
  /// region vanish — nothing egresses a dead region, so nothing is billed
  /// for it either; messages towards it are counted as dropped. The check
  /// applies at BOTH ends of the hop: a message already in flight towards a
  /// region that dies before it lands is dropped on arrival (see
  /// dropped_dead_arrival_count) — a dead datacenter does not process the
  /// packets that were racing its failure.
  void set_region_down(RegionId region, bool down);
  [[nodiscard]] bool region_down(RegionId region) const;

  /// Installs (or, with nullptr, removes) a fault-injection plan. Borrowed;
  /// must outlive the transport or be detached first. The plan is consulted
  /// on every send — after the dead-region checks, before billing — so a
  /// partitioned or randomly dropped message counts as sent and dropped but
  /// bills nothing (the accounting of a send towards a dead region).
  /// Delay rules stretch the hop's latency after jitter is applied. Drop
  /// coins are drawn from transport-owned per-link streams rooted at the
  /// plan's seed (see enable_jitter for why per-link), so installing a plan
  /// resets any streams of a previously installed one.
  void set_fault_plan(FaultPlan* plan);
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_; }

  /// Reliable-mode fault semantics (DESIGN.md §15): when on, the installed
  /// FaultPlan only applies to DATA messages (kPublish/kForward/kDeliver/
  /// kReplayBatch) — control traffic (subscriptions, config updates, replay
  /// requests, state sync) passes untouched and draws no coins. The
  /// reliable protocol treats its control channel as retried-until-acked,
  /// and exempting it keeps the per-link coin streams advancing identically
  /// in the per-client and cohort planes (the kConfigUpdate-under-drop
  /// divergence fix). Off by default: every message is faultable, exactly
  /// the pre-reliable behaviour.
  void set_reliable_control(bool on) { reliable_control_ = on; }

  /// kPublish messages of `topic` lost in transit (dead destination, fault
  /// drop, dead arrival, unregistered handler). A publication dropped here
  /// reached NO broker, so no replay can repair it — the zero-loss oracle's
  /// exempt class.
  [[nodiscard]] std::uint64_t publish_drop_count(TopicId topic) const;

  /// Typed delivery dispatch (DeliverySink); called by the simulator.
  void deliver(const DeliveryEvent& event) override;

  /// Enables per-message latency jitter: each delivery takes
  /// base * U(1, 1 + relative) + |N(0, absolute_ms)| instead of exactly the
  /// matrix value. Default off (deterministic), which is what the analytic
  /// equivalence tests rely on. Every LINK (directed from->to pair) draws
  /// from its own stream, derived from `seed` and the link identity alone —
  /// so a link's jitter sequence depends only on how many messages IT
  /// carried, never on how sends interleave globally. That makes jittered
  /// runs reproducible AND bit-identical across shard counts.
  struct JitterSpec {
    double relative = 0.0;     ///< multiplicative spread, e.g. 0.1 = +0..10 %
    double absolute_ms = 0.0;  ///< additive half-normal spread
  };
  void enable_jitter(const JitterSpec& spec, std::uint64_t seed);
  void disable_jitter();

  /// Sizes the per-shard state (counter lanes, stream tables, handler
  /// guards) for a K-shard simulator. Resets all counters and streams, so
  /// it must be called before traffic — right next to the simulator's
  /// configure_shards(). K = 1 restores single-threaded layout.
  void set_shards(std::uint32_t shards);

  /// Per-(source shard, destination shard) minimum link latency under
  /// `map`, row-major map.shards^2: entry [src * K + dst] is the smallest
  /// latency of any link from a src-owned entity to a dst-owned one —
  /// region->region (directed), client<->region (symmetric, both
  /// directions) and, when a cohort directory is installed, cohort<->region
  /// rows for every flock in the map. The diagonal and pairs with no link
  /// stay kUnreachable. This is the lookahead matrix for
  /// Simulator::set_lookahead_matrix (the adaptive window policy), which
  /// only perfbench's twin-sharded workload uses; pending deletion with it.
  [[nodiscard]] std::vector<Millis> cross_shard_lookaheads(
      const ShardMap& map) const;

  /// Smallest finite latency of any link whose endpoints `map` places on
  /// different shards — the off-diagonal minimum of
  /// cross_shard_lookaheads(), i.e. the conservative scalar lookahead for
  /// configure_shards(). Includes the cohort directory's flock rows, whose
  /// quantized latencies can undercut the exact per-client values.
  /// kUnreachable when no cross-shard link exists.
  [[nodiscard]] Millis min_cross_shard_latency(const ShardMap& map) const;

  /// Materialized per-region egress ledger (rebuilt from the shard-safe
  /// per-region bills on every call; main thread only, between runs).
  [[nodiscard]] const CostLedger& ledger() const;
  [[nodiscard]] std::uint64_t sent_count() const { return sent_.total(); }
  [[nodiscard]] std::uint64_t dropped_count() const {
    return dropped_.total();
  }

  /// Handler invocations (messages that actually arrived somewhere). With a
  /// drained queue the transport's books must balance:
  ///   sent == delivered + (dropped - dropped_sender_down)
  /// — every message that left a sender was either handed to a handler or
  /// lost in flight. The chaos harness checks this after every interval.
  [[nodiscard]] std::uint64_t delivered_count() const {
    return delivered_.total();
  }

  /// Subset of dropped_count(): deliveries that reached an address nobody
  /// registered a handler for. These are the silent drops (a down region at
  /// least shows up in region metrics); surfaced as transport.dropped_unregistered
  /// in sim::collect_metrics.
  [[nodiscard]] std::uint64_t dropped_unregistered_count() const {
    return dropped_unregistered_.total();
  }

  /// Subset of dropped_count(): sends suppressed because the SENDING region
  /// was down — these never left the region (nothing was sent or billed).
  [[nodiscard]] std::uint64_t dropped_sender_down_count() const {
    return dropped_sender_down_.total();
  }

  /// Subset of dropped_count(): messages that were in flight towards a
  /// region when it died and were discarded on arrival.
  [[nodiscard]] std::uint64_t dropped_dead_arrival_count() const {
    return dropped_dead_arrival_.total();
  }

  /// Subset of dropped_count(): messages lost to the installed FaultPlan
  /// (partitions and probabilistic drop).
  [[nodiscard]] std::uint64_t dropped_faulted_count() const {
    return dropped_faulted_.total();
  }

  /// Dollars billed so far attributable to one topic's traffic (publication
  /// messages carry their topic). Sums over topics to the ledger total.
  [[nodiscard]] Dollars topic_cost(TopicId topic) const;

  /// Sum of topic_cost over every topic seen. Both sides bill in the same
  /// step of the per-target hop, so with a correct transport this equals
  /// the ledger's total_cost up to floating-point association — the chaos
  /// harness's cost-conservation oracle.
  [[nodiscard]] Dollars topic_cost_total() const;

 private:
  /// The dense handler table of one address kind.
  [[nodiscard]] std::deque<Handler>& handler_table(Address::Kind kind) {
    return handlers_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::deque<Handler>& handler_table(
      Address::Kind kind) const {
    return handlers_[static_cast<std::size_t>(kind)];
  }
  /// Dense handler slot for `address`, or nullptr when never registered.
  [[nodiscard]] const Handler* find_handler(Address address) const;

  struct Jitter {
    JitterSpec spec;
    std::uint64_t seed = 0;
  };

  /// Per-shard mutable hot state, touched only by the thread dispatching
  /// that shard's window (sends execute on the SENDER's shard, so a link's
  /// streams always live in its sender's lane). Heap-allocated one per
  /// lane: no false sharing between workers.
  struct ShardLane {
    const Handler* active_handler = nullptr;  // set while deliver() runs
    /// Per-link RNG streams, keyed by the packed (from, to) link id and
    /// created on first use from derive_stream_seed(base, link) — the same
    /// stream regardless of which lane or creation order, so draws are a
    /// per-link sequence independent of global interleaving.
    std::unordered_map<std::uint64_t, Rng> jitter_streams;
    std::unordered_map<std::uint64_t, Rng> coin_streams;
    /// kPublish losses by topic value (shard-local; summed by
    /// publish_drop_count on the main thread between windows).
    std::unordered_map<std::int32_t, std::uint64_t> publish_drops;
  };
  [[nodiscard]] ShardLane& lane(std::size_t index) { return *lanes_[index]; }
  /// The link's jitter draw applied to `delay` (pre: jitter enabled).
  [[nodiscard]] Millis jittered(ShardLane& lane, Address from, Address to,
                                Millis delay);
  /// The link's fault-coin stream (pre: a plan is installed).
  [[nodiscard]] Rng& coin_stream(ShardLane& lane, Address from, Address to);
  void reset_streams(bool jitter, bool coins);

  /// Egress billed to one sending region. Written only from that region's
  /// shard (single writer per window); merged on demand by ledger() /
  /// topic_cost(). Everything is integer bytes — dollars are derived at
  /// read time from the byte totals — so the sums are exact, commutative,
  /// and identical whether a fan-out billed per client or once per weighted
  /// cohort message.
  struct alignas(64) RegionBill {
    Bytes inter_region = 0;
    Bytes internet = 0;
    std::unordered_map<TopicId, Bytes> topic_inter;
    std::unordered_map<TopicId, Bytes> topic_internet;
  };

  /// What one send() or send_batch() call shares across its targets: the
  /// (stamped) message stored once, the counter lane of the executing
  /// shard, the RNG lane of the sender's owner shard, and the sender-side
  /// billing facts — the billable bytes of one copy are computed once, and
  /// each topic bill slot is looked up at most once.
  struct SendCall {
    Address from;
    Simulator::SharedMessage shared;
    std::size_t shard;
    ShardLane* sender_lane;
    RegionBill* bill = nullptr;  ///< null unless `from` is a region
    Bytes billable = 0;          ///< per copy; a hop bills billable * weight
    Bytes* topic_inter = nullptr;
    Bytes* topic_internet = nullptr;
  };
  /// True when `from` is a dead region: it emits nothing and bills nothing.
  [[nodiscard]] bool sender_down(Address from) const {
    return from.kind == Address::Kind::kRegion &&
           region_down(from.as_region());
  }
  /// Books `copies` sends suppressed by a dead sender.
  void drop_sender_down(std::uint64_t copies);
  /// Books `weight` copies of `msg` lost on `shard`: the drop total, the
  /// `reason` subset (null for a send towards a dead region) and, for
  /// kPublish, the topic's publish losses.
  void drop(std::size_t shard, const wire::Message& msg, std::uint32_t weight,
            ShardedCounter* reason);
  /// Opens a call sending `msg` from `from` (pre: not a dead region).
  [[nodiscard]] SendCall open_call(Address from, const wire::Message& msg);
  /// The per-target hop every send takes: the dead-destination check, the
  /// fault consult, billing, latency + jitter + fault delay, and the
  /// schedule of one delivery to `to` stamped with `subscriber`. `weight` is
  /// the per-client copies the delivery stands for; `link` is the endpoint
  /// whose (from, link) stream the FaultPlan coin is drawn on — `to` itself,
  /// or a flock member's client address. A cohort `link` (a whole-flock
  /// hop) draws no coin: send_flock takes it only when no active rule can
  /// touch a client-bound link.
  void send_hop(SendCall& call, Address to, ClientId subscriber,
                std::uint32_t weight, Address link);
  /// The hops of one cohort target standing for `weight` copies: a
  /// member-addressed replay, a per-member replay, or one whole-flock hop
  /// (DESIGN.md §12).
  void send_flock(SendCall& call, Address to, std::uint32_t weight);

  Simulator* sim_;
  const geo::RegionCatalog* catalog_;
  const geo::InterRegionLatency* backbone_;
  const geo::ClientLatencyMap* clients_;

  // Dense handler tables, one per address kind (see handler_table). Deques
  // (not vectors): deliver() invokes the handler through a reference into
  // the table, and a handler may register NEW handlers (client churn), which
  // grows the table — deque growth leaves existing elements in place, so the
  // executing std::function is never moved mid-call. Replacing the handler
  // currently executing is the one remaining hazard; register_handler
  // asserts against it (tracked via the lane's active_handler). During
  // parallel windows the tables are read-only (registration is a setup /
  // single-threaded-dispatch affair; register_handler asserts this).
  std::array<std::deque<Handler>,
             static_cast<std::size_t>(Address::Kind::kCohort) + 1>
      handlers_;
  const CohortDirectory* directory_ = nullptr;  // borrowed, may be null
  std::vector<std::unique_ptr<ShardLane>> lanes_;  // one per shard
  std::vector<bool> region_down_;  // indexed by RegionId
  std::optional<Jitter> jitter_;
  FaultPlan* fault_plan_ = nullptr;  // borrowed, may be null
  std::vector<RegionBill> bills_;   // indexed by sending RegionId
  mutable CostLedger ledger_;       // materialized view of bills_
  ShardedCounter sent_;
  ShardedCounter delivered_;
  ShardedCounter dropped_;
  ShardedCounter dropped_unregistered_;
  ShardedCounter dropped_sender_down_;
  ShardedCounter dropped_dead_arrival_;
  ShardedCounter dropped_faulted_;
  bool reliable_control_ = false;
};

}  // namespace multipub::net
