// Scheduled fault injection for the simulated network.
//
// A FaultPlan is a set of rules the transport consults for every message it
// is about to put on the wire. Each rule matches a directed link — a (from,
// to) endpoint pattern, so partitions can be asymmetric — and is active
// inside a virtual-time window [start, end):
//
//   kPartition : matching messages are lost in transit (sent, not billed,
//                counted as dropped — same accounting as a send towards a
//                dead region),
//   kDelay     : matching messages take delay * factor + extra_ms instead
//                of their nominal latency (applied after jitter),
//   kDrop      : matching messages are lost with probability p, drawn from
//                the plan's own seeded stream.
//
// Everything is a pure function of (rule set, seed, send order), and the
// send order is fixed by the deterministic simulator, so a chaos run is
// bit-reproducible from its seed. The plan is passive: it never schedules
// anything itself; SimTransport::set_fault_plan() wires it into send() /
// send_batch(), and a null plan (the default) leaves the data path exactly
// as before.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/address.h"

namespace multipub::net {

/// One side of a link pattern. kAny* forms are wildcards; kRegion/kClient
/// match one concrete endpoint.
struct FaultEndpoint {
  enum class Kind : std::uint8_t {
    kAny,        ///< any endpoint
    kAnyRegion,  ///< any region broker
    kAnyClient,  ///< any client
    kRegion,     ///< the region with this id
    kClient,     ///< the client with this id
  };
  Kind kind = Kind::kAny;
  std::int32_t id = -1;

  [[nodiscard]] static FaultEndpoint any() { return {}; }
  [[nodiscard]] static FaultEndpoint any_region() {
    return {Kind::kAnyRegion, -1};
  }
  [[nodiscard]] static FaultEndpoint any_client() {
    return {Kind::kAnyClient, -1};
  }
  [[nodiscard]] static FaultEndpoint region(RegionId r) {
    return {Kind::kRegion, r.value()};
  }
  [[nodiscard]] static FaultEndpoint client(ClientId c) {
    return {Kind::kClient, c.value()};
  }

  [[nodiscard]] bool matches(Address address) const;

  friend bool operator==(const FaultEndpoint&, const FaultEndpoint&) = default;
};

/// One injected fault. Fields beyond (kind, from, to, window) are only
/// meaningful for their kind.
struct FaultRule {
  enum class Kind : std::uint8_t { kPartition, kDelay, kDrop };
  Kind kind = Kind::kPartition;
  FaultEndpoint from;
  FaultEndpoint to;
  Millis start = 0.0;           ///< window start (inclusive, virtual ms)
  Millis end = kUnreachable;    ///< window end (exclusive)
  double delay_factor = 1.0;    ///< kDelay: multiplies the nominal latency
  Millis delay_extra_ms = 0.0;  ///< kDelay: added on top
  double drop_probability = 0.0;  ///< kDrop: loss probability in [0, 1]
};

class FaultPlan {
 public:
  /// `seed` roots the probabilistic-drop coin streams; two plans with the
  /// same seed and the same consult sequence make identical drop decisions.
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Root of the plan's drop-coin stream family. The transport derives one
  /// per-link coin stream from it (common::derive_stream_seed), so coin
  /// order is a per-link property — independent of how sends from different
  /// links interleave, and therefore of the shard count.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Installs a rule; returns a handle for remove(). Rules are consulted in
  /// insertion order.
  int add(const FaultRule& rule);
  void remove(int id);
  void clear() { rules_.clear(); }

  /// What the plan decided for one message on the (from -> to) link at
  /// virtual time `now`.
  struct Outcome {
    bool dropped = false;
    double delay_factor = 1.0;
    Millis delay_extra_ms = 0.0;
  };

  /// Consults every active rule in insertion order. Delay rules compound
  /// (factors multiply, extras add); the first matching partition — or drop
  /// rule whose coin lands — stops the scan. Each consulted kDrop rule
  /// takes one draw from `coin`, the caller's stream (the transport keeps
  /// one per link, rooted at seed(), so sharded runs stay deterministic).
  /// The tallies are bumped with relaxed atomics — increments commute, so
  /// the totals are shard-count-invariant and the call is safe from
  /// concurrent shard workers.
  [[nodiscard]] Outcome apply(Address from, Address to, Millis now,
                              Rng& coin) const;

  /// True when some rule active at `now` could apply to a client-bound hop
  /// from `from` (its to-pattern is able to match a client endpoint). The
  /// transport uses this to pick a cohort target's hop shape: one
  /// whole-flock hop (exact when no rule can touch the link) or one hop per
  /// member, drawing the same per-client coins as the uncompressed plane.
  [[nodiscard]] bool may_affect_client_deliveries(Address from,
                                                  Millis now) const;

  /// Mirror for client-originated hops towards `to`: true when an active
  /// rule's from-pattern can match a client. Cohort-mode control sends
  /// reject such rules (MP_EXPECTS) — a weighted send cannot replay the
  /// per-member coin streams the uncompressed plane would consume.
  [[nodiscard]] bool may_affect_client_sends(Address to, Millis now) const;

  /// Most pessimistic factor active delay rules could shrink a latency by:
  /// the product of every rule's min(1, delay_factor), ignoring windows and
  /// link patterns (conservative). Extras are nonnegative by add()'s
  /// contract, so `min_link_latency * lookahead_scale()` is a valid
  /// conservative window width for the sharded simulator under this plan.
  [[nodiscard]] double lookahead_scale() const;

  /// Messages lost to partitions / to probabilistic drop; messages whose
  /// latency a delay rule touched.
  [[nodiscard]] std::uint64_t partition_dropped() const {
    return partition_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t random_dropped() const {
    return random_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delayed() const {
    return delayed_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::pair<int, FaultRule>> rules_;
  std::uint64_t seed_;
  int next_id_ = 0;
  // mutable + relaxed: the const apply() tallies. Totals are sums of
  // commuting increments, hence independent of worker interleaving.
  mutable std::atomic<std::uint64_t> partition_dropped_{0};
  mutable std::atomic<std::uint64_t> random_dropped_{0};
  mutable std::atomic<std::uint64_t> delayed_{0};
};

}  // namespace multipub::net
