// Persistent, incrementally maintained per-topic state (the controller's
// materialized view of the system).
//
// The paper's controller re-aggregates every region's reports and re-runs
// the optimizer for every topic each collection interval (§III-A4). That
// makes round cost proportional to the TOTAL topic count. TopicStore keeps
// each topic's aggregated TopicState across intervals and tracks which
// topics actually CHANGED — publisher traffic, subscriber membership,
// constraint, region availability, or a latency estimate touching a
// participating client — so a reconfiguration round only has to optimize
// the dirty ones.
//
// Invariant: a topic is marked dirty if and only if its stored state (or an
// external input affecting its optimization) changed since the last
// clear_dirty(), so the store never holds state the dirty set does not
// account for, and a full scan over the store is bit-identical to an
// incremental scan.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/topic_state.h"

namespace multipub::core {

/// Why a topic needs re-optimization (bitmask values; a topic can be dirty
/// for several reasons at once).
enum class DirtyReason : unsigned {
  kNew = 1u << 0,           ///< first time the store sees the topic
  kTraffic = 1u << 1,       ///< publisher stats changed
  kMembership = 1u << 2,    ///< subscriber joined or left
  kConstraint = 1u << 3,    ///< delivery constraint updated
  kAvailability = 1u << 4,  ///< candidate region set flipped
  kLatency = 1u << 5,       ///< latency estimate of a participant moved
  kRefresh = 1u << 6,       ///< periodic full refresh corrected stale state
  kForced = 1u << 7,        ///< explicit invalidation (policy change etc.)
};

inline constexpr int kDirtyReasonCount = 8;

[[nodiscard]] constexpr unsigned reason_bit(DirtyReason reason) {
  return static_cast<unsigned>(reason);
}

[[nodiscard]] const char* to_string(DirtyReason reason);

class TopicStore {
 public:
  /// Registers (or updates) a topic's delivery constraint; dirties the topic
  /// (kConstraint) only when the constraint actually changed.
  void set_constraint(TopicId topic, const DeliveryConstraint& constraint);

  /// Applies one region's interval report for one topic. Both lists are
  /// authoritative for that region (an empty publisher list means "no
  /// traffic there anymore"). Order does not matter; they are sorted
  /// internally. Dirties the topic only when the aggregate state changes.
  void apply_report(RegionId region, TopicId topic,
                    const std::vector<PublisherStats>& publishers,
                    const std::vector<ClientId>& subscribers);

  /// Self-healing against lost deltas: given the complete list of topics a
  /// region reported in a FULL snapshot, drops that region's view of every
  /// topic not in the list (the region no longer knows it). Changes caused
  /// here are marked kRefresh.
  void reconcile_region(RegionId region, const std::vector<TopicId>& reported);

  /// Dirties (with `reason`) every topic the client currently participates
  /// in — used when the client's latency estimate moves.
  void touch_client(ClientId client, DirtyReason reason);

  void mark_dirty(TopicId topic, DirtyReason reason);
  void mark_all_dirty(DirtyReason reason);
  void clear_dirty();

  /// The aggregated state the optimizer should see (cross-region publisher
  /// dedup by max msg_count, sorted unit subscribers). nullptr when the
  /// topic is unknown.
  [[nodiscard]] const TopicState* state(TopicId topic) const;

  /// All tracked topics, ascending.
  [[nodiscard]] std::vector<TopicId> topic_ids() const;

  /// Currently dirty topics, ascending.
  [[nodiscard]] std::vector<TopicId> dirty_topics() const;

  /// This topic's dirty-reason bitmask (0 = clean or unknown).
  [[nodiscard]] unsigned dirty_reasons(TopicId topic) const;

  [[nodiscard]] bool dirty(TopicId topic) const {
    return dirty_reasons(topic) != 0;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t dirty_count() const { return dirty_.size(); }

 private:
  /// What one region last told us about one topic (both vectors sorted).
  struct RegionView {
    std::vector<PublisherStats> publishers;
    std::vector<ClientId> subscribers;
  };

  struct Entry {
    std::map<RegionId, RegionView> views;  // ordered for determinism
    TopicState aggregate;                  // cached merge of the views
    std::vector<ClientId> participants;    // sorted clients of the aggregate
    unsigned dirty = 0;
  };

  Entry& entry_for(TopicId topic);
  void mark(TopicId topic, Entry& entry, DirtyReason reason);
  /// Re-merges the views into the cached aggregate; dirties with
  /// kTraffic/kMembership (or `override_reason` when given) if it changed.
  void rebuild_aggregate(TopicId topic, Entry& entry,
                         const DirtyReason* override_reason = nullptr);
  void reindex_participants(TopicId topic, Entry& entry);

  std::map<TopicId, Entry> entries_;  // ordered for deterministic rounds
  std::set<TopicId> dirty_;
  /// Reverse index for touch_client: which topics a client participates in.
  std::unordered_map<ClientId, std::set<TopicId>> client_topics_;
};

}  // namespace multipub::core
