// Per-region pub/sub broker (the Dynamoth stand-in, substitution #4).
//
// The broker is the data plane of one region: it accepts subscriptions,
// matches publications to local subscribers, and — when a topic runs in
// routed mode and the publication arrived directly from a publisher —
// forwards it to the other serving regions. It also records the per-topic
// traffic statistics the region manager reports to the controller.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/replay_ring.h"
#include "broker/subscription_table.h"
#include "common/seq_tracker.h"
#include "core/config.h"
#include "net/bus.h"
#include "wire/message.h"

namespace multipub::broker {

/// Traffic observed from one publisher on one topic during the current
/// collection interval.
struct ObservedPublisher {
  std::uint64_t msg_count = 0;
  Bytes total_bytes = 0;
};

/// One client-measured latency sample towards this region (kLatencyReport).
struct LatencyReport {
  ClientId client;
  Millis one_way_ms = 0.0;
};

class Broker {
 public:
  /// Registers itself as the handler for Address::region(self) on the bus.
  /// Clock and bus must outlive the broker (the clock drives the
  /// reconfiguration drain windows). The broker is transport-agnostic: the
  /// same code runs over SimTransport (virtual time) and SocketTransport
  /// (a real process on wall time).
  Broker(RegionId self, net::Clock& clock, net::Bus& bus);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Installs the topic's configuration (assignment vector + mode).
  ///
  /// Replacing an existing configuration starts a DRAIN window: routed
  /// publications keep being fanned out to the previous region set too for
  /// wire::kHandoverGraceMs, because remote subscribers re-attach
  /// asynchronously and would otherwise miss the publications racing the
  /// reconfiguration.
  void set_topic_config(TopicId topic, const core::TopicConfig& config);

  [[nodiscard]] const core::TopicConfig* topic_config(TopicId topic) const;

  /// Message entry point (wired to the transport at construction).
  void handle(const wire::Message& msg);

  [[nodiscard]] RegionId region() const { return self_; }
  [[nodiscard]] const SubscriptionTable& subscriptions() const { return subs_; }

  /// Per-topic publisher traffic since the last drain.
  using TopicTraffic = std::unordered_map<ClientId, ObservedPublisher>;
  [[nodiscard]] const std::unordered_map<TopicId, TopicTraffic>& traffic()
      const {
    return traffic_;
  }

  /// Clears the collected statistics (end of a collection interval).
  void reset_traffic();

  /// Topics whose local subscriber set changed since the last
  /// clear_membership_changes() (a subscriber actually joined or left —
  /// idempotent re-subscribes and no-op unsubscribes do not count). The
  /// region manager drains this to build delta reports.
  [[nodiscard]] const std::unordered_set<TopicId>& membership_changes() const {
    return membership_changed_;
  }
  void clear_membership_changes() { membership_changed_.clear(); }

  /// Latency samples clients reported this interval (drained by the region
  /// manager alongside the traffic statistics).
  [[nodiscard]] const std::vector<LatencyReport>& latency_reports() const {
    return latency_reports_;
  }
  void clear_latency_reports() { latency_reports_.clear(); }

  /// Regions currently in the drain window for a topic (empty set when
  /// none).
  [[nodiscard]] geo::RegionSet draining_regions(TopicId topic) const;

  /// Publications delivered to local subscribers since construction.
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }

  /// Publications fanned out to peer regions since construction.
  [[nodiscard]] std::uint64_t forwarded_count() const { return forwarded_; }

  /// Subset of forwarded_count(): duplicate fan-outs sent to regions that
  /// are ONLY in a drain window (no longer in the serving set). Measures the
  /// bandwidth price of reconfiguration hand-overs.
  [[nodiscard]] std::uint64_t drain_forwarded_count() const {
    return drain_forwarded_;
  }

  /// Deliveries suppressed by content filters since construction.
  [[nodiscard]] std::uint64_t filtered_count() const { return filtered_; }

  // ---- Reliable delivery + Clone-pattern state replication (DESIGN.md §15)

  /// Turns on the reliable-delivery mode: publications are stamped with
  /// per-topic ring sequence numbers and retained for replay, forwards carry
  /// the sender's ring position for broker-level gap detection, and every
  /// subscription/config mutation is streamed to the standby as a sequenced
  /// kStateDelta. Call before any traffic; off by default (the default plane
  /// is bit-identical to the pre-reliable broker).
  void set_reliable(bool on) { reliable_ = on; }
  [[nodiscard]] bool reliable() const { return reliable_; }

  /// Negative chaos hook: a broker with replay disabled ignores every
  /// kReplayRequest, so losses stay unrepaired (the zero-loss oracle must
  /// catch this).
  void set_replay_enabled(bool on) { replay_enabled_ = on; }
  /// Negative chaos hook: stops the kStateSnapshot/kStateDelta stream to the
  /// standby (the replication-lag oracle must catch this).
  void set_state_sync_enabled(bool on) { state_sync_enabled_ = on; }

  /// Designates the region hosting this broker's Clone-pattern standby and
  /// streams it an initial full snapshot. RegionId::invalid() detaches.
  void set_standby(RegionId standby);
  [[nodiscard]] RegionId standby() const { return standby_; }

  /// Monotone counter of subscription/config table mutations (the sequence
  /// number of the kStateDelta stream), counted as their per-client
  /// expansion: a weighted cohort mutation advances it by its weight. 0
  /// until the first mutation.
  [[nodiscard]] std::uint64_t state_seq() const { return state_seq_; }

  /// state_seq the replica this broker hosts for `owner` has applied; 0 when
  /// it hosts none.
  [[nodiscard]] std::uint64_t replica_applied_seq(RegionId owner) const;

  /// Simulated crash: every piece of in-memory state — subscriptions,
  /// configs, drains, traffic, replay rings, dedup state, peer cursors,
  /// state_seq, hosted replicas — is lost. The successor rebuilds tables
  /// from the standby's snapshot and rings from its peers' replay.
  void crash();

  /// Recovery entry point, called on the STANDBY HOST after the primary
  /// `owner` restarts: streams the hosted replica back to `owner` as a
  /// kStateSnapshot stream. No-op without a replica for `owner`.
  void restore_peer(RegionId owner);

  /// Reliable sync pass, broker half: ask every peer in each routed topic's
  /// serving set to replay forwards we may have missed, and heartbeat the
  /// current state_seq to the standby so a diverged replica resyncs.
  void sync_with_peers();

  /// Publications this broker has accepted, per topic and publisher, as
  /// runs of seqs. The chaos harness walks a crashing broker's runs to find
  /// publications no surviving broker holds (the zero-loss oracle's
  /// crash-loss exemption).
  using PublicationsSeen =
      std::unordered_map<TopicId, std::unordered_map<ClientId, SeqSet>>;
  [[nodiscard]] const PublicationsSeen& seen_publications() const {
    return seen_;
  }
  [[nodiscard]] bool has_accepted(TopicId topic, ClientId publisher,
                                  std::uint64_t seq) const;

 private:
  void on_publish(const wire::Message& msg);
  void deliver_locally(const wire::Message& msg);

  // Reliable-mode internals (DESIGN.md §15).
  void on_reliable_arrival(const wire::Message& msg, bool from_replay);
  void on_replay_request(const wire::Message& msg);
  void on_state_snapshot(const wire::Message& msg);
  void on_state_delta(const wire::Message& msg);
  /// True when (publisher, seq) was not seen before on `topic` (and records
  /// it).
  bool first_sight(TopicId topic, ClientId publisher, std::uint64_t seq);
  ReplayRing& ring(TopicId topic);
  /// Advances state_seq by the delta's weight and streams the mutation to
  /// the standby as one kStateDelta (the send is skipped without a standby
  /// or with sync disabled). Pre: reliable.
  void emit_state_delta(wire::Message delta);
  /// Streams begin marker + config entries + subscription entries + end
  /// marker (committing at state seq `seq`) describing `owner`'s tables to
  /// region `to`: the primary's own for a standby bootstrap or resync, the
  /// hosted replica for a restore.
  void stream_tables(RegionId to, RegionId owner, std::uint64_t seq,
                     const std::unordered_map<TopicId, core::TopicConfig>&
                         configs,
                     const SubscriptionTable& subs);
  void request_state_resync(RegionId owner);

  struct Drain {
    geo::RegionSet regions;
    Millis until = 0.0;
  };

  /// Clone-pattern replica of a peer primary's broker state, held by this
  /// broker as that peer's standby (DESIGN.md §15): the primary's own table
  /// types, kept by the same entry rule.
  struct StandbyReplica {
    std::uint64_t applied_seq = 0;
    /// A full resync is in flight: further gapped deltas must not each
    /// re-request the whole snapshot (the resync-storm would scale with the
    /// delta rate, not the failure rate). Re-armed by every heartbeat, so a
    /// snapshot lost in transit is re-requested at the next sync interval.
    bool resync_pending = false;
    std::unordered_map<TopicId, core::TopicConfig> configs;
    SubscriptionTable subs;
  };

  RegionId self_;
  net::Clock* clock_;
  net::Bus* bus_;
  SubscriptionTable subs_;
  std::unordered_map<TopicId, core::TopicConfig> configs_;
  std::unordered_map<TopicId, Drain> draining_;
  std::unordered_map<TopicId, TopicTraffic> traffic_;
  std::unordered_set<TopicId> membership_changed_;
  std::vector<LatencyReport> latency_reports_;
  // Reusable fan-out target buffers: the transport batches from a span, so
  // these never outlive a call and the hot path stops allocating once the
  // high-water mark is reached.
  std::vector<net::Address> fanout_scratch_;
  std::vector<net::Address> deliver_scratch_;
  std::uint64_t delivered_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t drain_forwarded_ = 0;
  std::uint64_t filtered_ = 0;

  // ---- Reliable-delivery state (all empty/inert when reliable_ is off).
  bool reliable_ = false;
  bool replay_enabled_ = true;
  bool state_sync_enabled_ = true;
  /// Per-topic bounded replay store; ring head is also the per-topic
  /// delivery sequence stamp.
  std::unordered_map<TopicId, ReplayRing> rings_;
  /// Publications already accepted, per topic: publisher -> publication
  /// seqs, held as runs (one per stream plus one per hole). Replayed and
  /// caught-up copies dedup against this before re-entering the ring.
  PublicationsSeen seen_;
  /// Cumulative-ack cursor over each peer's ring numbering, keyed by (peer
  /// region value, topic value); absent = unknown (first contact or
  /// post-crash), whose fresh cursor asks a sync pass to replay the peer's
  /// whole retained ring. Cumulative so a lost replay batch is simply
  /// re-requested by the next sync.
  std::map<std::pair<std::int32_t, std::int32_t>, SeqTracker> peer_cursors_;
  RegionId standby_ = RegionId::invalid();
  std::uint64_t state_seq_ = 0;
  /// Replicas this broker hosts for peer primaries, keyed by owner region
  /// value.
  std::map<std::int32_t, StandbyReplica> replicas_;
};

}  // namespace multipub::broker
