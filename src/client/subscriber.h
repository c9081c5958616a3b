// Subscriber client endpoint.
//
// Attaches to the closest serving region of each subscribed topic, records
// the end-to-end delivery time of every publication it receives, and — when
// a kConfigUpdate arrives — re-evaluates its closest serving region and
// moves there if it changed (paper §III-A5).
//
// Reconnection is make-before-break: the new subscription is opened
// immediately and the old one is torn down only after
// wire::kHandoverGraceMs, so publications in flight during the handover are
// not lost; the overlap can deliver a publication twice, which a (topic,
// publisher, seq) dedup filter absorbs. Without this, a reconfiguration
// under live traffic silently drops the messages that were racing the
// resubscription. The filter keeps one SeqSet per (topic, publisher): a
// stream received without holes is one run of seqs, so the dedup memory
// stays flat over a long run (DESIGN.md §12).
#pragma once

#include <unordered_map>
#include <vector>

#include "client/probing.h"
#include "common/seq_tracker.h"
#include "core/config.h"
#include "geo/latency.h"
#include "net/bus.h"

namespace multipub::client {

/// One received publication, for latency analysis.
struct DeliveryRecord {
  TopicId topic;
  ClientId publisher;
  std::uint64_t seq = 0;
  Millis delivery_time = 0.0;  ///< receive time - publish time.
};

class Subscriber {
 public:
  /// Registers at Address::client(id); borrows everything.
  Subscriber(ClientId id, net::Clock& clock, net::Bus& bus,
             const geo::ClientLatencyMap& latencies);

  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  /// Subscribes to `topic` under `config`, attaching to the closest serving
  /// region (sends kSubscribe). An optional content filter restricts
  /// delivery to publications whose key it matches; the filter survives
  /// reconnections.
  void subscribe(TopicId topic, const core::TopicConfig& config,
                 wire::KeyFilter filter = wire::KeyFilter::all());

  /// Unsubscribes from `topic` entirely.
  void unsubscribe(TopicId topic);

  /// Region this subscriber is currently attached to for the topic;
  /// RegionId::invalid() when not subscribed.
  [[nodiscard]] RegionId attached_region(TopicId topic) const;

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] const std::vector<DeliveryRecord>& deliveries() const {
    return deliveries_;
  }
  /// Delivery times only (convenience for percentile computations).
  [[nodiscard]] std::vector<Millis> delivery_times() const;
  [[nodiscard]] std::uint64_t reconnect_count() const { return reconnects_; }

  /// Duplicates absorbed by the handover dedup filter.
  [[nodiscard]] std::uint64_t duplicate_count() const { return duplicates_; }
  /// The dedup filter, read-only: per topic and publisher, the seqs held.
  [[nodiscard]] const auto& seen_publications() const { return seen_; }

  void clear_deliveries() { deliveries_.clear(); }

  /// Probes the given regions (kPing); measurements flow to the controller
  /// as kLatencyReports once the echoes return.
  void probe_latencies(geo::RegionSet regions) { prober_.probe(regions); }
  [[nodiscard]] const LatencyProber& prober() const { return prober_; }

  // ---- Reliable delivery (DESIGN.md §15)

  /// Turns on gap detection + replay: deliveries carry the broker's
  /// per-topic ring sequence in delivery_seq; a jump past the expected next
  /// value sends a kReplayRequest for the missing range. Off by default
  /// (the default plane is bit-identical to the pre-reliable client).
  void set_reliable(bool on) { reliable_ = on; }
  [[nodiscard]] bool reliable() const { return reliable_; }

  /// Negative chaos hook: with dedup disabled, duplicate publications are
  /// RECORDED instead of absorbed — the no-duplicate oracle must catch this.
  void set_dedup_enabled(bool on) { dedup_enabled_ = on; }

  /// Duplicates that made it into deliveries() because dedup was disabled
  /// (always 0 with the filter on).
  [[nodiscard]] std::uint64_t recorded_duplicate_count() const {
    return recorded_duplicates_;
  }

  /// Distinct publications received on `topic` (dedup'd across replays and
  /// handover overlap) — the zero-loss oracle compares this against the
  /// broker-accepted count.
  [[nodiscard]] std::uint64_t unique_count(TopicId topic) const;

  /// True when the topic is subscribed with a match-all content filter (the
  /// zero-loss oracle only binds such subscribers — filtered ones
  /// legitimately receive less).
  [[nodiscard]] bool matches_all(TopicId topic) const;

  /// Reliable sync pass, client half: re-request replay from the expected
  /// next sequence on every attachment, repairing tail losses that no later
  /// delivery's gap would reveal.
  void sync_replay();

  /// Reconnect-and-replay after a broker outage: re-sends the kSubscribe for
  /// every topic attached to `region` and (in reliable mode) resets their
  /// gap tracking, so the next sync pass replays the rebuilt broker's whole
  /// retained ring through the dedup filter.
  void reconnect(RegionId region);

 private:
  void handle(const wire::Message& msg);
  void attach(TopicId topic, RegionId region);
  void on_publication(const wire::Message& msg, bool replayed);
  void request_replay(TopicId topic, std::uint64_t from);

  ClientId id_;
  net::Clock* clock_;
  net::Bus* bus_;
  const geo::ClientLatencyMap* latencies_;
  LatencyProber prober_;
  std::unordered_map<TopicId, RegionId> attachments_;
  std::unordered_map<TopicId, wire::KeyFilter> filters_;
  std::vector<DeliveryRecord> deliveries_;
  /// Dedup filter: per (topic, publisher), the publication seqs already
  /// delivered (handover overlap can deliver twice).
  std::unordered_map<TopicId, std::unordered_map<ClientId, SeqSet>> seen_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t duplicates_ = 0;

  // ---- Reliable-delivery state (inert when reliable_ is off).
  bool reliable_ = false;
  bool dedup_enabled_ = true;
  /// Cumulative-ack cursor over the broker's ring numbering per topic;
  /// reset on every attach — a reconnect (possibly to a
  /// crashed-and-rebuilt broker) restarts gap tracking and the next sync
  /// pass replays the ring suffix. Cumulative (never skipping a hole) so a
  /// lost replay batch is simply re-requested by a later sync.
  std::unordered_map<TopicId, SeqTracker> cursors_;
  std::uint64_t recorded_duplicates_ = 0;
};

}  // namespace multipub::client
