// Cohort-compressed subscriber plane (DESIGN.md §12).
//
// Clients that are identical in every simulation-relevant way — same home
// region, same interned topic set, same interned latency row — fold into
// one COHORT. Each (cohort, topic) pair is a FLOCK: the dense addressable
// unit the broker's subscription table holds and the transport fans out to.
// One weighted message per flock replaces one message per member, and every
// counter, billed byte, and latency sample carries the member count — so at
// equal scale the cohort plane is bit-identical to the per-client plane,
// and at a million clients it does a thousandth of the event work.
//
// The pool is the cohort-mode twin of client::Subscriber: it attaches each
// flock to the closest serving region, performs make-before-break handover
// on kConfigUpdate (grace-delayed weighted unsubscribe, flap-back safe),
// dedups handover duplicates per (topic, publisher, seq), and records
// weighted arrivals that expand back to exact per-member delivery times.
// The dedup book is one SeqSet of runs per (topic, publisher), so it stays
// flat however long the stream runs (DESIGN.md §12).
//
// Equivalence envelope (the differential tests pin it): membership churn
// happens at drained quiescent points; fault rules never name clients as
// SENDERS; event sequence numbers may differ between the planes, which is
// observable only through same-timestamp tie-breaks that carry equal
// payloads. See DESIGN.md §12 for the full argument.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "client/client_registry.h"
#include "client/topic_set_pool.h"
#include "common/seq_tracker.h"
#include "core/config.h"
#include "net/bus.h"
#include "net/cohort_directory.h"

namespace multipub::client {

class CohortPool final : public net::CohortDirectory {
 public:
  /// Borrows everything; registry and topic sets must outlive the pool.
  /// Registers one bus handler per flock as cohorts are enrolled.
  CohortPool(ClientRegistry& registry, TopicSetPool& topic_sets,
             net::Clock& clock, net::Bus& bus);
  ~CohortPool();

  CohortPool(const CohortPool&) = delete;
  CohortPool& operator=(const CohortPool&) = delete;

  /// Places `client` into the cohort for its (home, topic set, latency row)
  /// key, creating the cohort — and one flock per subscribed topic — on
  /// first sight. Returns the cohort slot, or -1 for an empty topic set.
  /// Enrollment order defines cohort and flock ids, so enroll in a
  /// deterministic order (the scenario's subscriber order).
  std::int32_t enroll(ClientId client);

  /// Forbids creating NEW cohorts (existing ones keep accepting members).
  /// Called before the simulator is sharded: a flock's shard is fixed by
  /// the shard map, so the flock universe must be closed first.
  void freeze() { frozen_ = true; }

  [[nodiscard]] std::size_t cohort_count() const { return cohorts_.size(); }
  [[nodiscard]] std::size_t flock_count() const { return flocks_.size(); }
  /// Cohorts whose last member left (kept addressable, zero fan-out).
  [[nodiscard]] std::size_t retired_cohort_count() const;
  [[nodiscard]] RegionId cohort_home(std::int32_t cohort) const;
  [[nodiscard]] std::uint32_t cohort_weight(std::int32_t cohort) const;

  /// Cohort-mode twin of the deploy() subscriber loop: every flock of
  /// `topic` attaches to the closest serving region (one weighted
  /// kSubscribe per flock).
  void deploy(TopicId topic, const core::TopicConfig& config,
              wire::KeyFilter filter = wire::KeyFilter::all());

  /// Member-level churn, mirroring Subscriber::subscribe/unsubscribe: the
  /// client moves between cohorts (weight-1 kSubscribe/kUnsubscribe on the
  /// affected flocks). A filter must match the flock's — cohort keys do not
  /// include filters, so a flock is uniformly filtered by construction.
  void subscribe_client(ClientId client, TopicId topic,
                        const core::TopicConfig& config,
                        wire::KeyFilter filter = wire::KeyFilter::all());
  void unsubscribe_client(ClientId client, TopicId topic);

  /// Silent death: the member leaves its cohort without a protocol
  /// good-bye, like a crashed client. The flock's weight drops immediately;
  /// a flock at weight 0 is retired from fan-out.
  void kill_client(ClientId client);

  /// The flock representing (client's cohort, topic); -1 when the client is
  /// in no cohort or not subscribed to the topic.
  [[nodiscard]] std::int32_t flock_of(ClientId client, TopicId topic) const;
  /// Region the client's flock is attached to for the topic (invalid when
  /// none) — the cohort-mode attached_region().
  [[nodiscard]] RegionId attached_region(ClientId client, TopicId topic) const;

  /// Drops the recorded arrivals of every cohort (start of an interval);
  /// the dedup book, one run per stream plus one per hole, is kept.
  void clear_arrivals();

  /// Appends the member's delivery times since clear_arrivals(), in arrival
  /// order — exactly the vector the member's per-client Subscriber would
  /// have recorded.
  void append_delivery_times(ClientId member, std::vector<Millis>& out) const;

  /// Weighted counter totals (sums over cohorts; read at drained points).
  [[nodiscard]] std::uint64_t reconnect_weight() const;
  [[nodiscard]] std::uint64_t duplicate_weight() const;
  /// Weighted deliveries recorded since clear_arrivals().
  [[nodiscard]] std::uint64_t interval_delivery_weight() const;
  /// Weighted deliveries recorded over the pool's lifetime.
  [[nodiscard]] std::uint64_t total_delivery_weight() const;
  /// Runs held by every cohort's dedup book.
  [[nodiscard]] std::size_t seen_run_count() const;

  // ---- Reliable delivery (DESIGN.md §15), mirroring Subscriber exactly.

  /// Turns on gap detection + replay. A uniform flock (every member expects
  /// the same next sequence) compresses the members' identical gap requests
  /// into one weighted kReplayRequest; after a fault split leaves members at
  /// different positions the pool falls back to per-member weight-1
  /// requests — byte-for-byte what the per-client plane sends.
  void set_reliable(bool on) { reliable_ = on; }
  [[nodiscard]] bool reliable() const { return reliable_; }

  /// Negative chaos hook, cohort twin of Subscriber::set_dedup_enabled.
  void set_dedup_enabled(bool on) { dedup_enabled_ = on; }

  /// Weighted duplicates recorded because dedup was disabled (always 0 with
  /// the filter on).
  [[nodiscard]] std::uint64_t recorded_duplicate_weight() const;

  /// Reliable sync pass, cohort half: every attached flock re-requests
  /// replay from its expected next sequence (weighted when uniform,
  /// per-member otherwise).
  void sync_replay();

  /// Reconnect-and-replay after a broker outage, cohort twin of
  /// Subscriber::reconnect: every flock attached to `region` re-sends its
  /// weighted kSubscribe and resets gap tracking.
  void reconnect(RegionId region);

  [[nodiscard]] TopicId flock_topic(std::int32_t flock) const;
  /// True when the flock subscribes with a match-all content filter.
  [[nodiscard]] bool flock_matches_all(std::int32_t flock) const;
  /// Distinct publications on the flock's topic that EVERY current member
  /// has received — the cohort-plane quantity the zero-loss oracle compares
  /// against the broker-accepted count.
  [[nodiscard]] std::uint64_t flock_complete_count(std::int32_t flock) const;

  // CohortDirectory — the transport/broker view.
  [[nodiscard]] std::uint32_t flock_weight(std::int32_t flock) const override;
  [[nodiscard]] std::span<const ClientId> flock_members(
      std::int32_t flock) const override;
  [[nodiscard]] Millis flock_latency(std::int32_t flock,
                                     RegionId region) const override;
  [[nodiscard]] RegionId flock_home(std::int32_t flock) const override;
  [[nodiscard]] RegionId flock_attachment(std::int32_t flock) const override;

 private:
  struct KeyHash {
    std::size_t operator()(std::uint64_t k) const {
      return static_cast<std::size_t>(k * 0x9e3779b97f4a7c15ULL);
    }
  };
  /// Dedup book of one (topic, publisher) stream: the seqs every member
  /// holds, and per fault-split publication the members holding a copy
  /// (until every member does; then it joins `whole`).
  struct SeenStream {
    SeqSet whole;
    std::unordered_map<std::uint64_t, std::vector<ClientId>> split;
  };

  /// One recorded delivery. member == invalid: a whole-flock arrival
  /// covering `weight` members — all of them when `fresh` is empty, exactly
  /// the listed ones when a partial duplicate left only some members
  /// unserved. member valid: a fault-split weight-1 arrival for one member.
  struct Arrival {
    TopicId topic;
    ClientId member;
    std::uint32_t weight = 1;
    Millis value = 0.0;
    std::vector<ClientId> fresh;
  };

  struct Flock {
    std::int32_t cohort = -1;
    TopicId topic;
    RegionId attachment = RegionId::invalid();
    /// Regions whose broker table currently holds this flock's entry — the
    /// pool's mirror of the per-client table transitions, from which the
    /// kSubscribe membership-marking seq is derived.
    geo::RegionSet presence;
    wire::KeyFilter filter;
    /// Reliable mode: cumulative-ack cursor over the broker's ring
    /// numbering, shared by every member without an override (reset on
    /// every attach, like Subscriber's).
    SeqTracker cursor;
    /// Members whose position diverged from the shared cursor (fault-split
    /// deliveries land on single members); keyed by ClientId value, dropped
    /// as soon as the flock is uniform again.
    std::unordered_map<std::int32_t, SeqTracker> cursor_override;
  };

  struct Cohort {
    RegionId home;
    std::int32_t topic_set = TopicSetPool::kEmpty;
    std::int32_t row = -1;
    std::vector<ClientId> members;
    /// (topic, flock id), ascending by topic.
    std::vector<std::pair<TopicId, std::int32_t>> flocks;
    std::vector<Arrival> arrivals;
    std::unordered_map<std::uint64_t, SeenStream, KeyHash> seen;
    // Shard-local counters (a cohort's flocks all live on the home
    // region's shard); summed by the accessors at drained points.
    std::uint64_t reconnects_w = 0;
    std::uint64_t duplicates_w = 0;
    std::uint64_t interval_deliveries_w = 0;
    std::uint64_t total_deliveries_w = 0;
    /// Weighted duplicates recorded because dedup was disabled (negative
    /// chaos hook; always 0 otherwise).
    std::uint64_t recorded_duplicates_w = 0;
  };

  /// Where one of a client's flocks sits, carried into the cohort the
  /// client moves to when its topic set changes.
  struct FlockPlacement {
    TopicId topic;
    RegionId attachment;
    wire::KeyFilter filter;
  };

  [[nodiscard]] static std::uint64_t cohort_key(RegionId home,
                                                std::int32_t topic_set,
                                                std::int32_t row) {
    // 16/24/24 bit packing: regions are single digits, interned handles
    // stay far below 16M in any plausible population.
    return (static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(home.value()))
            << 48) |
           (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(topic_set) & 0xffffffu)
            << 24) |
           (static_cast<std::uint32_t>(row) & 0xffffffu);
  }

  [[nodiscard]] Cohort& cohort_of_flock(std::int32_t flock);
  [[nodiscard]] const Cohort& cohort_of_flock(std::int32_t flock) const;
  /// Finds (or, unless frozen, creates) the cohort slot for a key.
  std::int32_t cohort_slot(RegionId home, std::int32_t topic_set,
                           std::int32_t row);
  void remove_member(ClientId client);
  /// Removes the client from its cohort, sending a weight-1 kUnsubscribe on
  /// every attached flock (its table entries everywhere go away).
  void leave_cohort(ClientId client);
  /// The placements of the client's current flocks other than `topic`'s
  /// (none when it belongs to no cohort).
  [[nodiscard]] std::vector<FlockPlacement> placements_except(
      ClientId client, TopicId topic) const;
  /// Seeds the `topic_set` cohort's flocks from `placements` (an empty
  /// cohort takes them; a populated one must already match), then
  /// add_member()s the client.
  void join_cohort(ClientId client, std::int32_t topic_set,
                   std::span<const FlockPlacement> placements);
  /// Adds the client to the (existing or new) cohort for `topic_set`,
  /// emitting one weight-1 kSubscribe per flock — a joining member is a new
  /// table entry everywhere, so every one is membership-marking. Every
  /// flock of the target cohort must already be attached.
  void add_member(ClientId client, std::int32_t topic_set);

  /// Attaches a flock to `region` with make-before-break handover,
  /// mirroring Subscriber::attach under weighting.
  void attach(std::int32_t flock_id, RegionId region);
  void send_control(std::int32_t flock_id, RegionId to,
                    wire::MessageType type, std::uint32_t weight,
                    std::uint64_t membership_seq);
  void handle(std::int32_t flock_id, const wire::Message& msg);
  void on_deliver(std::int32_t flock_id, const wire::Message& msg,
                  bool replayed);
  /// Sends one kReplayRequest for the flock: `member` invalid = a weighted
  /// request standing for `weight` members at the same position; valid = a
  /// weight-1 request for that member alone.
  void request_replay(std::int32_t flock_id, std::uint64_t from,
                      std::uint32_t weight, ClientId member);
  /// Reliable gap/advance bookkeeping shared by kDeliver and kReplayBatch.
  void track_sequence(std::int32_t flock_id, const wire::Message& msg,
                      bool replayed);

  ClientRegistry* registry_;
  TopicSetPool* topic_sets_;
  net::Clock* clock_;
  net::Bus* bus_;
  std::vector<Cohort> cohorts_;
  std::vector<Flock> flocks_;
  std::unordered_map<std::uint64_t, std::int32_t, KeyHash> by_key_;
  bool frozen_ = false;
  bool reliable_ = false;
  bool dedup_enabled_ = true;
};

}  // namespace multipub::client
