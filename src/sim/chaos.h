// Deterministic chaos harness (DESIGN.md §10).
//
// ChaosRunner drives a LiveSystem through a sequence of control rounds
// while a FaultSchedule injects region outages, asymmetric partitions,
// latency inflation and probabilistic message loss through the transport's
// FaultPlan. Everything — fault placement, coin flips, traffic phases — is
// derived from one seed, so a run is bit-reproducible: same seed, same
// schedule, same oracle report. ChaosOptions carry the LiveOptions of the
// system under test: control pipeline, shard count, subscriber plane and
// reliability layer.
//
// After every round an invariant oracle suite checks system-wide
// properties (cost-ledger conservation, dead-region silence and exclusion,
// counter consistency, controller convergence, constraint conformance).
// On a violation the runner shrinks the schedule — prefix truncation, then
// greedy event removal, re-executing a fresh system each probe — and the
// report renders a minimal reproducing schedule that can be pasted into a
// regression test via testutil::chaos_schedule().
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "geo/region_set.h"
#include "sim/fault_schedule.h"
#include "sim/live_runner.h"
#include "sim/scenario.h"

namespace multipub::sim {

/// Knobs for one chaos campaign.
struct ChaosOptions {
  int rounds = 12;              ///< control rounds per execution
  int fault_events = 4;         ///< generated schedule size (run() only)
  double interval_seconds = 10.0;
  Bytes payload_bytes = 1024;
  double rate_hz = 1.0;
  /// k: consecutive fault-free rounds before the convergence and
  /// conformance oracles arm (clients need time to migrate back).
  int convergence_rounds = 2;
  /// The live system under test. The report is byte-identical for every
  /// shard count, and across subscriber planes for schedules free of drop
  /// rules (a partially dropped kConfigUpdate re-homes a whole flock). live.reliable arms the
  /// zero-message-loss, no-duplicate and bounded-replication-lag oracles,
  /// and outages then crash/restore brokers.
  LiveOptions live;
  /// Negative-path demo (requires reliable): brokers refuse to serve
  /// kReplayRequest, so any dropped delivery stays lost and the
  /// zero-message-loss oracle must catch it with a minimal schedule.
  bool break_replay = false;
  /// Negative-path demo (requires reliable): clients record duplicates
  /// instead of absorbing them, so the first replayed overlap trips the
  /// no-duplicate oracle.
  bool break_dedup = false;
  /// Negative-path demo (requires reliable): brokers stop streaming state
  /// deltas/snapshots to their standby, so the bounded-replication-lag
  /// oracle must catch the stale replica.
  bool break_state_sync = false;
  /// Negative-path demo: disables the controller's outage exclusion so it
  /// keeps routing topics through dead regions. The dead-region-exclusion
  /// oracle must catch this with a minimal schedule.
  bool break_outage_exclusion = false;
  /// Negative-path demo: the runner skips every control round, so the
  /// deployment can never converge back to the analytic optimum.
  bool freeze_control_plane = false;
  bool shrink_on_failure = true;
  int max_shrink_runs = 64;     ///< probe budget for the greedy pass
};

/// One oracle failure.
struct OracleViolation {
  std::string oracle;  ///< stable name, e.g. "dead-region-exclusion"
  int round = -1;
  std::string detail;
};

/// Everything the oracle suite looks at after one round. The runner fills
/// this from the live system; negative unit tests hand-craft instances.
struct RoundObservation {
  int round = 0;
  bool fault_active = false;  ///< any schedule event covered this round
  int clean_streak = 0;       ///< consecutive fault-free rounds, incl. this

  // Counter books (cumulative transport counters, post-drain).
  std::size_t pending_events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_sender_down = 0;

  // Cost books.
  Dollars ledger_total = 0.0;  ///< CostLedger::total_cost
  Dollars topic_total = 0.0;   ///< SimTransport::topic_cost_total

  /// Per-region activity DELTAS over the round for regions that were down
  /// for the whole round. A dead region must be silent on every axis.
  struct DownRegionActivity {
    RegionId region;
    std::uint64_t broker_delta = 0;  ///< delivered+forwarded+drain deltas
    Bytes egress_delta = 0;          ///< inter-region + internet bytes
  };
  std::vector<DownRegionActivity> down_regions;

  // Deployment state after the round's control round.
  geo::RegionSet down_set;   ///< regions down when the controller decided
  geo::RegionSet universe;   ///< all catalog regions
  bool have_deployed = false;
  core::TopicConfig deployed;

  // Convergence: analytic re-optimization of the controller's aggregate.
  bool check_convergence = false;
  core::TopicConfig analytic;

  // Conformance: measured percentile vs the topic's bound, checked when the
  // serving configuration claimed the constraint was met.
  bool check_conformance = false;
  Millis measured_percentile = 0.0;
  Millis max_t = kUnreachable;

  // ---- Reliable-delivery books (armed only under live.reliable).

  /// Arms the no-duplicate oracle (checked every round).
  bool reliable = false;
  /// Duplicate publications the dedup layer let through to an application
  /// (weighted on the cohort plane). Must be zero: replay and handover
  /// overlap may re-send, but the (topic, publisher, seq) identity filter
  /// must absorb every copy.
  std::uint64_t recorded_duplicates = 0;

  /// Zero-message-loss, checked on clean rounds (the sync pass has run
  /// fault-free): every match-all audience member holds every publication
  /// except the provably unrepairable.
  bool check_zero_loss = false;
  std::uint64_t published = 0;      ///< cumulative topic publications
  std::uint64_t publish_drops = 0;  ///< kPublish copies lost in flight
                                    ///< (weighted; never reached a broker)
  std::uint64_t crash_lost = 0;     ///< died inside a crashed broker before
                                    ///< reaching any surviving one
  /// Smallest unique-publication count over the match-all audience
  /// (Subscriber::unique_count / CohortPool::flock_complete_count).
  std::uint64_t min_unique = 0;
  bool have_audience = false;  ///< min_unique is meaningful

  /// Bounded-replication-lag, checked on clean rounds after the heartbeat
  /// sync: each standby's applied delta sequence must equal its primary's.
  struct ReplicationLag {
    RegionId primary;
    std::uint64_t state_seq = 0;    ///< primary's delta sequence
    std::uint64_t applied_seq = 0;  ///< standby replica's applied sequence
  };
  bool check_replication = false;
  std::vector<ReplicationLag> replication;
};

/// Runs every oracle over one observation; returns the violations (empty =
/// all invariants hold). Pure — exposed so each oracle gets direct positive
/// and negative unit tests.
[[nodiscard]] std::vector<OracleViolation> check_invariants(
    const RoundObservation& obs);

/// Outcome of one chaos campaign.
struct ChaosReport {
  std::uint64_t seed = 0;
  int rounds = 0;
  FaultSchedule schedule;  ///< what actually ran
  std::vector<OracleViolation> violations;
  [[nodiscard]] bool passed() const { return violations.empty(); }

  /// Shrunk repro (only on failure with shrink_on_failure): the smallest
  /// event subset that still trips `minimal_oracle` within minimal_rounds.
  FaultSchedule minimal_schedule;
  int minimal_rounds = 0;
  std::string minimal_oracle;

  // Campaign totals (first, unshrunk execution).
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
  Dollars total_cost = 0.0;

  /// Deterministic human-readable report. On failure it ends with the
  /// minimal schedule in fault-schedule syntax, pasteable into
  /// testutil::chaos_schedule().
  [[nodiscard]] std::string render() const;
};

/// Draws a randomized-but-valid schedule: outages biased to the scenario's
/// home regions (where they hurt), at most one region down per round,
/// windows clamped to leave `options.convergence_rounds + 1` clean tail
/// rounds. Deterministic in `rng`.
[[nodiscard]] FaultSchedule generate_schedule(const Scenario& scenario,
                                              const ChaosOptions& options,
                                              Rng& rng);

class ChaosRunner {
 public:
  /// Borrows the scenario; it must outlive the runner.
  ChaosRunner(const Scenario& scenario, const ChaosOptions& options);

  /// Runs the scenario's own fault schedule if it has one, otherwise a
  /// generated one. Everything derives from `seed`.
  [[nodiscard]] ChaosReport run(std::uint64_t seed);

  /// Runs an explicit schedule (regression-test entry point).
  [[nodiscard]] ChaosReport run_schedule(const FaultSchedule& schedule,
                                         std::uint64_t seed);

 private:
  struct Execution {
    std::vector<OracleViolation> violations;
    std::uint64_t publications = 0;
    std::uint64_t deliveries = 0;
    Dollars total_cost = 0.0;
  };
  /// One full system life: fresh LiveSystem, `rounds` rounds, oracles each
  /// round. stop_at_first makes shrink probes cheap.
  Execution execute(const FaultSchedule& schedule, std::uint64_t seed,
                    int rounds, bool stop_at_first);
  void shrink(ChaosReport& report, std::uint64_t seed);

  const Scenario* scenario_;
  ChaosOptions options_;
};

}  // namespace multipub::sim
