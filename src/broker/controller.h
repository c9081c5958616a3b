// The MultiPub controller (paper §III-A4/A5).
//
// Installed in one region, the controller folds the region managers'
// per-interval reports into a persistent TopicStore (one aggregated
// TopicState per topic, with dirty tracking), re-optimizes the topics that
// changed, and emits the configurations that changed. It owns the per-topic
// delivery constraints and the latency matrices (paper: "it keeps track of
// the latencies between every client and each of the cloud regions, as well
// as between each pair of cloud regions").
//
// Reconfiguration is incremental: reconfigure() only runs the optimizer for
// DIRTY topics (traffic / membership / constraint / availability / latency
// changes since the previous round) and carries the deployed configuration
// forward for clean ones. reconfigure_full() keeps the seed's full scan as
// the reference path — both produce bit-identical deployed assignment
// matrices (see incremental_diff_test).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "broker/region_manager.h"
#include "core/evaluation_engine.h"
#include "core/heuristic.h"
#include "core/latency_estimator.h"
#include "core/mitigation.h"
#include "core/optimizer.h"
#include "core/topic_store.h"

namespace multipub::broker {

class Controller {
 public:
  /// Catalog and backbone are borrowed and must outlive the controller; the
  /// client latency matrix is COPIED into the controller's latency
  /// estimator, which keeps it up to date as measurements arrive.
  Controller(const geo::RegionCatalog& catalog,
             const geo::InterRegionLatency& backbone,
             const geo::ClientLatencyMap& clients);

  /// Registers (or updates) a topic's delivery constraint. Topics without a
  /// constraint are optimized for cost only (constraint "any latency").
  void set_constraint(TopicId topic, const core::DeliveryConstraint& constraint);

  /// Ingests one region's interval reports (called once per region per
  /// interval). Reports may be deltas — only the topics whose activity
  /// changed at that region — or, with `full_snapshot`, the region's
  /// complete topic list, in which case topics the region did NOT report
  /// are dropped from its view (self-healing against lost deltas).
  /// Publisher statistics are deduplicated across regions by taking the
  /// maximum per publisher: under direct delivery every serving region
  /// observes the same publications.
  void ingest(RegionId region, const std::vector<TopicReport>& reports,
              bool full_snapshot = false);

  /// One topic's outcome of a reconfiguration round.
  struct Decision {
    TopicId topic;
    core::OptimizerResult result;
    /// False when the optimal configuration equals the deployed one (no
    /// deployment necessary). Carried-forward decisions of clean topics are
    /// always unchanged and report configs_evaluated == 0.
    bool changed = false;
    /// Clients whose last-reported region is currently unavailable: their
    /// own region manager cannot notify them, so the deployment driver must
    /// route their kConfigUpdate through an alive region manager
    /// (RegionManager::notify_client).
    std::vector<ClientId> orphans;
    /// Regions force-added by the high-latency mitigation pass (paper
    /// §IV-D), when enabled.
    std::vector<RegionId> mitigation_regions;
  };

  /// What one reconfiguration round did (incremental observability).
  struct RoundStats {
    std::uint64_t round = 0;        ///< 1-based counter; 0 = no round yet
    std::size_t tracked = 0;        ///< topics in the store
    std::size_t dirty = 0;          ///< dirty at round start
    std::size_t evaluated = 0;      ///< optimizer actually ran
    std::size_t skipped_clean = 0;  ///< clean; deployed config carried forward
    std::size_t skipped_empty = 0;  ///< no subscribers or no traffic
    /// Dirty topics per DirtyReason bit (index i = bit 1 << i; a topic dirty
    /// for several reasons counts once per reason).
    std::array<std::size_t, core::kDirtyReasonCount> dirty_by_reason{};
    bool full_scan = false;
  };

  /// Incremental round: optimizes only the dirty topics, carries the
  /// deployed configuration forward for clean ones, and returns one
  /// decision per previously-optimized topic, ordered by topic id.
  [[nodiscard]] std::vector<Decision> reconfigure(
      const core::OptimizerOptions& options = {});

  /// Reference round: optimizes every tracked topic regardless of dirtiness
  /// (the seed's behaviour). Kept for differential tests and as the
  /// --incremental off escape hatch; produces the same deployed matrix as
  /// reconfigure() fed with the same reports.
  [[nodiscard]] std::vector<Decision> reconfigure_full(
      const core::OptimizerOptions& options = {});

  [[nodiscard]] const RoundStats& last_round_stats() const { return stats_; }

  /// The configuration currently deployed for a topic (nullptr before the
  /// first reconfigure round that saw it).
  [[nodiscard]] const core::TopicConfig* deployed_config(TopicId topic) const;

  /// One row of the assignment matrix (paper §III-A2).
  struct AssignmentRow {
    TopicId topic;
    core::TopicConfig config;
  };

  /// The deployed assignment matrix, rows sorted by topic id.
  [[nodiscard]] std::vector<AssignmentRow> assignment_matrix() const;

  /// Printable form: one line per topic, one column per region —
  ///   topic 0 | 1 0 0 0 1 0 0 0 0 0 | routed
  [[nodiscard]] std::string render_assignment_matrix() const;

  /// The TopicState the controller would optimize right now (exposed for
  /// tests and the live runner's analytic cross-checks).
  [[nodiscard]] core::TopicState aggregate(TopicId topic) const;

  [[nodiscard]] const core::Optimizer& optimizer() const { return optimizer_; }
  [[nodiscard]] const core::TopicStore& topic_store() const { return store_; }

  /// Folds one region's drained latency reports into the estimator: each
  /// sample is a measured client<->region one-way latency (paper §III-C).
  /// Samples that move an estimate dirty the client's topics.
  void observe_latencies(RegionId region,
                         const std::vector<LatencyReport>& reports);

  /// Marks a region unavailable (outage) or available again. Unavailable
  /// regions are excluded from every topic's candidate set at the next
  /// reconfigure round.
  void set_region_available(RegionId region, bool available);
  [[nodiscard]] bool region_available(RegionId region) const;

  /// Chaos/testing hook: when disabled, reconfigure rounds STOP masking
  /// unavailable regions out of the candidate sets (availability is still
  /// tracked for orphan bookkeeping). This deliberately re-introduces the
  /// bug class where the controller routes topics through dead regions —
  /// the chaos harness's dead-region oracles must catch it. On by default.
  void set_outage_exclusion_enabled(bool enabled) {
    outage_exclusion_enabled_ = enabled;
  }

  /// Enables the paper's §IV-D pass: after each topic's optimization, scan
  /// for subscribers whose every delivery misses max_T and force-add a
  /// region when it meets (or significantly improves) their latencies.
  void enable_mitigation(bool enabled,
                         const core::MitigationParams& params = {});

  /// Which search the reconfigure rounds run. kExhaustive is the paper's
  /// brute force (exponential in regions); kHeuristic is the polynomial
  /// seed/grow/trim-swap search — the right choice past ~15 regions.
  enum class Solver { kExhaustive, kHeuristic };
  void set_solver(Solver solver) { solver_ = solver; }
  [[nodiscard]] Solver solver() const { return solver_; }

  /// Enables automatic failure detection: a region that misses
  /// `missed_rounds` consecutive ingest rounds (no ingest() call between
  /// two reconfigure() calls) is marked unavailable; it becomes available
  /// again on its next ingest. Manual set_region_available still overrides.
  void enable_failure_detection(int missed_rounds = 2);

  /// Rounds each region has consecutively missed (diagnostics).
  [[nodiscard]] int missed_rounds(RegionId region) const;

  [[nodiscard]] const core::LatencyEstimator& latency_estimator() const {
    return estimator_;
  }

 private:
  /// Cached outcome of a topic's last optimization, replayed for clean
  /// topics without rerunning the solver.
  struct CachedOutcome {
    core::OptimizerResult result;
    std::vector<RegionId> mitigation_regions;
  };

  std::vector<Decision> reconfigure_impl(const core::OptimizerOptions& options,
                                         bool full_scan);
  /// Everything besides the topic state that can flip an optimization
  /// outcome. When it differs from the previous round's, every cached
  /// decision is invalid (the optimizer's epsilon tie-breaks make even
  /// "unrelated" topics sensitive to the candidate universe).
  struct RoundFingerprint {
    std::uint64_t candidates_mask = 0;
    core::ModePolicy mode_policy{};
    core::EvaluationStrategy strategy{};
    Solver solver{};
    bool mitigation = false;
    friend bool operator==(const RoundFingerprint&,
                           const RoundFingerprint&) = default;
  };

  core::LatencyEstimator estimator_;  // must precede the solvers (borrowed)
  core::Optimizer optimizer_;
  /// The exhaustive solver's engine: its per-topic buffers and 2^k row
  /// table are reused across topics and rounds.
  core::EvaluationEngine engine_;
  core::HeuristicOptimizer heuristic_;
  Solver solver_ = Solver::kExhaustive;
  geo::RegionSet unavailable_;
  bool outage_exclusion_enabled_ = true;
  bool mitigation_enabled_ = false;
  core::MitigationParams mitigation_params_;
  int failure_detection_rounds_ = 0;  ///< 0 = disabled
  std::vector<int> missed_rounds_;    ///< per region, consecutive misses
  std::vector<bool> reported_this_round_;
  /// Last region each client was reported at (attachment for subscribers,
  /// publishing target for publishers) — the failover notification map.
  std::unordered_map<TopicId, std::unordered_map<ClientId, RegionId>>
      last_seen_at_;
  core::TopicStore store_;
  std::unordered_map<TopicId, CachedOutcome> last_outcomes_;
  RoundFingerprint last_fingerprint_;
  bool has_last_fingerprint_ = false;
  std::uint64_t rounds_ = 0;
  RoundStats stats_;
  std::unordered_map<TopicId, core::TopicConfig> deployed_;
};

}  // namespace multipub::broker
