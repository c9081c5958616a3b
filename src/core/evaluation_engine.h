// Batched subset-lattice evaluation engine for the optimizer hot path.
//
// The reference path (Optimizer::evaluate, kept for differential testing)
// treats each of the 2·(2^N − 1) − N configurations independently: it
// re-resolves every client's closest serving region with an O(N) scan —
// twice, once in the delivery model and once in the cost model — allocates a
// fresh P×S weighted-sample vector and runs a full weighted quickselect per
// configuration. The engine evaluates the whole lattice in one pass instead:
//
//  1. Region preference lists. Each client's candidate regions are sorted
//     once per topic by (latency, region id) — the exact tie-break of
//     ClientLatencyMap::closest_region — so closest(client, subset) is the
//     first subset member in preference order, and during the lattice walk
//     the comparison "does the newly added region steal this client?" is a
//     single rank compare.
//  2. Lattice-order enumeration. Subsets are walked depth-first, each child
//     extending its parent by one region, so serving assignments update
//     incrementally (the new region either steals a client or nothing
//     changes) and are undone on backtrack.
//  3. Integer feasibility counting. The constraint <ratio, max> holds iff
//     the total weight of delivery samples ≤ max reaches the percentile
//     rank — an exact integer criterion maintained incrementally, with no
//     allocation and no quickselect.
//  4. Lazy percentiles. The weighted quickselect (reusing one scratch
//     buffer) runs only for configurations that survive the cost-first
//     feasible ordering, or — when nothing is feasible — for the
//     latency-minimizing fallback scan, not for all configurations.
//  5. Exact latency classes. Subscribers whose latency rows are bitwise
//     equal over the candidate members share preference ranks, serving
//     region and delivery samples, so prepare folds them into one class
//     weighted by their summed integer weights; steps 1–4 then run per
//     class. Folding is exact only while every weight × selectivity is an
//     integer, so it happens when all subscribers have selectivity 1.0;
//     otherwise each subscriber is its own class, in subscriber order.
//
// Selection replays the reference enumeration order (subset mask ascending,
// direct before routed), so tie-breaks resolve identically and the result is
// bit-identical to the reference path. See DESIGN.md §"Evaluation engine".
//
// An engine instance owns reusable scratch buffers and is therefore NOT
// thread-safe; create one engine per worker thread (optimize_topics does;
// broker::Controller keeps one for all its rounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/optimizer.h"

namespace multipub::core {

class EvaluationEngine {
 public:
  /// Borrows the optimizer (and through it the catalog/latency matrices);
  /// it must outlive the engine.
  explicit EvaluationEngine(const Optimizer& optimizer);

  /// Same contract and bit-identical result as Optimizer::optimize.
  /// kExactList delegates to the reference path (it exists to reproduce the
  /// paper's runtime analysis, not to be fast).
  [[nodiscard]] OptimizerResult optimize(const TopicState& topic,
                                         const OptimizerOptions& options = {});

  /// Same contract and bit-identical rows as Optimizer::evaluate_all_reference
  /// (every configuration's percentile is materialized, eagerly).
  [[nodiscard]] std::vector<ConfigEvaluation> evaluate_all(
      const TopicState& topic, const OptimizerOptions& options = {});

  /// Subscriber classes of the last topic evaluated (step 5 above).
  [[nodiscard]] std::size_t class_count() const { return n_classes_; }

 private:
  /// One lattice node × delivery mode; indexed by local subset mask.
  struct Row {
    Dollars cost_direct = 0.0;
    Dollars cost_routed = 0.0;
    Millis pct_direct = -1.0;  ///< lazily filled; -1 = not yet computed
    Millis pct_routed = -1.0;
    bool feasible_direct = false;
    bool feasible_routed = false;
  };

  /// Per-level undo record for the depth-first lattice walk.
  struct Level {
    std::vector<std::uint32_t> moved_classes;
    std::vector<std::int32_t> moved_classes_old_member;
    std::vector<std::uint64_t> moved_classes_old_contrib_d;
    std::vector<std::uint64_t> moved_classes_old_contrib_r;
    std::vector<std::uint32_t> moved_pubs;
    std::vector<std::int32_t> moved_pubs_old_member;
    std::vector<std::uint64_t> contrib_r_snapshot;
    std::uint64_t old_count_d = 0;
    std::uint64_t old_count_r = 0;
    bool pubs_moved = false;
  };

  void prepare(const TopicState& topic, const OptimizerOptions& options);
  /// Folds the subscribers into classes (fills class_lat_ / class_weight_*).
  void fold_subscribers(const TopicState& topic);
  void walk_lattice();
  void push_member(std::size_t j, Level& level);
  void pop_member(Level& level);
  void dfs(std::size_t next_member, std::uint64_t mask, int size);
  void emit_row(std::uint64_t mask, int size);

  [[nodiscard]] geo::RegionSet global_set(std::uint64_t mask) const;
  /// Lazily computes (and memoizes) the configuration's delivery percentile.
  [[nodiscard]] Millis percentile_of(std::uint64_t mask, DeliveryMode mode);

  const Optimizer* optimizer_;  // non-owning, never null

  // ---- per-topic state (rebuilt by prepare, buffers reused) ----
  const TopicState* topic_ = nullptr;
  std::vector<RegionId> members_;        ///< candidate regions, ascending id
  std::size_t k_ = 0;                    ///< members_.size()
  bool routed_tracked_ = false;          ///< policy permits routed rows
  Millis max_t_ = 0.0;
  std::uint64_t rank_needed_ = 0;        ///< percentile rank in total weight
  double published_bytes_ = 0.0;
  std::vector<double> beta_;             ///< $/byte per member
  std::vector<double> alpha_;
  std::vector<Millis> backbone_mm_;      ///< k×k member-to-member one-way
  std::size_t n_classes_ = 0;            ///< C, subscriber classes
  std::vector<Millis> class_lat_;        ///< C×k client→member latency
  std::vector<Millis> pub_lat_;          ///< P×k
  std::vector<std::uint16_t> class_rank_;  ///< C×k preference rank of member
  std::vector<std::uint16_t> pub_rank_;
  std::vector<std::uint32_t> active_pubs_;  ///< indices with msg_count > 0
  std::vector<std::uint64_t> active_msgs_;  ///< their msg_count
  std::vector<std::uint64_t> class_weight_;   ///< summed subscriber weight
  std::vector<double> class_weight_sel_;      ///< weight × selectivity
  /// Open-addressing row table for the fold: class index + 1, 0 = empty.
  std::vector<std::uint32_t> fold_slots_;

  // ---- lattice walk state ----
  std::vector<std::int32_t> cur_class_member_;  ///< -1 = unassigned
  std::vector<std::int32_t> cur_pub_member_;
  std::vector<std::uint64_t> contrib_d_;  ///< per-class weight ≤ max, direct
  std::vector<std::uint64_t> contrib_r_;
  std::uint64_t count_d_ = 0;
  std::uint64_t count_r_ = 0;
  std::vector<Level> levels_;
  std::vector<double> egress_counts_;    ///< per-member N_S accumulator
  std::vector<Row> rows_;                ///< 2^k entries

  // ---- lazy-percentile scratch ----
  std::vector<WeightedSample> samples_;
  std::vector<std::uint16_t> pref_order_;  ///< C+P × k members by preference
};

}  // namespace multipub::core
