// Heuristic configuration search (the paper's proposed future work).
//
// Brute force evaluates 2*(2^N - 1) - N configurations — fine for 10
// regions, hopeless for 30+. The heuristic runs in polynomial time:
//
//   1. SEED    — evaluate every single-region configuration, keep the best
//               under the optimizer's ordering.
//   2. GROW    — while the constraint is violated, add the absent region
//               (trying both permitted modes) that most reduces the
//               delivery-time percentile; stop when no addition helps.
//   3. TRIM    — repeatedly remove the region (or flip the delivery mode)
//               whose removal most reduces cost while keeping the
//               constraint satisfied.
//
// The result is not guaranteed optimal; the ablation bench and property
// tests measure how close it gets (on the EC2 world it almost always
// matches brute force exactly).
#pragma once

#include "core/optimizer.h"

namespace multipub::core {

struct HeuristicOptions {
  ModePolicy mode_policy = ModePolicy::kBoth;
  /// Restrict the search to these regions (empty = the whole catalog).
  /// Used for outage masking and pruning, mirroring OptimizerOptions.
  geo::RegionSet candidates;
};

struct HeuristicResult {
  TopicConfig config;
  Millis percentile = 0.0;
  Dollars cost = 0.0;
  bool constraint_met = false;
  /// Number of configuration evaluations performed (the cost driver; the
  /// brute-force equivalent is 2*(2^N - 1) - N).
  std::size_t configs_evaluated = 0;
};

class HeuristicOptimizer {
 public:
  /// Borrows all three inputs; they must outlive the optimizer.
  HeuristicOptimizer(const geo::RegionCatalog& catalog,
                     const geo::InterRegionLatency& backbone,
                     const geo::ClientLatencyMap& clients);

  /// Greedy seed/grow/trim search. Pre: topic has >= 1 subscriber and >= 1
  /// publisher with msg_count > 0.
  [[nodiscard]] HeuristicResult optimize(
      const TopicState& topic, const HeuristicOptions& options = {}) const;

 private:
  [[nodiscard]] ConfigEvaluation evaluate(const TopicState& topic,
                                          const TopicConfig& config) const;

  const geo::RegionCatalog* catalog_;
  Optimizer exact_;  // reused for single-config evaluation
};

}  // namespace multipub::core
