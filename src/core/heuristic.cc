#include "core/heuristic.h"

#include <optional>

#include "common/assert.h"

namespace multipub::core {
namespace {

/// Delivery modes the policy permits for multi-region sets.
std::vector<DeliveryMode> permitted_modes(ModePolicy policy) {
  switch (policy) {
    case ModePolicy::kDirectOnly: return {DeliveryMode::kDirect};
    case ModePolicy::kRoutedOnly: return {DeliveryMode::kRouted};
    case ModePolicy::kBoth:
      return {DeliveryMode::kDirect, DeliveryMode::kRouted};
  }
  return {DeliveryMode::kDirect};
}

}  // namespace

HeuristicOptimizer::HeuristicOptimizer(const geo::RegionCatalog& catalog,
                                       const geo::InterRegionLatency& backbone,
                                       const geo::ClientLatencyMap& clients)
    : catalog_(&catalog), exact_(catalog, backbone, clients) {}

ConfigEvaluation HeuristicOptimizer::evaluate(const TopicState& topic,
                                              const TopicConfig& config) const {
  return exact_.evaluate(topic, config);
}

HeuristicResult HeuristicOptimizer::optimize(
    const TopicState& topic, const HeuristicOptions& options) const {
  MP_EXPECTS(!topic.subscribers.empty());
  MP_EXPECTS(topic.total_messages() > 0);
  const std::size_t n = catalog_->size();
  const geo::RegionSet candidates = options.candidates.empty()
                                        ? geo::RegionSet::universe(n)
                                        : options.candidates;
  const auto modes = permitted_modes(options.mode_policy);
  std::size_t evals = 0;
  auto is_candidate = [&](std::size_t i) {
    return candidates.contains(
        RegionId{static_cast<RegionId::underlying_type>(i)});
  };

  // TRIM/SWAP local search: remove one region, flip the delivery mode, or
  // swap one member for one absent region — whichever feasibility-preserving
  // move most improves the paper's ordering. Removal undoes GROW overshoot;
  // swaps repair greedy path dependence.
  auto local_search = [&](ConfigEvaluation current) {
    bool improved = current.feasible;
    while (improved) {
      improved = false;
      std::optional<ConfigEvaluation> best_step;
      auto consider = [&](const TopicConfig& candidate) {
        auto eval = evaluate(topic, candidate);
        ++evals;
        if (eval.feasible &&
            (!best_step || Optimizer::better(eval, *best_step))) {
          best_step = eval;
        }
      };
      auto consider_set = [&](geo::RegionSet regions) {
        if (regions.empty()) return;
        if (regions.size() == 1) {
          consider({regions, DeliveryMode::kDirect});
          return;
        }
        for (DeliveryMode mode : modes) consider({regions, mode});
      };

      for (RegionId r : current.config.regions) {
        const geo::RegionSet without = current.config.regions.without(r);
        consider_set(without);  // removal
        for (std::size_t i = 0; i < n; ++i) {
          if (!is_candidate(i)) continue;
          const RegionId a{static_cast<RegionId::underlying_type>(i)};
          if (current.config.regions.contains(a)) continue;
          consider_set(without.with(a));  // swap r -> a
        }
      }
      if (current.config.region_count() > 1) {
        for (DeliveryMode mode : modes) {
          if (mode != current.config.mode) {
            consider({current.config.regions, mode});  // mode flip
          }
        }
      }

      if (best_step && Optimizer::better(*best_step, current)) {
        current = *best_step;
        improved = true;
      }
    }
    return current;
  };

  // --- Pass A: SEED at the best single region, GROW until feasible, then
  //     local-search down. ---
  std::optional<ConfigEvaluation> best_single;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_candidate(i)) continue;
    const TopicConfig single{
        geo::RegionSet::single(RegionId{static_cast<RegionId::underlying_type>(i)}),
        DeliveryMode::kDirect};
    auto eval = evaluate(topic, single);
    ++evals;
    if (!best_single || Optimizer::better(eval, *best_single)) {
      best_single = eval;
    }
  }
  ConfigEvaluation grown = *best_single;
  while (!grown.feasible) {
    std::optional<ConfigEvaluation> best_step;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_candidate(i)) continue;
      const RegionId r{static_cast<RegionId::underlying_type>(i)};
      if (grown.config.regions.contains(r)) continue;
      for (DeliveryMode mode : modes) {
        auto eval = evaluate(topic, {grown.config.regions.with(r), mode});
        ++evals;
        if (!best_step || Optimizer::better(eval, *best_step)) {
          best_step = eval;
        }
      }
    }
    // Stop when no addition lowers the percentile: adding more regions is
    // then pure cost.
    if (!best_step ||
        (!best_step->feasible && best_step->percentile >= grown.percentile)) {
      break;
    }
    grown = *best_step;
  }
  ConfigEvaluation best = local_search(grown);

  // --- Pass B: SEED at the full region set and local-search down. The two
  //     directions get stuck in different local optima; tight-middle bounds
  //     are typically won by the shrink direction. ---
  std::optional<ConfigEvaluation> universe_best;
  for (DeliveryMode mode : modes) {
    auto eval = evaluate(
        topic, {candidates,
                candidates.size() == 1 ? DeliveryMode::kDirect : mode});
    ++evals;
    if (!universe_best || Optimizer::better(eval, *universe_best)) {
      universe_best = eval;
    }
  }
  const ConfigEvaluation shrunk = local_search(*universe_best);
  if (Optimizer::better(shrunk, best)) best = shrunk;

  HeuristicResult result;
  result.config = best.config;
  result.percentile = best.percentile;
  result.cost = best.cost;
  result.constraint_met = best.feasible;
  result.configs_evaluated = evals;
  return result;
}

}  // namespace multipub::core
