#include "core/evaluation_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.h"

namespace multipub::core {

EvaluationEngine::EvaluationEngine(const Optimizer& optimizer)
    : optimizer_(&optimizer) {}

void EvaluationEngine::prepare(const TopicState& topic,
                               const OptimizerOptions& options) {
  MP_EXPECTS(!topic.subscribers.empty());
  MP_EXPECTS(topic.total_messages() > 0);
  topic_ = &topic;

  const auto& catalog = optimizer_->cost_model().catalog();
  const auto& clients = optimizer_->delivery_model().clients();
  const auto& backbone = optimizer_->delivery_model().backbone();

  const geo::RegionSet candidates =
      options.candidates.empty() ? geo::RegionSet::universe(catalog.size())
                                 : options.candidates;
  members_ = candidates.to_vector();
  k_ = members_.size();
  MP_EXPECTS(k_ >= 1 && k_ <= 24);  // mirrors enumerate_configurations

  routed_tracked_ = options.mode_policy != ModePolicy::kDirectOnly && k_ > 1;
  max_t_ = topic.constraint.max;

  const std::uint64_t total_weight =
      topic.total_messages() * topic.total_subscriber_weight();
  MP_EXPECTS(total_weight > 0);
  rank_needed_ = percentile_rank(topic.constraint.ratio, total_weight);
  published_bytes_ = static_cast<double>(topic.total_published_bytes());

  beta_.resize(k_);
  alpha_.resize(k_);
  for (std::size_t j = 0; j < k_; ++j) {
    beta_[j] = catalog.at(members_[j]).beta_per_byte();
    alpha_[j] = catalog.at(members_[j]).alpha_per_byte();
  }
  backbone_mm_.resize(k_ * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) {
      backbone_mm_[i * k_ + j] = backbone.at(members_[i], members_[j]);
    }
  }

  fold_subscribers(topic);
  const std::size_t C = n_classes_;
  const std::size_t P = topic.publishers.size();

  pub_lat_.resize(P * k_);
  active_pubs_.clear();
  active_msgs_.clear();
  for (std::size_t p = 0; p < P; ++p) {
    const auto& pub = topic.publishers[p];
    const auto row = clients.row(pub.client);
    for (std::size_t j = 0; j < k_; ++j) {
      pub_lat_[p * k_ + j] = row[members_[j].index()];
    }
    if (pub.msg_count > 0) {
      active_pubs_.push_back(static_cast<std::uint32_t>(p));
      active_msgs_.push_back(pub.msg_count);
    }
  }

  // Preference lists: members sorted per client by (latency, region id) —
  // ascending member index breaks latency ties exactly like the reference
  // closest_region scan (members_ is ascending in global id).
  pref_order_.resize((C + P) * k_);
  class_rank_.resize(C * k_);
  pub_rank_.resize(P * k_);
  const auto build_pref = [this](const Millis* lat, std::uint16_t* order,
                                 std::uint16_t* rank) {
    for (std::size_t j = 0; j < k_; ++j) {
      order[j] = static_cast<std::uint16_t>(j);
    }
    std::sort(order, order + k_, [lat](std::uint16_t a, std::uint16_t b) {
      if (lat[a] != lat[b]) return lat[a] < lat[b];
      return a < b;
    });
    for (std::size_t t = 0; t < k_; ++t) {
      rank[order[t]] = static_cast<std::uint16_t>(t);
    }
  };
  for (std::size_t c = 0; c < C; ++c) {
    build_pref(&class_lat_[c * k_], &pref_order_[c * k_],
               &class_rank_[c * k_]);
  }
  for (std::size_t p = 0; p < P; ++p) {
    build_pref(&pub_lat_[p * k_], &pref_order_[(C + p) * k_],
               &pub_rank_[p * k_]);
  }

  // Lattice-walk state.
  cur_class_member_.assign(C, -1);
  cur_pub_member_.assign(P, -1);
  contrib_d_.assign(C, 0);
  contrib_r_.assign(C, 0);
  count_d_ = 0;
  count_r_ = 0;
  levels_.resize(k_);
  egress_counts_.resize(k_);
  rows_.assign(std::size_t{1} << k_, Row{});
}

void EvaluationEngine::fold_subscribers(const TopicState& topic) {
  const auto& clients = optimizer_->delivery_model().clients();
  const std::size_t S = topic.subscribers.size();

  // Members of a class contribute identical samples, so the percentile (a
  // function of the weighted CDF) and the integer feasibility counts only
  // see their summed weight. The egress counts are double sums of
  // weight × selectivity, exact in any grouping only when every term is an
  // integer — hence no folding once a subscriber is filtered.
  const bool fold = std::all_of(
      topic.subscribers.begin(), topic.subscribers.end(),
      [](const SubscriberStats& sub) { return sub.selectivity == 1.0; });
  std::size_t slot_mask = 0;
  if (fold) {
    const std::size_t n_slots = std::bit_ceil(2 * S);
    fold_slots_.assign(n_slots, 0);
    slot_mask = n_slots - 1;
  }

  class_lat_.resize(S * k_);
  class_weight_.clear();
  class_weight_sel_.clear();
  std::size_t C = 0;
  for (const SubscriberStats& sub : topic.subscribers) {
    MP_EXPECTS(sub.selectivity > 0.0 && sub.selectivity <= 1.0);
    // Gather the row into the next free class slot; it stays there only
    // when no existing class has the same bits.
    Millis* lat = &class_lat_[C * k_];
    const auto row = clients.row(sub.client);
    for (std::size_t j = 0; j < k_; ++j) {
      lat[j] = row[members_[j].index()];
    }
    if (fold) {
      std::uint64_t h = 0;
      for (std::size_t j = 0; j < k_; ++j) {
        h = (h ^ std::bit_cast<std::uint64_t>(lat[j])) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
      }
      h ^= h >> 32;
      std::size_t i = static_cast<std::size_t>(h) & slot_mask;
      while (fold_slots_[i] != 0 &&
             std::memcmp(&class_lat_[(fold_slots_[i] - 1) * k_], lat,
                         k_ * sizeof(Millis)) != 0) {
        i = (i + 1) & slot_mask;
      }
      if (fold_slots_[i] != 0) {
        // Integer terms: this double sum is exact whatever the grouping.
        const std::size_t c = fold_slots_[i] - 1;
        class_weight_[c] += sub.weight;
        class_weight_sel_[c] += static_cast<double>(sub.weight);
        continue;
      }
      fold_slots_[i] = static_cast<std::uint32_t>(C + 1);
    }
    class_weight_.push_back(sub.weight);
    class_weight_sel_.push_back(static_cast<double>(sub.weight) *
                                sub.selectivity);
    ++C;
  }
  n_classes_ = C;
}

void EvaluationEngine::push_member(std::size_t j, Level& level) {
  level.moved_classes.clear();
  level.moved_classes_old_member.clear();
  level.moved_classes_old_contrib_d.clear();
  level.moved_classes_old_contrib_r.clear();
  level.moved_pubs.clear();
  level.moved_pubs_old_member.clear();
  level.pubs_moved = false;
  level.old_count_d = count_d_;
  level.old_count_r = count_r_;

  for (std::size_t c = 0; c < n_classes_; ++c) {
    const std::int32_t cur = cur_class_member_[c];
    // The added region steals the class only when it is strictly preferred
    // (lower (latency, id) rank) over the current serving region.
    if (cur >= 0 && class_rank_[c * k_ + j] >=
                        class_rank_[c * k_ + static_cast<std::size_t>(cur)]) {
      continue;
    }
    level.moved_classes.push_back(static_cast<std::uint32_t>(c));
    level.moved_classes_old_member.push_back(cur);
    level.moved_classes_old_contrib_d.push_back(contrib_d_[c]);
    level.moved_classes_old_contrib_r.push_back(contrib_r_[c]);
    cur_class_member_[c] = static_cast<std::int32_t>(j);
  }
  if (routed_tracked_) {
    const std::size_t P = topic_->publishers.size();
    for (std::size_t p = 0; p < P; ++p) {
      const std::int32_t cur = cur_pub_member_[p];
      if (cur >= 0 && pub_rank_[p * k_ + j] >=
                          pub_rank_[p * k_ + static_cast<std::size_t>(cur)]) {
        continue;
      }
      level.moved_pubs.push_back(static_cast<std::uint32_t>(p));
      level.moved_pubs_old_member.push_back(cur);
      cur_pub_member_[p] = static_cast<std::int32_t>(j);
    }
    level.pubs_moved = !level.moved_pubs.empty();
  }

  // Direct-mode feasibility weight: per-class contributions only change for
  // stolen classes (the publisher leg L[P][R^S] depends on R^S only).
  for (const std::uint32_t c : level.moved_classes) {
    const Millis sl = class_lat_[c * k_ + j];
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < active_pubs_.size(); ++a) {
      const std::size_t p = active_pubs_[a];
      n += active_msgs_[a] * ((pub_lat_[p * k_ + j] + sl) <= max_t_ ? 1u : 0u);
    }
    const std::uint64_t nc = n * class_weight_[c];
    count_d_ += nc - contrib_d_[c];
    contrib_d_[c] = nc;
  }

  if (!routed_tracked_) return;
  const auto routed_contrib = [this](std::size_t c) {
    const auto ms = static_cast<std::size_t>(cur_class_member_[c]);
    const Millis sl = class_lat_[c * k_ + ms];
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < active_pubs_.size(); ++a) {
      const std::size_t p = active_pubs_[a];
      const auto mp = static_cast<std::size_t>(cur_pub_member_[p]);
      const Millis v =
          (pub_lat_[p * k_ + mp] + backbone_mm_[mp * k_ + ms]) + sl;
      n += active_msgs_[a] * (v <= max_t_ ? 1u : 0u);
    }
    return n * class_weight_[c];
  };
  if (level.pubs_moved) {
    // A publisher changed home: every (publisher, class) pair may have
    // changed — recompute all routed contributions (integer sums, exact).
    level.contrib_r_snapshot.assign(contrib_r_.begin(), contrib_r_.end());
    count_r_ = 0;
    for (std::size_t c = 0; c < n_classes_; ++c) {
      contrib_r_[c] = routed_contrib(c);
      count_r_ += contrib_r_[c];
    }
  } else {
    for (const std::uint32_t c : level.moved_classes) {
      const std::uint64_t nc = routed_contrib(c);
      count_r_ += nc - contrib_r_[c];
      contrib_r_[c] = nc;
    }
  }
}

void EvaluationEngine::pop_member(Level& level) {
  count_d_ = level.old_count_d;
  count_r_ = level.old_count_r;
  for (std::size_t i = 0; i < level.moved_classes.size(); ++i) {
    const std::uint32_t c = level.moved_classes[i];
    cur_class_member_[c] = level.moved_classes_old_member[i];
    contrib_d_[c] = level.moved_classes_old_contrib_d[i];
    if (routed_tracked_ && !level.pubs_moved) {
      contrib_r_[c] = level.moved_classes_old_contrib_r[i];
    }
  }
  if (routed_tracked_ && level.pubs_moved) {
    std::copy(level.contrib_r_snapshot.begin(), level.contrib_r_snapshot.end(),
              contrib_r_.begin());
  }
  for (std::size_t i = 0; i < level.moved_pubs.size(); ++i) {
    cur_pub_member_[level.moved_pubs[i]] = level.moved_pubs_old_member[i];
  }
}

void EvaluationEngine::emit_row(std::uint64_t mask, int size) {
  Row& row = rows_[mask];

  // Eq. 3 subscriber egress, accumulated like CostModel::cost_breakdown:
  // per-region N_S, then one term per subset member in ascending region id.
  // Unfolded classes add in subscriber order as the reference does; folded
  // ones add integers, whose double sums are exact in any order.
  std::fill(egress_counts_.begin(), egress_counts_.end(), 0.0);
  for (std::size_t c = 0; c < n_classes_; ++c) {
    egress_counts_[static_cast<std::size_t>(cur_class_member_[c])] +=
        class_weight_sel_[c];
  }
  double egress = 0.0;
  for (std::size_t j = 0; j < k_; ++j) {
    if ((mask >> j) & 1) {
      egress += egress_counts_[j] * published_bytes_ * beta_[j];
    }
  }
  row.cost_direct = egress;
  row.feasible_direct = count_d_ >= rank_needed_;

  if (routed_tracked_ && size > 1) {
    // Eq. 4 inter-region forwarding, publisher order as the reference.
    const double forwards = static_cast<double>(size - 1);
    double inter = 0.0;
    const std::size_t P = topic_->publishers.size();
    for (std::size_t p = 0; p < P; ++p) {
      const auto& pub = topic_->publishers[p];
      if (pub.total_bytes == 0) continue;
      inter += forwards * static_cast<double>(pub.total_bytes) *
               alpha_[static_cast<std::size_t>(cur_pub_member_[p])];
    }
    row.cost_routed = egress + inter;
    row.feasible_routed = count_r_ >= rank_needed_;
  }
}

void EvaluationEngine::dfs(std::size_t next_member, std::uint64_t mask,
                           int size) {
  for (std::size_t j = next_member; j < k_; ++j) {
    Level& level = levels_[static_cast<std::size_t>(size)];
    push_member(j, level);
    emit_row(mask | (std::uint64_t{1} << j), size + 1);
    dfs(j + 1, mask | (std::uint64_t{1} << j), size + 1);
    pop_member(level);
  }
}

void EvaluationEngine::walk_lattice() { dfs(0, 0, 0); }

geo::RegionSet EvaluationEngine::global_set(std::uint64_t mask) const {
  geo::RegionSet out;
  for (std::size_t j = 0; j < k_; ++j) {
    if ((mask >> j) & 1) out.add(members_[j]);
  }
  return out;
}

Millis EvaluationEngine::percentile_of(std::uint64_t mask, DeliveryMode mode) {
  Row& row = rows_[mask];
  Millis& slot =
      mode == DeliveryMode::kDirect ? row.pct_direct : row.pct_routed;
  if (slot >= 0.0) return slot;

  // Resolve serving members with a first-hit scan over each client's
  // preference list (identical assignment to closest_region).
  const std::size_t C = n_classes_;
  const auto first_member = [this, mask](std::size_t pref_row) {
    const std::uint16_t* order = &pref_order_[pref_row * k_];
    for (std::size_t t = 0; t < k_; ++t) {
      if ((mask >> order[t]) & 1) return static_cast<std::size_t>(order[t]);
    }
    MP_ENSURES(false && "non-empty subset must have a first member");
    return std::size_t{0};
  };

  samples_.clear();
  if (mode == DeliveryMode::kDirect) {
    for (std::size_t a = 0; a < active_pubs_.size(); ++a) {
      const std::size_t p = active_pubs_[a];
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t ms = first_member(c);
        samples_.push_back(
            {pub_lat_[p * k_ + ms] + class_lat_[c * k_ + ms],
             active_msgs_[a] * class_weight_[c]});
      }
    }
  } else {
    for (std::size_t a = 0; a < active_pubs_.size(); ++a) {
      const std::size_t p = active_pubs_[a];
      const std::size_t mp = first_member(C + p);
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t ms = first_member(c);
        samples_.push_back(
            {(pub_lat_[p * k_ + mp] + backbone_mm_[mp * k_ + ms]) +
                 class_lat_[c * k_ + ms],
             active_msgs_[a] * class_weight_[c]});
      }
    }
  }
  slot = weighted_percentile_inplace(samples_, topic_->constraint.ratio);
  return slot;
}

OptimizerResult EvaluationEngine::optimize(const TopicState& topic,
                                           const OptimizerOptions& options) {
  if (options.strategy == EvaluationStrategy::kExactList) {
    return optimizer_->optimize_reference(topic, options);
  }
  prepare(topic, options);
  walk_lattice();

  const std::uint64_t limit = std::uint64_t{1} << k_;
  const bool allow_direct = options.mode_policy != ModePolicy::kRoutedOnly;
  const bool allow_routed = options.mode_policy != ModePolicy::kDirectOnly;

  struct Best {
    std::uint64_t mask = 0;
    DeliveryMode mode = DeliveryMode::kDirect;
    double cost = 0.0;
    int size = 0;
  };
  Best best;
  bool have_best = false;

  // Pass A — feasible configurations only, replayed in the reference
  // enumeration order (mask ascending, direct before routed) so ties keep
  // the earliest candidate exactly like Optimizer::optimize_reference.
  // The ordering mirrors Optimizer::better's feasible branch: cost, then
  // region count, then (lazily computed) percentile.
  const auto consider_feasible = [&](std::uint64_t m, DeliveryMode mode,
                                     double cost, int size) {
    if (!have_best) {
      best = {m, mode, cost, size};
      have_best = true;
      return;
    }
    bool wins = false;
    if (!Optimizer::almost_equal(cost, best.cost)) {
      wins = cost < best.cost;
    } else if (size != best.size) {
      wins = size < best.size;
    } else {
      const Millis pc = percentile_of(m, mode);
      const Millis pb = percentile_of(best.mask, best.mode);
      wins = !Optimizer::almost_equal(pc, pb) && pc < pb;
    }
    if (wins) best = {m, mode, cost, size};
  };
  for (std::uint64_t m = 1; m < limit; ++m) {
    const Row& row = rows_[m];
    const int size = std::popcount(m);
    if (size == 1) {
      if (row.feasible_direct) {
        consider_feasible(m, DeliveryMode::kDirect, row.cost_direct, 1);
      }
      continue;
    }
    if (allow_direct && row.feasible_direct) {
      consider_feasible(m, DeliveryMode::kDirect, row.cost_direct, size);
    }
    if (allow_routed && row.feasible_routed) {
      consider_feasible(m, DeliveryMode::kRouted, row.cost_routed, size);
    }
  }

  const bool constraint_met = have_best;

  // Pass B — nothing feasible: the latency-minimizing fallback needs the
  // percentile of every configuration (Optimizer::better's infeasible
  // branch: percentile, then cost, then size).
  if (!have_best) {
    const auto consider_infeasible = [&](std::uint64_t m, DeliveryMode mode,
                                         double cost, int size) {
      const Millis pc = percentile_of(m, mode);
      if (!have_best) {
        best = {m, mode, cost, size};
        have_best = true;
        return;
      }
      const Millis pb = percentile_of(best.mask, best.mode);
      bool wins = false;
      if (!Optimizer::almost_equal(pc, pb)) {
        wins = pc < pb;
      } else if (!Optimizer::almost_equal(cost, best.cost)) {
        wins = cost < best.cost;
      } else {
        wins = size < best.size;
      }
      if (wins) best = {m, mode, cost, size};
    };
    for (std::uint64_t m = 1; m < limit; ++m) {
      const Row& row = rows_[m];
      const int size = std::popcount(m);
      if (size == 1) {
        consider_infeasible(m, DeliveryMode::kDirect, row.cost_direct, 1);
        continue;
      }
      if (allow_direct) {
        consider_infeasible(m, DeliveryMode::kDirect, row.cost_direct, size);
      }
      if (allow_routed) {
        consider_infeasible(m, DeliveryMode::kRouted, row.cost_routed, size);
      }
    }
  }
  MP_ENSURES(have_best);

  OptimizerResult result;
  result.config = {global_set(best.mask), best.mode};
  result.percentile = percentile_of(best.mask, best.mode);
  result.cost = best.cost;
  result.constraint_met = constraint_met;
  result.configs_evaluated =
      k_ + (limit - 1 - k_) *
               (options.mode_policy == ModePolicy::kBoth ? 2 : 1);
  return result;
}

std::vector<ConfigEvaluation> EvaluationEngine::evaluate_all(
    const TopicState& topic, const OptimizerOptions& options) {
  if (options.strategy == EvaluationStrategy::kExactList) {
    return optimizer_->evaluate_all_reference(topic, options);
  }
  prepare(topic, options);
  walk_lattice();

  const std::uint64_t limit = std::uint64_t{1} << k_;
  const bool allow_direct = options.mode_policy != ModePolicy::kRoutedOnly;
  const bool allow_routed = options.mode_policy != ModePolicy::kDirectOnly;

  std::vector<ConfigEvaluation> evals;
  const auto emit = [&](std::uint64_t m, DeliveryMode mode, double cost,
                        bool feasible) {
    ConfigEvaluation eval;
    eval.config = {global_set(m), mode};
    eval.percentile = percentile_of(m, mode);
    eval.cost = cost;
    eval.feasible = feasible;
    evals.push_back(std::move(eval));
  };
  for (std::uint64_t m = 1; m < limit; ++m) {
    const Row& row = rows_[m];
    if (std::popcount(m) == 1) {
      emit(m, DeliveryMode::kDirect, row.cost_direct, row.feasible_direct);
      continue;
    }
    if (allow_direct) {
      emit(m, DeliveryMode::kDirect, row.cost_direct, row.feasible_direct);
    }
    if (allow_routed) {
      emit(m, DeliveryMode::kRouted, row.cost_routed, row.feasible_routed);
    }
  }
  return evals;
}

}  // namespace multipub::core
