#include "broker/controller.h"

#include <algorithm>

#include "common/assert.h"
#include "common/logging.h"

namespace multipub::broker {

Controller::Controller(const geo::RegionCatalog& catalog,
                       const geo::InterRegionLatency& backbone,
                       const geo::ClientLatencyMap& clients)
    : estimator_(clients),
      optimizer_(catalog, backbone, estimator_.map()),
      engine_(optimizer_),
      heuristic_(catalog, backbone, estimator_.map()) {}

void Controller::observe_latencies(RegionId region,
                                   const std::vector<LatencyReport>& reports) {
  for (const auto& report : reports) {
    if (estimator_.observe(report.client, region, report.one_way_ms)) {
      // The optimizer reads the estimator's live matrix: a moved estimate
      // can change the optimum of every topic this client participates in.
      store_.touch_client(report.client, core::DirtyReason::kLatency);
    }
  }
}

void Controller::set_constraint(TopicId topic,
                                const core::DeliveryConstraint& constraint) {
  store_.set_constraint(topic, constraint);
}

void Controller::enable_failure_detection(int missed_rounds) {
  MP_EXPECTS(missed_rounds >= 1);
  failure_detection_rounds_ = missed_rounds;
  const std::size_t n = optimizer_.cost_model().catalog().size();
  missed_rounds_.assign(n, 0);
  reported_this_round_.assign(n, false);
}

int Controller::missed_rounds(RegionId region) const {
  if (region.index() >= missed_rounds_.size()) return 0;
  return missed_rounds_[region.index()];
}

void Controller::ingest(RegionId region,
                        const std::vector<TopicReport>& reports,
                        bool full_snapshot) {
  if (failure_detection_rounds_ > 0 &&
      region.index() < reported_this_round_.size()) {
    // Any ingest — even an empty report list — proves the region's manager
    // is alive and reachable.
    reported_this_round_[region.index()] = true;
    missed_rounds_[region.index()] = 0;
    unavailable_.remove(region);
  }
  for (const auto& report : reports) {
    auto& seen_at = last_seen_at_[report.topic];
    for (const auto& pub : report.publishers) {
      seen_at[pub.client] = region;
    }
    for (ClientId sub : report.subscribers) {
      seen_at[sub] = region;
    }
    store_.apply_report(region, report.topic, report.publishers,
                        report.subscribers);
  }
  if (full_snapshot) {
    std::vector<TopicId> reported;
    reported.reserve(reports.size());
    for (const auto& report : reports) {
      reported.push_back(report.topic);
    }
    store_.reconcile_region(region, reported);
  }
}

core::TopicState Controller::aggregate(TopicId topic) const {
  if (const core::TopicState* state = store_.state(topic)) {
    return *state;
  }
  core::TopicState state;
  state.topic = topic;
  return state;
}

void Controller::set_region_available(RegionId region, bool available) {
  if (available) {
    unavailable_.remove(region);
  } else {
    unavailable_.add(region);
  }
}

bool Controller::region_available(RegionId region) const {
  return !unavailable_.contains(region);
}

void Controller::enable_mitigation(bool enabled,
                                   const core::MitigationParams& params) {
  mitigation_enabled_ = enabled;
  mitigation_params_ = params;
}

std::vector<Controller::Decision> Controller::reconfigure(
    const core::OptimizerOptions& options) {
  return reconfigure_impl(options, /*full_scan=*/false);
}

std::vector<Controller::Decision> Controller::reconfigure_full(
    const core::OptimizerOptions& options) {
  return reconfigure_impl(options, /*full_scan=*/true);
}

std::vector<Controller::Decision> Controller::reconfigure_impl(
    const core::OptimizerOptions& options, bool full_scan) {
  // Failure detection: regions silent for too many consecutive rounds are
  // treated as down until they report again.
  if (failure_detection_rounds_ > 0) {
    for (std::size_t i = 0; i < reported_this_round_.size(); ++i) {
      const RegionId region{static_cast<RegionId::underlying_type>(i)};
      if (!reported_this_round_[i]) {
        if (++missed_rounds_[i] >= failure_detection_rounds_) {
          if (!unavailable_.contains(region)) {
            MP_LOG_WARN("controller")
                << "region R" << region.value() + 1 << " silent for "
                << missed_rounds_[i] << " rounds; marking unavailable";
          }
          unavailable_.add(region);
        }
      }
      reported_this_round_[i] = false;
    }
  }

  // Outages shrink the candidate set for every topic.
  core::OptimizerOptions effective = options;
  const std::size_t n_regions = optimizer_.cost_model().catalog().size();
  if (outage_exclusion_enabled_) {
    const geo::RegionSet base = effective.candidates.empty()
                                    ? geo::RegionSet::universe(n_regions)
                                    : effective.candidates;
    const geo::RegionSet masked =
        geo::RegionSet(base.mask() & ~unavailable_.mask());
    // If everything is down there is nothing sane to deploy; keep the base
    // set and let operators sort the datacenter fire out.
    if (!masked.empty()) effective.candidates = masked;
  }

  // A changed candidate universe (outage, recovery, caller-tweaked options)
  // or solver policy invalidates every cached outcome at once: the
  // optimizer's epsilon tie-breaks mean no per-topic containment check can
  // prove a cached selection still wins.
  RoundFingerprint fingerprint;
  fingerprint.candidates_mask = (effective.candidates.empty()
                                     ? geo::RegionSet::universe(n_regions)
                                     : effective.candidates)
                                    .mask();
  fingerprint.mode_policy = effective.mode_policy;
  fingerprint.strategy = effective.strategy;
  fingerprint.solver = solver_;
  fingerprint.mitigation = mitigation_enabled_;
  if (has_last_fingerprint_ && !(fingerprint == last_fingerprint_)) {
    store_.mark_all_dirty(core::DirtyReason::kAvailability);
  }
  last_fingerprint_ = fingerprint;
  has_last_fingerprint_ = true;

  const std::vector<TopicId> dirty = store_.dirty_topics();
  stats_ = RoundStats{};
  stats_.tracked = store_.size();
  stats_.dirty = dirty.size();
  stats_.full_scan = full_scan;
  for (TopicId topic : dirty) {
    const unsigned reasons = store_.dirty_reasons(topic);
    for (int bit = 0; bit < core::kDirtyReasonCount; ++bit) {
      if ((reasons & (1u << bit)) != 0) ++stats_.dirty_by_reason[bit];
    }
  }

  const auto collect_orphans = [&](Decision& decision) {
    // Failover bookkeeping: clients last seen at a now-dead region cannot
    // be reached by that region's manager.
    if (unavailable_.empty()) return;
    if (const auto seen = last_seen_at_.find(decision.topic);
        seen != last_seen_at_.end()) {
      for (const auto& [client, region] : seen->second) {
        if (unavailable_.contains(region)) {
          decision.orphans.push_back(client);
        }
      }
      std::sort(decision.orphans.begin(), decision.orphans.end());
    }
  };

  std::vector<Decision> decisions;
  for (TopicId topic : store_.topic_ids()) {
    const bool work = full_scan || store_.dirty(topic);
    if (!work) {
      // Clean topic: replay the last outcome without touching the solver.
      const auto cached = last_outcomes_.find(topic);
      if (cached == last_outcomes_.end()) continue;
      ++stats_.skipped_clean;
      Decision decision;
      decision.topic = topic;
      decision.result = cached->second.result;
      decision.result.configs_evaluated = 0;  // marks a carried decision
      decision.mitigation_regions = cached->second.mitigation_regions;
      decision.changed = false;
      collect_orphans(decision);
      decisions.push_back(std::move(decision));
      continue;
    }

    const core::TopicState& state = *store_.state(topic);
    // A topic with no subscribers or no traffic cannot be optimized (there
    // is no delivery to constrain); skip until it has both.
    if (state.subscribers.empty() || state.total_messages() == 0) {
      ++stats_.skipped_empty;
      continue;
    }

    Decision decision;
    decision.topic = topic;
    if (solver_ == Solver::kHeuristic) {
      core::HeuristicOptions h_options;
      h_options.mode_policy = effective.mode_policy;
      h_options.candidates = effective.candidates;
      const auto h = heuristic_.optimize(state, h_options);
      decision.result.config = h.config;
      decision.result.percentile = h.percentile;
      decision.result.cost = h.cost;
      decision.result.constraint_met = h.constraint_met;
      decision.result.configs_evaluated = h.configs_evaluated;
    } else {
      decision.result = engine_.optimize(state, effective);
    }
    ++stats_.evaluated;

    // High-latency client mitigation (paper §IV-D): force-add regions for
    // subscribers whose every delivery misses max_T, then re-price the
    // augmented configuration.
    if (mitigation_enabled_ &&
        state.constraint.max != kUnreachable) {
      const auto outcome = core::mitigate_high_latency_clients(
          state, decision.result.config, optimizer_.delivery_model(),
          mitigation_params_);
      if (!outcome.added_regions.empty()) {
        decision.mitigation_regions = outcome.added_regions;
        const auto eval = optimizer_.evaluate(state, outcome.config);
        decision.result.config = eval.config;
        decision.result.percentile = eval.percentile;
        decision.result.cost = eval.cost;
        decision.result.constraint_met = eval.feasible;
      }
    }

    collect_orphans(decision);

    const auto deployed = deployed_.find(topic);
    decision.changed = deployed == deployed_.end() ||
                       !(deployed->second == decision.result.config);
    if (decision.changed) {
      deployed_[topic] = decision.result.config;
      MP_LOG_INFO("controller")
          << "topic " << topic.value() << " reconfigured to "
          << decision.result.config.to_string() << " (D=" << decision.result.percentile
          << "ms, Z=$" << decision.result.cost << ")";
    }
    last_outcomes_[topic] = {decision.result, decision.mitigation_regions};
    decisions.push_back(std::move(decision));
  }

  store_.clear_dirty();
  stats_.round = ++rounds_;
  return decisions;
}

const core::TopicConfig* Controller::deployed_config(TopicId topic) const {
  const auto it = deployed_.find(topic);
  return it == deployed_.end() ? nullptr : &it->second;
}

std::vector<Controller::AssignmentRow> Controller::assignment_matrix() const {
  std::vector<AssignmentRow> rows;
  rows.reserve(deployed_.size());
  for (const auto& [topic, config] : deployed_) {
    rows.push_back({topic, config});
  }
  std::sort(rows.begin(), rows.end(),
            [](const AssignmentRow& a, const AssignmentRow& b) {
              return a.topic < b.topic;
            });
  return rows;
}

std::string Controller::render_assignment_matrix() const {
  const std::size_t n = optimizer_.cost_model().catalog().size();
  std::string out;
  for (const auto& row : assignment_matrix()) {
    out += "topic " + std::to_string(row.topic.value()) + " |";
    for (std::size_t r = 0; r < n; ++r) {
      out += row.config.regions.contains(
                 RegionId{static_cast<RegionId::underlying_type>(r)})
                 ? " 1"
                 : " 0";
    }
    out += " | ";
    out += core::to_string(row.config.mode);
    out += '\n';
  }
  return out;
}

}  // namespace multipub::broker
