#include "sim/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/assert.h"
#include "net/fault_plan.h"

namespace multipub::sim {
namespace {

/// Ledger total vs per-topic billing differ only in summation order.
constexpr double kCostEps = 1e-9;
/// Measured percentiles are exact under zero jitter; this absorbs FP noise.
constexpr Millis kLatencyEps = 1e-6;

net::FaultEndpoint resolve_endpoint(const FaultEndpointSpec& spec,
                                    const geo::RegionCatalog& catalog) {
  using Kind = FaultEndpointSpec::Kind;
  switch (spec.kind) {
    case Kind::kAny:
      return net::FaultEndpoint::any();
    case Kind::kAnyRegion:
      return net::FaultEndpoint::any_region();
    case Kind::kAnyClient:
      return net::FaultEndpoint::any_client();
    case Kind::kClient:
      return net::FaultEndpoint::client(ClientId{spec.client});
    case Kind::kRegion: {
      const RegionId region = catalog.find(spec.region);
      MP_EXPECTS(region.valid());  // names were validated against the catalog
      return net::FaultEndpoint::region(region);
    }
  }
  return net::FaultEndpoint::any();
}

geo::RegionSet down_regions_in_round(const FaultSchedule& schedule, int round,
                                     const geo::RegionCatalog& catalog) {
  geo::RegionSet down;
  for (const auto& event : schedule) {
    if (event.kind == FaultEvent::Kind::kOutage && event.covers(round)) {
      const RegionId region = catalog.find(event.from.region);
      if (region.valid()) down.add(region);
    }
  }
  return down;
}

bool any_fault_covers(const FaultSchedule& schedule, int round) {
  return std::any_of(
      schedule.begin(), schedule.end(),
      [round](const FaultEvent& event) { return event.covers(round); });
}

std::string format_dollars(Dollars value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace

std::vector<OracleViolation> check_invariants(const RoundObservation& obs) {
  std::vector<OracleViolation> out;
  const auto violate = [&](const char* oracle, std::string detail) {
    out.push_back({oracle, obs.round, std::move(detail)});
  };

  // (a) Cost-ledger conservation: the per-region byte ledger and the
  // per-topic dollar attribution are written by the same billing branch, so
  // their totals must agree (up to summation order).
  if (std::abs(obs.ledger_total - obs.topic_total) >
      kCostEps * (1.0 + std::abs(obs.ledger_total))) {
    violate("cost-conservation",
            "ledger total " + format_dollars(obs.ledger_total) +
                " != per-topic total " + format_dollars(obs.topic_total));
  }

  // (d) Metric-counter consistency: with a drained queue every message that
  // left a sender was handed to a handler or dropped in flight; sends
  // suppressed at a dead sender never left.
  if (obs.pending_events != 0) {
    violate("counter-conservation",
            std::to_string(obs.pending_events) +
                " events still pending after the round drained");
  }
  const std::uint64_t accounted =
      obs.delivered + obs.dropped - obs.dropped_sender_down;
  if (obs.sent != accounted) {
    violate("counter-conservation",
            "sent " + std::to_string(obs.sent) + " != delivered " +
                std::to_string(obs.delivered) + " + dropped " +
                std::to_string(obs.dropped) + " - sender-down " +
                std::to_string(obs.dropped_sender_down));
  }

  // (b) Dead-region silence: a region that was down for the whole round
  // must neither deliver nor forward nor egress a single byte.
  for (const auto& activity : obs.down_regions) {
    if (activity.broker_delta != 0 || activity.egress_delta != 0) {
      violate("dead-region-silence",
              "down region R" + std::to_string(activity.region.value() + 1) +
                  " moved: broker +" + std::to_string(activity.broker_delta) +
                  ", egress +" + std::to_string(activity.egress_delta) +
                  " bytes");
    }
  }

  // (b') Dead-region exclusion: once the controller has decided with the
  // outage known, no deployed topic may be served from a dead region. When
  // EVERYTHING is down the controller deliberately keeps the last candidate
  // set (there is nothing sane to deploy), so the check stands down.
  if (obs.have_deployed && !obs.down_set.empty() &&
      (obs.universe & geo::RegionSet(~obs.down_set.mask())) !=
          geo::RegionSet()) {
    const geo::RegionSet overlap = obs.deployed.regions & obs.down_set;
    if (!overlap.empty()) {
      violate("dead-region-exclusion",
              "deployed " + obs.deployed.regions.to_string() +
                  " intersects down " + obs.down_set.to_string() + " in " +
                  overlap.to_string());
    }
  }

  // (c) Controller convergence: k clean rounds after fault clearance the
  // deployed configuration must equal the analytic optimum for the actual
  // workload.
  if (obs.check_convergence && obs.have_deployed &&
      !(obs.deployed == obs.analytic)) {
    violate("controller-convergence",
            "deployed " + obs.deployed.to_string() + " != analytic optimum " +
                obs.analytic.to_string());
  }

  // (e) Constraint conformance: when the serving configuration claimed the
  // delivery constraint was met, the measured percentile must honor it.
  if (obs.check_conformance &&
      obs.measured_percentile > obs.max_t + kLatencyEps) {
    violate("constraint-conformance",
            "measured percentile " + std::to_string(obs.measured_percentile) +
                " ms exceeds bound " + std::to_string(obs.max_t) + " ms");
  }

  // (f) No-duplicate (reliable mode, every round): replay and handover
  // overlap legitimately re-send publications, but the identity dedup layer
  // must absorb every extra copy before the application sees it.
  if (obs.reliable && obs.recorded_duplicates != 0) {
    violate("no-duplicate",
            std::to_string(obs.recorded_duplicates) +
                " duplicate publication(s) reached an application");
  }

  // (g) Zero-message-loss (reliable mode, clean rounds): after a fault-free
  // sync pass every match-all audience member must hold every publication,
  // save the two disjoint unrepairable classes — copies dropped before any
  // broker accepted them (publish drops) and publications that died inside
  // a crashed broker before reaching a surviving one. >= rather than ==:
  // a subscriber may legitimately hold a crash-lost publication it received
  // before the crash.
  if (obs.reliable && obs.check_zero_loss && obs.have_audience) {
    const std::uint64_t exempt = obs.publish_drops + obs.crash_lost;
    const std::uint64_t floor =
        obs.published > exempt ? obs.published - exempt : 0;
    if (obs.min_unique < floor) {
      violate("zero-message-loss",
              "audience member holds " + std::to_string(obs.min_unique) +
                  " unique publication(s) < " + std::to_string(floor) +
                  " required (published " + std::to_string(obs.published) +
                  " - publish-drops " + std::to_string(obs.publish_drops) +
                  " - crash-lost " + std::to_string(obs.crash_lost) + ")");
    }
  }

  // (h) Bounded-replication-lag (reliable mode, clean rounds after the
  // heartbeat sync): a standby whose applied delta sequence trails its
  // primary's would hand a stale table to the successor.
  if (obs.reliable && obs.check_replication) {
    for (const auto& lag : obs.replication) {
      if (lag.applied_seq != lag.state_seq) {
        violate("bounded-replication-lag",
                "standby of R" + std::to_string(lag.primary.value() + 1) +
                    " applied seq " + std::to_string(lag.applied_seq) +
                    " != primary state seq " + std::to_string(lag.state_seq));
      }
    }
  }

  return out;
}

FaultSchedule generate_schedule(const Scenario& scenario,
                                const ChaosOptions& options, Rng& rng) {
  const geo::RegionCatalog& catalog = scenario.catalog;

  // Outages aimed at regions nobody uses prove nothing: bias the targets
  // towards the homes of the scenario's client population.
  std::vector<std::string> homes;
  for (const RegionId region : scenario.population.home_region) {
    const std::string& name = catalog.at(region).name;
    if (std::find(homes.begin(), homes.end(), name) == homes.end()) {
      homes.push_back(name);
    }
  }
  MP_EXPECTS(!homes.empty());

  const auto region_spec = [](const std::string& name) {
    FaultEndpointSpec spec;
    spec.kind = FaultEndpointSpec::Kind::kRegion;
    spec.region = name;
    return spec;
  };
  const auto any_region_spec = [] {
    FaultEndpointSpec spec;
    spec.kind = FaultEndpointSpec::Kind::kAnyRegion;
    return spec;
  };
  const auto pick_home = [&] {
    return homes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(homes.size()) - 1))];
  };

  // Leave a clean tail so the convergence and conformance oracles can arm.
  const int tail = options.convergence_rounds + 1;
  const int last_start = std::max(0, options.rounds - tail - 1);

  FaultSchedule schedule;
  for (int i = 0; i < options.fault_events; ++i) {
    FaultEvent event;
    event.start_round = static_cast<int>(rng.uniform_int(0, last_start));
    const int max_len = std::max(1, options.rounds - tail - event.start_round);
    event.rounds =
        static_cast<int>(rng.uniform_int(1, std::min(2, max_len)));

    const auto overlaps_outage = [&](const FaultEvent& candidate) {
      for (const auto& other : schedule) {
        if (other.kind != FaultEvent::Kind::kOutage) continue;
        for (int r = candidate.start_round;
             r < candidate.start_round + candidate.rounds; ++r) {
          if (other.covers(r)) return true;
        }
      }
      return false;
    };

    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        event.kind = FaultEvent::Kind::kOutage;
        event.from = region_spec(pick_home());
        // One region down at a time: concurrent outages can black out the
        // whole population and teach us nothing new per event.
        if (overlaps_outage(event)) {
          event.kind = FaultEvent::Kind::kDrop;
          event.to = FaultEndpointSpec{};  // any
          event.drop_probability = rng.uniform(0.1, 0.4);
        }
        break;
      case 4:
      case 5:
      case 6: {
        event.kind = FaultEvent::Kind::kPartition;
        const std::string src = pick_home();
        std::string dst = pick_home();
        if (dst == src) {
          // Fall back to any catalog region that differs.
          for (const auto& region : catalog.all()) {
            if (region.name != src) {
              dst = region.name;
              break;
            }
          }
        }
        event.from = region_spec(src);
        event.to = region_spec(dst);
        break;
      }
      case 7:
      case 8:
        event.kind = FaultEvent::Kind::kDelay;
        event.from = any_region_spec();
        event.to = any_region_spec();
        event.delay_factor = rng.uniform(1.5, 3.0);
        event.delay_extra_ms =
            static_cast<Millis>(rng.uniform_int(0, 40));
        break;
      default:
        event.kind = FaultEvent::Kind::kDrop;
        event.from = region_spec(pick_home());
        event.to = FaultEndpointSpec{};  // any
        event.drop_probability = rng.uniform(0.1, 0.4);
        break;
    }
    schedule.push_back(std::move(event));
  }

  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start_round < b.start_round;
                   });
  return schedule;
}

ChaosRunner::ChaosRunner(const Scenario& scenario, const ChaosOptions& options)
    : scenario_(&scenario), options_(options) {}

ChaosRunner::Execution ChaosRunner::execute(const FaultSchedule& schedule,
                                            std::uint64_t seed, int rounds,
                                            bool stop_at_first) {
  Execution exec;
  const geo::RegionCatalog& catalog = scenario_->catalog;
  const TopicId topic = scenario_->topic.topic;
  const geo::RegionSet universe = geo::RegionSet::universe(catalog.size());

  // The plan outlives the system (the transport borrows it).
  net::FaultPlan plan(seed ^ 0x9e3779b97f4a7c15ULL);
  LiveSystem live(*scenario_, options_.live);
  live.transport().set_fault_plan(&plan);
  if (options_.break_outage_exclusion) {
    live.controller().set_outage_exclusion_enabled(false);
  }
  if (options_.live.reliable) {
    for (const auto& region : catalog.all()) {
      auto& broker = live.region_manager(region.id).broker();
      if (options_.break_replay) broker.set_replay_enabled(false);
      if (options_.break_state_sync) broker.set_state_sync_enabled(false);
    }
    if (options_.break_dedup) {
      if (auto* pool = live.cohort_pool()) {
        pool->set_dedup_enabled(false);
      } else {
        for (const auto& sub : live.subscribers()) {
          sub->set_dedup_enabled(false);
        }
      }
    }
  }

  Rng traffic_rng(seed + 1);
  core::TopicConfig current{universe, core::DeliveryMode::kRouted};
  live.deploy(current);

  int clean_streak = 0;
  bool prev_constraint_met = false;
  std::uint64_t published_total = 0;

  for (int round = 0; round < rounds; ++round) {
    // (1) Fault boundaries. The harness is also the health monitor: it
    // tells the controller which regions died, exactly like the operator
    // loop in the failure tests. FaultPlan rules are re-derived from the
    // schedule each round (the plan's coin stream persists across rounds).
    const geo::RegionSet down = down_regions_in_round(schedule, round, catalog);
    for (const auto& region : catalog.all()) {
      const bool is_down = down.contains(region.id);
      // Through the system, not the raw transport: in reliable mode a
      // down-transition crashes the broker and an up-transition restores it
      // from the standby and reconnects its subscribers. Without reliable
      // mode this is exactly the transport flag.
      live.set_region_down(region.id, is_down);
      live.controller().set_region_available(region.id, !is_down);
    }
    plan.clear();
    for (const auto& event : schedule) {
      if (!event.covers(round) || event.kind == FaultEvent::Kind::kOutage) {
        continue;
      }
      net::FaultRule rule;
      rule.from = resolve_endpoint(event.from, catalog);
      rule.to = resolve_endpoint(event.to, catalog);
      switch (event.kind) {
        case FaultEvent::Kind::kPartition:
          rule.kind = net::FaultRule::Kind::kPartition;
          break;
        case FaultEvent::Kind::kDelay:
          rule.kind = net::FaultRule::Kind::kDelay;
          rule.delay_factor = event.delay_factor;
          rule.delay_extra_ms = event.delay_extra_ms;
          break;
        case FaultEvent::Kind::kDrop:
          rule.kind = net::FaultRule::Kind::kDrop;
          rule.drop_probability = event.drop_probability;
          break;
        case FaultEvent::Kind::kOutage:
          continue;
      }
      (void)plan.add(rule);
    }

    // (2) Per-region activity snapshot for the silence oracle.
    struct Snapshot {
      std::uint64_t broker = 0;
      Bytes egress = 0;
    };
    std::vector<Snapshot> before(catalog.size());
    for (const auto& region : catalog.all()) {
      const auto& broker = live.region_manager(region.id).broker();
      const auto& ledger = live.transport().ledger();
      before[region.id.index()] = {
          broker.delivered_count() + broker.forwarded_count() +
              broker.drain_forwarded_count(),
          ledger.inter_region_bytes[region.id.index()] +
              ledger.internet_bytes[region.id.index()]};
    }

    // (3) One interval of traffic, (4) one control round.
    const LiveRunResult run =
        live.run_interval(options_.interval_seconds, options_.payload_bytes,
                          options_.rate_hz, traffic_rng);
    exec.publications += run.publications;
    exec.deliveries += run.deliveries;
    published_total += run.publications;

    const bool serving_constraint_met = prev_constraint_met;
    if (!options_.freeze_control_plane) {
      const auto decisions = live.control_round();
      for (const auto& decision : decisions) {
        if (decision.topic != topic) continue;
        current = decision.result.config;
        prev_constraint_met = decision.result.constraint_met;
      }
    }

    // (5) Observe and check.
    const bool fault_active = any_fault_covers(schedule, round);
    clean_streak = fault_active ? 0 : clean_streak + 1;

    if (options_.live.reliable && !fault_active) {
      // The control round's config churn and any just-healed outage both
      // postdate run_interval's own sync pass; run another fault-free one so
      // the reliable books below see converged rings and replicas.
      live.sync_reliable();
    }

    RoundObservation obs;
    obs.round = round;
    obs.fault_active = fault_active;
    obs.clean_streak = clean_streak;
    obs.pending_events = live.simulator().pending();
    const net::SimTransport& transport = live.transport();
    obs.sent = transport.sent_count();
    obs.delivered = transport.delivered_count();
    obs.dropped = transport.dropped_count();
    obs.dropped_sender_down = transport.dropped_sender_down_count();
    obs.ledger_total = transport.ledger().total_cost(catalog);
    obs.topic_total = transport.topic_cost_total();
    for (const RegionId region : down) {
      const auto& broker = live.region_manager(region).broker();
      const auto& ledger = transport.ledger();
      RoundObservation::DownRegionActivity activity;
      activity.region = region;
      activity.broker_delta = broker.delivered_count() +
                              broker.forwarded_count() +
                              broker.drain_forwarded_count() -
                              before[region.index()].broker;
      activity.egress_delta = ledger.inter_region_bytes[region.index()] +
                              ledger.internet_bytes[region.index()] -
                              before[region.index()].egress;
      obs.down_regions.push_back(activity);
    }
    obs.down_set = down;
    obs.universe = universe;
    obs.have_deployed = true;
    obs.deployed = current;

    if (options_.live.reliable) {
      obs.reliable = true;
      if (const auto* pool = live.cohort_pool()) {
        obs.recorded_duplicates = pool->recorded_duplicate_weight();
      } else {
        for (const auto& sub : live.subscribers()) {
          obs.recorded_duplicates += sub->recorded_duplicate_count();
        }
      }
      if (!fault_active) {
        obs.check_zero_loss = true;
        obs.published = published_total;
        obs.publish_drops = transport.publish_drop_count(topic);
        obs.crash_lost = live.crash_lost(topic);
        if (const auto* pool = live.cohort_pool()) {
          for (std::size_t f = 0; f < pool->flock_count(); ++f) {
            const auto fid = static_cast<std::int32_t>(f);
            if (pool->flock_topic(fid) != topic) continue;
            if (pool->flock_weight(fid) == 0) continue;  // retired flock
            if (!pool->flock_matches_all(fid)) continue;
            const std::uint64_t unique = pool->flock_complete_count(fid);
            if (!obs.have_audience || unique < obs.min_unique) {
              obs.min_unique = unique;
            }
            obs.have_audience = true;
          }
        } else {
          for (const auto& sub : live.subscribers()) {
            if (!sub->attached_region(topic).valid()) continue;
            if (!sub->matches_all(topic)) continue;
            const std::uint64_t unique = sub->unique_count(topic);
            if (!obs.have_audience || unique < obs.min_unique) {
              obs.min_unique = unique;
            }
            obs.have_audience = true;
          }
        }
        obs.check_replication = true;
        for (const auto& region : catalog.all()) {
          const auto& broker = live.region_manager(region.id).broker();
          const RegionId standby = broker.standby();
          if (!standby.valid()) continue;
          RoundObservation::ReplicationLag lag;
          lag.primary = region.id;
          lag.state_seq = broker.state_seq();
          lag.applied_seq =
              live.region_manager(standby).broker().replica_applied_seq(
                  region.id);
          obs.replication.push_back(lag);
        }
      }
    }

    if (clean_streak >= options_.convergence_rounds) {
      // Ground truth: the analytic optimizer over the scenario's own
      // matrices and the interval's ACTUAL publication counts — independent
      // of the controller's internal state, so a wedged control plane
      // cannot grade its own homework.
      obs.check_convergence = true;
      obs.analytic =
          scenario_->make_optimizer().optimize(live.observed_topic_state())
              .config;
      obs.check_conformance =
          serving_constraint_met && scenario_->topic.constraint.max < kUnreachable;
      obs.measured_percentile = run.percentile;
      obs.max_t = scenario_->topic.constraint.max;
    }

    auto violations = check_invariants(obs);
    exec.violations.insert(exec.violations.end(), violations.begin(),
                           violations.end());
    exec.total_cost = obs.ledger_total;
    if (stop_at_first && !exec.violations.empty()) break;
  }
  return exec;
}

void ChaosRunner::shrink(ChaosReport& report, std::uint64_t seed) {
  const OracleViolation& first = report.violations.front();
  const std::string target = first.oracle;
  const int repro_rounds = first.round + 1;

  int runs = 0;
  const auto still_fails = [&](const FaultSchedule& candidate) {
    if (runs >= options_.max_shrink_runs) return false;
    ++runs;
    const Execution probe = execute(candidate, seed, repro_rounds,
                                    /*stop_at_first=*/true);
    return std::any_of(
        probe.violations.begin(), probe.violations.end(),
        [&](const OracleViolation& v) { return v.oracle == target; });
  };

  // Prefix truncation: events that start after the violation round cannot
  // have contributed (rounds execute in order and the probe stops there).
  FaultSchedule current;
  for (const auto& event : report.schedule) {
    if (event.start_round < repro_rounds) current.push_back(event);
  }
  if (!still_fails(current)) {
    // Paranoia: if truncation somehow lost the failure, report the full
    // schedule rather than a bogus "minimal" one.
    report.minimal_schedule = report.schedule;
    report.minimal_rounds = report.rounds;
    report.minimal_oracle = target;
    return;
  }

  // Greedy event removal until no single event can be dropped.
  bool progress = true;
  while (progress && !current.empty()) {
    progress = false;
    for (std::size_t i = 0; i < current.size(); ++i) {
      FaultSchedule candidate = current;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }

  report.minimal_schedule = std::move(current);
  report.minimal_rounds = repro_rounds;
  report.minimal_oracle = target;
}

ChaosReport ChaosRunner::run_schedule(const FaultSchedule& schedule,
                                      std::uint64_t seed) {
  ChaosReport report;
  report.seed = seed;
  report.rounds = options_.rounds;
  report.schedule = schedule;

  Execution exec = execute(schedule, seed, options_.rounds,
                           /*stop_at_first=*/false);
  report.violations = std::move(exec.violations);
  report.publications = exec.publications;
  report.deliveries = exec.deliveries;
  report.total_cost = exec.total_cost;

  if (!report.passed() && options_.shrink_on_failure) shrink(report, seed);
  return report;
}

ChaosReport ChaosRunner::run(std::uint64_t seed) {
  if (!scenario_->faults.empty()) {
    return run_schedule(scenario_->faults, seed);
  }
  Rng rng(seed);
  return run_schedule(generate_schedule(*scenario_, options_, rng), seed);
}

std::string ChaosReport::render() const {
  std::ostringstream out;
  out << "chaos seed=" << seed << " rounds=" << rounds << " events="
      << schedule.size() << "\n";
  out << "schedule:\n";
  if (schedule.empty()) {
    out << "  (none)\n";
  } else {
    out << format_fault_schedule(schedule);
  }
  for (const auto& violation : violations) {
    out << "round " << violation.round << ": VIOLATION " << violation.oracle
        << ": " << violation.detail << "\n";
  }
  out << "publications=" << publications << " deliveries=" << deliveries
      << " cost=" << format_dollars(total_cost) << "\n";
  if (passed()) {
    out << "PASS: all invariants held\n";
  } else {
    out << "FAIL: " << violations.size() << " violation(s); first "
        << violations.front().oracle << " at round " << violations.front().round
        << "\n";
    if (!minimal_oracle.empty()) {
      out << "minimal repro (oracle " << minimal_oracle << ", "
          << minimal_schedule.size() << " event(s), " << minimal_rounds
          << " round(s), seed " << seed << "):\n";
      if (minimal_schedule.empty()) {
        out << "  (fails with no faults at all)\n";
      } else {
        out << format_fault_schedule(minimal_schedule);
      }
    }
  }
  return out.str();
}

}  // namespace multipub::sim
