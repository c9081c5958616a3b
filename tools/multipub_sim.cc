// multipub_sim — the command-line simulation package.
//
// The paper's authors "implemented a full simulation package" to evaluate
// MultiPub; this is that package for this reproduction. It builds a
// workload over the EC2-2016 region set (or a synthetic world), runs the
// optimizer (exact or heuristic), optionally sweeps max_T, compares against
// the static baselines, and can validate the analytic answer against the
// live event-driven middleware.
//
// Examples:
//   multipub-sim --pubs-per-region 10 --subs-per-region 10
//                --ratio 75 --sweep 100:200:4
//   multipub-sim --placement ap-northeast-1:2:4 --ratio 95 --max-t 150 --live
//   multipub-sim --synthetic-regions 20 --heuristic --max-t 120
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/heuristic.h"
#include "geo/latency_io.h"
#include "geo/modern.h"
#include "geo/synthetic.h"
#include "sim/baselines.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "sim/scenario_file.h"
#include "sim/sweep.h"
#include "flags.h"
#include "live_flags.h"

using namespace multipub;

namespace {

void usage() {
  std::printf(R"(multipub_sim — MultiPub workload simulator

Workload:
  --scenario FILE          load placements/workload from a scenario file
                           (see src/sim/scenario_file.h for the format)
  --pubs-per-region N      publishers homed at every region (default 0)
  --subs-per-region N      subscribers homed at every region (default 0)
  --placement R:P:S        P publishers + S subscribers near region R
                           (name like ap-northeast-1; repeatable... last wins
                           per region when combined with *-per-region)
  --rate HZ                publications per publisher per second (default 1)
  --size BYTES             payload size (default 1024)
  --interval SECONDS       observation interval (default 60)

Constraint:
  --ratio PCT              delivery guarantee ratio (default 75)
  --max-t MS               delivery bound (default: unconstrained)
  --sweep FROM:TO:STEP     sweep max_T instead of a single solve

Solver:
  --mode both|direct|routed   delivery-mode policy (default both)
  --heuristic                 greedy seed/grow/trim search instead of
                              exhaustive enumeration
  --exact-list                use the paper's per-message percentile path

World:
  --synthetic-regions N    use an N-region synthetic world instead of EC2
  --modern-aws             use the 30-region 2024 AWS catalog
  --seed S                 RNG seed (default 2017)
  --latencies FILE         load measured L / L^R matrices (see
                           src/geo/latency_io.h) instead of synthesizing;
                           client rows are used in file order
  --dump-latencies FILE    write the matrices this run used (edit & reuse
                           with --latencies to plug in real measurements)

Validation:
  --live                   run the event-driven middleware for one interval
                           and print measured vs. analytic numbers
  --incremental on|off     with --live: incremental (dirty-topic) control
                           plane vs. the full-scan reference (default on)
  --shards K               with --live: run the data plane on K worker
                           threads (conservative time windows, DESIGN.md
                           §11; default 1; K <= regions)
  --clients N              with --live: replicate the subscriber positions
                           round-robin until N subscribers exist (clones
                           share their original's exact latency row and
                           home region; publishers are untouched)
  --cohorts on|off         with --live: fold the subscribers into weighted
                           cohorts (DESIGN.md §12; default off)
  --quantize-ms MS         with --cohorts on: quantize client latency rows
                           to MS-wide buckets before folding, so
                           near-identical clients merge too (default 0 =
                           exact rows, bit-identical to per-client)
  --reliable on|off        with --live: arm the reliability layer —
                           sequenced replay, gap-driven re-request and
                           Clone-pattern broker state replication
                           (DESIGN.md §15; default off, which keeps every
                           observable bit-identical to the pre-reliable
                           system)
  --explain K              print the K best configurations with their
                           percentile/cost (what-if table)
  --metrics                with --live: dump the metrics snapshot
)");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  // Anything outside this vocabulary is an error: a mistyped toggle (e.g.
  // --shard=4 or --cohort on) must not silently fall back to defaults.
  flags.allow_only({
      "help", "scenario", "pubs-per-region", "subs-per-region", "placement",
      "rate", "size", "interval", "ratio", "max-t", "sweep", "mode",
      "heuristic", "exact-list", "synthetic-regions", "modern-aws", "seed",
      "latencies", "dump-latencies", "live", "incremental", "shards",
      "clients", "cohorts", "quantize-ms", "reliable", "explain", "metrics",
  });

  const long seed = flags.get_int("seed", 2017);
  Rng rng(static_cast<std::uint64_t>(seed));

  // --- World ---
  geo::RegionCatalog catalog;
  geo::InterRegionLatency backbone;
  const long synthetic_regions = flags.get_int("synthetic-regions", 0);
  if (synthetic_regions > 0) {
    auto world = geo::synthesize_world(
        static_cast<std::size_t>(synthetic_regions), {}, rng);
    catalog = std::move(world.catalog);
    backbone = std::move(world.backbone);
  } else if (flags.get_bool("modern-aws", false)) {
    auto world = geo::modern_aws_world();
    catalog = std::move(world.catalog);
    backbone = std::move(world.backbone);
  } else {
    catalog = geo::RegionCatalog::ec2_2016();
    backbone = geo::InterRegionLatency::ec2_2016();
  }

  // --- Workload ---
  sim::WorkloadSpec workload;
  workload.publish_rate_hz = flags.get_double("rate", 1.0);
  workload.message_bytes =
      static_cast<Bytes>(flags.get_int("size", 1024));
  workload.interval_seconds = flags.get_double("interval", 60.0);
  workload.ratio = flags.get_double("ratio", 75.0);
  workload.max_t = flags.has("max-t")
                       ? flags.get_double("max-t", kUnreachable)
                       : kUnreachable;

  std::vector<sim::PlacementSpec> placements;
  const long per_region_pubs = flags.get_int("pubs-per-region", 0);
  const long per_region_subs = flags.get_int("subs-per-region", 0);
  if (per_region_pubs > 0 || per_region_subs > 0) {
    for (const auto& region : catalog.all()) {
      placements.push_back({region.id,
                            static_cast<std::size_t>(per_region_pubs),
                            static_cast<std::size_t>(per_region_subs)});
    }
  }
  // Note: the tiny flag parser keeps the last value per flag name, so one
  // --placement is supported here; use *-per-region for symmetric setups.
  if (flags.has("placement")) {
    const std::string spec = flags.get("placement", "");
    const auto c1 = spec.find(':');
    const auto c2 = spec.find(':', c1 + 1);
    const RegionId region = catalog.find(spec.substr(0, c1));
    if (c1 == std::string::npos || c2 == std::string::npos) {
      flags.error("bad --placement '" + spec + "' (want R:P:S)");
    } else if (!region.valid()) {
      flags.error("unknown region '" + spec.substr(0, c1) + "'");
    } else {
      const auto count = [&](std::size_t from, std::size_t len) {
        return static_cast<std::size_t>(
            std::strtol(spec.substr(from, len).c_str(), nullptr, 10));
      };
      placements.push_back({region, count(c1 + 1, c2 - c1 - 1),
                            count(c2 + 1, std::string::npos)});
    }
  }
  // Flag errors (unknown flags, malformed numbers) first: a typo must not
  // be masked by the missing-workload hint below. Exit 2, like every other
  // flag error.
  if (flags.print_errors()) return 2;

  if (placements.empty() && !flags.has("scenario")) {
    std::fprintf(stderr,
                 "no workload: pass --scenario, --pubs-per-region/"
                 "--subs-per-region or --placement (see --help)\n");
    return 1;
  }

  // Build the scenario against the selected world.
  sim::Scenario scenario;
  if (flags.has("scenario")) {
    const std::string path = flags.get("scenario", "");
    const auto content = tools::read_file(path, "scenario");
    if (!content) return 1;
    std::string parse_error;
    const auto spec = sim::parse_scenario_spec(*content, &parse_error);
    if (!spec) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 1;
    }
    const auto built =
        sim::build_scenario(*spec, catalog, backbone, &parse_error);
    if (!built) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 1;
    }
    scenario = *built;
    workload = spec->workload;  // the file's knobs drive live validation too
  } else {
    scenario = sim::make_scenario(catalog, backbone, placements, workload, rng);
  }

  // Measured matrices override the synthetic ones (client rows by file
  // order; row count must cover the scenario's clients).
  if (flags.has("latencies")) {
    const std::string path = flags.get("latencies", "");
    const auto content = tools::read_file(path, "latency");
    if (!content) return 1;
    std::string parse_error;
    const auto parsed = geo::parse_latencies(*content, &parse_error);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 1;
    }
    if (parsed->backbone.size() > 0) {
      if (parsed->backbone.size() != scenario.catalog.size()) {
        std::fprintf(stderr, "backbone is %zux%zu but the world has %zu "
                     "regions\n", parsed->backbone.size(),
                     parsed->backbone.size(), scenario.catalog.size());
        return 1;
      }
      scenario.backbone = parsed->backbone;
    }
    if (parsed->clients.n_clients() > 0) {
      if (parsed->clients.n_regions() != scenario.catalog.size() ||
          parsed->clients.n_clients() <
              scenario.population.latencies.n_clients()) {
        std::fprintf(stderr, "client matrix (%zu x %zu) does not cover the "
                     "scenario (%zu clients x %zu regions)\n",
                     parsed->clients.n_clients(), parsed->clients.n_regions(),
                     scenario.population.latencies.n_clients(),
                     scenario.catalog.size());
        return 1;
      }
      scenario.population.latencies = parsed->clients;
    }
  }
  if (flags.has("dump-latencies")) {
    const std::string path = flags.get("dump-latencies", "");
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
      return 1;
    }
    file << geo::serialize_latencies(scenario.backbone,
                                     scenario.population.latencies);
    std::printf("latency matrices written to %s\n", path.c_str());
  }

  const std::string mode = flags.get("mode", "both");
  core::OptimizerOptions options;
  if (mode == "direct") {
    options.mode_policy = core::ModePolicy::kDirectOnly;
  } else if (mode == "routed") {
    options.mode_policy = core::ModePolicy::kRoutedOnly;
  } else if (mode != "both") {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 1;
  }
  if (flags.get_bool("exact-list", false)) {
    options.strategy = core::EvaluationStrategy::kExactList;
  }
  const sim::LiveOptions live_options =
      tools::read_live_options(flags, scenario.catalog.size());
  const long clients_target = flags.get_int("clients", 0);
  if (flags.has("clients") && clients_target < 1) {
    flags.error("--clients must be >= 1");
  }
  if ((live_options.shards > 1 || flags.has("cohorts") ||
       flags.has("clients") || flags.has("reliable")) &&
      !flags.get_bool("live", false)) {
    flags.error(
        "--shards/--cohorts/--clients/--reliable only apply to the live "
        "middleware: add --live");
  }
  if (flags.print_errors()) return 2;

  const char* world_label = synthetic_regions > 0 ? "synthetic"
                            : flags.get_bool("modern-aws", false)
                                ? "AWS 2024"
                                : "EC2 2016";
  std::printf("world: %zu regions (%s), %zu publishers, %zu subscribers\n",
              catalog.size(), world_label,
              scenario.topic.publishers.size(),
              scenario.topic.subscribers.size());
  std::printf("constraint: %.0f%% of deliveries within %s ms\n\n",
              workload.ratio,
              workload.max_t == kUnreachable
                  ? "inf"
                  : std::to_string(static_cast<long>(workload.max_t)).c_str());

  // --- Sweep mode ---
  if (const auto range = flags.get_range("sweep")) {
    const auto points = sim::sweep_max_t(
        scenario, {(*range)[0], (*range)[1], (*range)[2]},
        options.mode_policy);
    std::printf("%8s %10s %12s %8s %-7s %s\n", "max_T", "p(ms)", "$/day",
                "regions", "mode", "met");
    for (const auto& p : points) {
      std::printf("%8.0f %10.1f %12.2f %8d %-7s %s\n", p.max_t,
                  p.achieved_percentile, p.cost_per_day, p.n_regions,
                  core::to_string(p.mode), p.constraint_met ? "yes" : "no");
    }
    return 0;
  }

  // --- Single solve ---
  const auto optimizer = scenario.make_optimizer();
  core::TopicConfig chosen;
  if (flags.get_bool("heuristic", false)) {
    const core::HeuristicOptimizer heuristic(
        scenario.catalog, scenario.backbone, scenario.population.latencies);
    core::HeuristicOptions h_options;
    h_options.mode_policy = options.mode_policy;
    const auto result = heuristic.optimize(scenario.topic, h_options);
    chosen = result.config;
    std::printf("heuristic : %s  p=%.1fms  $%.2f/day  (%zu evals, %s)\n",
                result.config.to_string().c_str(), result.percentile,
                core::scale_to_day(result.cost, scenario.interval_seconds),
                result.configs_evaluated,
                result.constraint_met ? "met" : "NOT met");
  } else {
    const auto result = optimizer.optimize(scenario.topic, options);
    chosen = result.config;
    std::printf("multipub  : %s  p=%.1fms  $%.2f/day  (%zu configs, %s)\n",
                result.config.to_string().c_str(), result.percentile,
                core::scale_to_day(result.cost, scenario.interval_seconds),
                result.configs_evaluated,
                result.constraint_met ? "met" : "NOT met");
  }

  const auto one = sim::one_region_baseline(optimizer, scenario.topic);
  const auto all = sim::all_regions_baseline(
      optimizer, scenario.topic, core::DeliveryMode::kRouted, catalog.size());
  std::printf("one-region: %s  p=%.1fms  $%.2f/day\n",
              one.config.to_string().c_str(), one.percentile,
              core::scale_to_day(one.cost, scenario.interval_seconds));
  std::printf("all-region: %s  p=%.1fms  $%.2f/day\n",
              all.config.to_string().c_str(), all.percentile,
              core::scale_to_day(all.cost, scenario.interval_seconds));

  // --- What-if table ---
  if (const long k = flags.get_int("explain", 0); k > 0) {
    auto evals = optimizer.evaluate_all(scenario.topic, options);
    std::sort(evals.begin(), evals.end(),
              [](const core::ConfigEvaluation& a,
                 const core::ConfigEvaluation& b) {
                return core::Optimizer::better(a, b);
              });
    std::printf("\ntop %ld of %zu configurations:\n", k, evals.size());
    std::printf("%4s %-28s %10s %12s %s\n", "#", "configuration", "p(ms)",
                "$/day", "feasible");
    for (long i = 0; i < k && i < static_cast<long>(evals.size()); ++i) {
      const auto& e = evals[static_cast<std::size_t>(i)];
      std::printf("%4ld %-28s %10.1f %12.2f %s\n", i + 1,
                  e.config.to_string().c_str(), e.percentile,
                  core::scale_to_day(e.cost, scenario.interval_seconds),
                  e.feasible ? "yes" : "no");
    }
  }

  // --- Live validation ---
  if (flags.get_bool("live", false)) {
    // --clients N: replicate the subscriber positions after the solve (the
    // clones share exact latency rows, so the analytic percentile is
    // unchanged and the optimizer need not rank a million rows). This is
    // the workload shape the cohort plane folds into weight-N cohorts.
    if (clients_target > static_cast<long>(scenario.topic.subscribers.size())) {
      if (scenario.topic.subscribers.empty()) {
        std::fprintf(stderr, "--clients needs at least one subscriber\n");
        return 2;
      }
      const auto base = scenario.topic.subscribers;
      for (std::size_t i = scenario.topic.subscribers.size();
           i < static_cast<std::size_t>(clients_target); ++i) {
        const auto& original = base[i % base.size()];
        // Copy the row first: add_client may reallocate the matrix the
        // span points into.
        const auto span = scenario.population.latencies.row(original.client);
        const std::vector<Millis> row(span.begin(), span.end());
        const ClientId id = scenario.population.latencies.add_client(row);
        scenario.population.home_region.push_back(
            scenario.population.home_region[original.client.index()]);
        auto clone = original;
        clone.client = id;
        scenario.topic.subscribers.push_back(clone);
      }
    }
    sim::LiveSystem live(scenario, live_options);
    live.deploy(chosen);
    const auto run = live.run_interval(workload.interval_seconds,
                                       workload.message_bytes,
                                       workload.publish_rate_hz, rng);
    (void)live.control_round();  // let the controller record the deployment
    std::printf("\nlive validation over one interval (%zu events):\n",
                static_cast<std::size_t>(live.simulator().processed()));
    const auto& round = live.controller().last_round_stats();
    std::printf(
        "  control   : %s pipeline, %zu tracked, %zu dirty, %zu optimized, "
        "%zu carried\n",
        live_options.incremental ? "incremental" : "full-scan", round.tracked,
        round.dirty, round.evaluated, round.skipped_clean);
    if (live_options.cohorts) {
      std::printf(
          "  data plane: %u shard(s), %zu subscribers in %zu cohort(s) "
          "(%.0fms buckets)\n",
          live_options.shards, scenario.topic.subscribers.size(),
          live.cohort_pool()->cohort_count(), live_options.row_bucket_ms);
    } else {
      std::printf("  data plane: %u shard(s), per-client subscribers\n",
                  live_options.shards);
    }
    std::printf("  measured  : p=%.1fms  $%.2f/day  (%llu deliveries)\n",
                run.percentile, run.cost_per_day,
                static_cast<unsigned long long>(run.deliveries));
    const auto observed = live.observed_topic_state();
    const auto predicted = optimizer.evaluate(observed, chosen);
    std::printf("  analytic  : p=%.1fms  $%.2f/day\n", predicted.percentile,
                core::scale_to_day(predicted.cost, workload.interval_seconds));
    std::printf("\nassignment matrix (paper §III-A2):\n%s",
                live.controller().render_assignment_matrix().c_str());
    if (flags.get_bool("metrics", false)) {
      std::printf("\nmetrics snapshot:\n%s",
                  sim::collect_metrics(live).render().c_str());
      if (live_options.shards > 1) {
        std::printf("\nwindow telemetry (engine-level, varies with "
                    "the shard count):\n%s",
                    sim::collect_window_metrics(live).render().c_str());
      }
    }
  }
  return 0;
}
