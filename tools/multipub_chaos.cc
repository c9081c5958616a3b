// multipub_chaos — deterministic chaos campaigns over the live middleware.
//
// Builds a scenario (a failure-test-shaped default, or a scenario file,
// which may carry its own 'fault' stanzas), derives a randomized fault
// schedule from --seed, drives the live system through control rounds while
// injecting the faults, and checks the invariant oracles after every round.
// Two runs with the same flags produce byte-identical reports; on failure
// the report ends with a minimal reproducing schedule pasteable into a
// regression test (see tests/testutil.h chaos_schedule).
//
// Examples:
//   multipub-chaos --seed 7
//   multipub-chaos --seed 7 --rounds 16 --faults 6 --print-schedule
//   multipub-chaos --schedule plan.txt --seed 7
//   multipub-chaos --seed 7 --break-outage-exclusion   # must FAIL
#include <cstdio>
#include <string>

#include "sim/chaos.h"
#include "sim/scenario.h"
#include "sim/scenario_file.h"
#include "flags.h"
#include "live_flags.h"

using namespace multipub;

namespace {

void usage() {
  std::printf(R"(multipub_chaos — fault-injection campaigns with invariant oracles

Campaign:
  --seed S                 master seed; everything (fault placement, drop
                           coins, traffic phases) derives from it (default 7)
  --rounds N               control rounds (default 12)
  --faults N               events in the generated schedule (default 4)
  --interval SECONDS       traffic interval per round (default 10)
  --rate HZ                publications per publisher per second (default 1)
  --k N                    clean rounds before the convergence and
                           conformance oracles arm (default 2)
  --no-shrink              skip schedule shrinking on failure

Schedule:
  --schedule FILE          run an explicit fault schedule ('fault ...' lines,
                           see src/sim/fault_schedule.h) instead of a
                           generated one
  --print-schedule         print the schedule and exit without running

Workload:
  --scenario FILE          scenario file over EC2-2016 (its 'fault' stanzas
                           take precedence over a generated schedule);
                           default: 2 pubs + 4 subs near us-east-1 and near
                           ap-northeast-1, ratio 95, max_T 150 ms

Paths under test:
  --incremental on|off     control-plane pipeline (default on)
  --shards K               data-plane worker threads (default 1; K <=
                           regions; the report must be byte-identical for
                           every K)
  --shard-placement P      region-to-shard placement for K > 1:
                           round-robin | topology (default topology)
  --window-policy P        sharded window sizing: fixed | adaptive
                           (default adaptive)
  --reliable on|off        reliability layer (DESIGN.md §15): sequenced
                           replay, reconnect-and-replay, broker state
                           replication — arms the zero-message-loss,
                           no-duplicate and bounded-replication-lag oracles
                           (default off; off keeps the report byte-identical
                           to the pre-reliable harness)

Negative-path demos (the harness must catch them; exit code flips):
  --break-outage-exclusion controller keeps routing through dead regions
  --freeze-control-plane   no control rounds: deployment never converges
  --break-replay           brokers refuse replay requests (needs --reliable
                           on; zero-message-loss must catch it)
  --break-dedup            clients record duplicates instead of absorbing
                           them (needs --reliable on; no-duplicate catches)
  --break-state-sync       brokers stop feeding their standby (needs
                           --reliable on; bounded-replication-lag catches)

Exit code: 0 when all invariants held, 1 on any oracle violation.
)");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  // A mistyped flag (--shard, --cohort, ...) must fail loudly, not run a
  // different campaign than the one asked for.
  flags.allow_only({
      "help", "seed", "rounds", "faults", "interval", "rate", "k",
      "no-shrink", "schedule", "print-schedule", "scenario", "incremental",
      "shards", "shard-placement", "window-policy", "reliable",
      "break-outage-exclusion", "freeze-control-plane", "break-replay",
      "break-dedup", "break-state-sync",
  });

  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 7));

  sim::ChaosOptions options;
  options.rounds = static_cast<int>(flags.get_int("rounds", 12));
  options.fault_events = static_cast<int>(flags.get_int("faults", 4));
  options.interval_seconds = flags.get_double("interval", 10.0);
  options.rate_hz = flags.get_double("rate", 1.0);
  options.convergence_rounds = static_cast<int>(flags.get_int("k", 2));
  options.shrink_on_failure = !flags.get_bool("no-shrink", false);
  options.break_outage_exclusion =
      flags.get_bool("break-outage-exclusion", false);
  options.freeze_control_plane = flags.get_bool("freeze-control-plane", false);
  // The scenario (generated or from a file) lives on the EC2-2016 catalog.
  const geo::RegionCatalog catalog = geo::RegionCatalog::ec2_2016();
  options.live = tools::read_live_options(flags, catalog.size());
  options.break_replay = flags.get_bool("break-replay", false);
  options.break_dedup = flags.get_bool("break-dedup", false);
  options.break_state_sync = flags.get_bool("break-state-sync", false);
  if ((options.break_replay || options.break_dedup ||
       options.break_state_sync) &&
      !options.live.reliable) {
    flags.error(
        "--break-replay / --break-dedup / --break-state-sync need "
        "--reliable on: they sabotage the reliability layer");
  }
  if (options.rounds < 1) flags.error("--rounds must be >= 1");
  if (flags.print_errors()) return 2;

  // --- Scenario ---
  const geo::InterRegionLatency backbone = geo::InterRegionLatency::ec2_2016();
  sim::Scenario scenario;
  if (flags.has("scenario")) {
    const std::string path = flags.get("scenario", "");
    const auto content = tools::read_file(path, "scenario");
    if (!content) return 2;
    std::string parse_error;
    const auto spec = sim::parse_scenario_spec(*content, &parse_error);
    if (!spec) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 2;
    }
    const auto built =
        sim::build_scenario(*spec, catalog, backbone, &parse_error);
    if (!built) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 2;
    }
    scenario = *built;
  } else {
    // The failure-test workload: clients split across two continents with a
    // bound tight enough that the optimizer must serve both sides — outages
    // then actually force reconfigurations.
    sim::WorkloadSpec workload;
    workload.interval_seconds = options.interval_seconds;
    workload.ratio = 95.0;
    workload.max_t = 150.0;
    Rng scenario_rng(seed);
    scenario = sim::make_scenario({{RegionId{0}, 2, 4}, {RegionId{5}, 2, 4}},
                                  workload, scenario_rng);
  }

  // --- Schedule ---
  sim::FaultSchedule schedule;
  if (flags.has("schedule")) {
    const std::string path = flags.get("schedule", "");
    const auto content = tools::read_file(path, "schedule");
    if (!content) return 2;
    std::string parse_error;
    const auto parsed = sim::parse_fault_schedule(*content, &parse_error);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
      return 2;
    }
    schedule = *parsed;
  } else if (!scenario.faults.empty()) {
    schedule = scenario.faults;
  } else {
    Rng schedule_rng(seed);
    schedule = sim::generate_schedule(scenario, options, schedule_rng);
  }

  if (flags.get_bool("print-schedule", false)) {
    std::fputs(sim::format_fault_schedule(schedule).c_str(), stdout);
    return 0;
  }

  sim::ChaosRunner runner(scenario, options);
  const sim::ChaosReport report = runner.run_schedule(schedule, seed);
  std::fputs(report.render().c_str(), stdout);
  return report.passed() ? 0 : 1;
}
