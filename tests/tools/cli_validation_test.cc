// Flag-validation contracts of the CLI binaries: a data plane with more
// shards than regions would run workers that own nothing yet pay every
// barrier round, so all three binaries must reject it up front with a clear
// message — and each binary accepts exactly its documented vocabulary.
// Exercised against the real executables (like the node convergence test),
// because the checks live in their main()s.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace multipub {
namespace {

/// Directory of the binaries under test (test binaries live in
/// build/tests, the CLIs in build/tools, the benches in build/bench).
std::string build_dir() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return "..";
  self[n] = '\0';
  std::string dir(self);
  dir.resize(dir.find_last_of('/'));
  return dir + "/..";
}

struct RunOutput {
  int exit_code = -1;
  std::string text;  // stdout + stderr interleaved
};

RunOutput run_cli(const std::string& command) {
  RunOutput out;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    out.text += buffer;
  }
  const int status = ::pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

/// Runs a binary (path relative to the build tree) and expects its exit
/// code and a substring of its output.
void expect_cli(const std::string& command, int exit_code,
                const std::string& needle) {
  const auto out = run_cli(build_dir() + command);
  EXPECT_EQ(out.exit_code, exit_code) << command << "\n" << out.text;
  EXPECT_NE(out.text.find(needle), std::string::npos)
      << command << "\n" << out.text;
}

TEST(CliValidation, SimRejectsMoreShardsThanRegions) {
  expect_cli("/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 "
             "--live --shards 99",
             2, "shards must be <= regions");
}

TEST(CliValidation, ChaosRejectsMoreShardsThanRegions) {
  expect_cli("/tools/multipub-chaos --seed 7 --shards 99", 2,
             "shards must be <= regions");
}

TEST(CliValidation, BenchRejectsMoreShardsThanRegions) {
  expect_cli("/bench/bench_dataplane --pubs 100 --mode shards=99", 2,
             "K <= regions");
}

TEST(CliValidation, BenchRejectsMalformedShardCounts) {
  // 2^32 + 2 would truncate to 2 shards; "4abc" would parse as 4.
  for (const char* mode : {"shards=4294967298", "shards=4abc"}) {
    expect_cli(std::string("/bench/bench_dataplane --pubs 100 --mode ") + mode,
               2, "needs an integer K");
  }
}

TEST(CliValidation, SimRejectsMalformedPlacementCounts) {
  // Each used to go through an unchecked strtol: "x", "-2" and "0" reached
  // the engine's preconditions and aborted; "5abc" and "5:7" ran as 5.
  for (const char* spec : {"us-east-1:x:5", "us-east-1:-2:5", "us-east-1:0:5",
                           "us-east-1:3:5abc", "us-east-1:3:5:7"}) {
    expect_cli(std::string("/tools/multipub-sim --placement ") + spec, 2,
               "bad --placement");
  }
  expect_cli("/tools/multipub-sim --placement us-east-1:2:3 --mode direct", 0,
             "");
}

TEST(CliValidation, ReliableFlagIsAcceptedByAllThreeBinaries) {
  // `--reliable on` must pass flag validation everywhere the reliability
  // layer can run. The node binary is probed up to the scenario-file open
  // (exit 1, not the flag-error exit 2): the flag parsed, the file did not.
  expect_cli("/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 "
             "--live --reliable on",
             0, "");
  expect_cli("/tools/multipub-chaos --seed 7 --reliable on --print-schedule",
             0, "");
  expect_cli("/tools/multipub-node --role broker --scenario /nonexistent "
             "--reliable on",
             1, "cannot open scenario file");
}

TEST(CliValidation, ReliableFlagRejectsAnythingButOnAndOff) {
  const std::string expected = "--reliable must be 'on' or 'off'";
  expect_cli("/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 "
             "--live --reliable maybe",
             2, expected);
  expect_cli("/tools/multipub-chaos --seed 7 --reliable maybe", 2, expected);
  expect_cli("/tools/multipub-node --role broker --scenario /nonexistent "
             "--reliable maybe",
             2, expected);
}

TEST(CliValidation, TransportBatchingFlagIsAcceptedByTheNodeBinary) {
  // The flag must pass validation for both roles; the node is probed up to
  // the scenario-file open (exit 1, not the flag-error exit 2).
  expect_cli("/tools/multipub-node --role broker --scenario /nonexistent "
             "--transport-batching off",
             1, "cannot open scenario file");
  expect_cli("/tools/multipub-node --role controller --scenario /nonexistent "
             "--transport-batching on",
             1, "cannot open scenario file");
}

TEST(CliValidation, TransportBatchingFlagRejectsAnythingButOnAndOff) {
  expect_cli("/tools/multipub-node --role broker --scenario /nonexistent "
             "--transport-batching sometimes",
             2, "--transport-batching must be 'on' or 'off'");
}

TEST(CliValidation, BreakHooksRequireReliableOn) {
  // The negative hooks sabotage the reliability layer; without the layer
  // armed they would silently test nothing, so the chaos CLI refuses them.
  expect_cli("/tools/multipub-chaos --seed 7 --break-replay", 2,
             "need --reliable on");
}

TEST(CliValidation, RemovedTuningFlagsAreUnknownEverywhere) {
  // The sharded plane has one tuning (round-robin placement, fixed
  // windows), so the flags that once chose another are unknown flags in
  // all three binaries — even with the values that used to be valid.
  const std::vector<std::string> binaries{
      "/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 --live "
      "--shards 4 ",
      "/tools/multipub-chaos --seed 7 --shards 4 --print-schedule ",
      "/bench/bench_dataplane --pubs 1000 --mode shards=4 ",
  };
  for (const std::string& binary : binaries) {
    expect_cli(binary + "--shard-placement round-robin", 2,
               "unknown flag --shard-placement");
    expect_cli(binary + "--window-policy fixed", 2,
               "unknown flag --window-policy");
  }
}

TEST(CliValidation, CohortsFlagIsStrictlyOnOrOff) {
  // "off" must mean the per-client plane; anything but on|off is a flag
  // error, not a silent "true".
  const std::string bench =
      "/bench/bench_dataplane --pubs 1000 --clients 600 --regions 6 "
      "--mode fast --cohorts ";
  const std::string sim =
      "/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 --live "
      "--cohorts ";
  const std::string bad = "--cohorts must be 'on' or 'off'";
  expect_cli(bench + "off", 0, "(per-client plane)");
  expect_cli(bench + "on", 0, "(cohort plane)");
  expect_cli(bench + "maybe", 2, bad);
  expect_cli(sim + "off", 0, "per-client subscribers");
  expect_cli(sim + "maybe", 2, bad);
  // multipub-chaos reads the same vocabulary but does not accept --cohorts.
  expect_cli("/tools/multipub-chaos --seed 7 --cohorts on", 2,
             "unknown flag --cohorts");
}

TEST(CliValidation, LiveFlagValuesAreCheckedInSimAndChaos) {
  const std::string sim =
      "/tools/multipub-sim --pubs-per-region 1 --subs-per-region 1 --live ";
  // A malformed --shards used to fall back to one shard in multipub-sim.
  expect_cli(sim + "--shards abc", 2, "--shards expects an integer");
  expect_cli(sim + "--quantize-ms 5", 2, "add --cohorts on");
  expect_cli("/tools/multipub-chaos --seed 7 --shards 0", 2,
             "--shards must be >= 1");
  expect_cli("/tools/multipub-chaos --seed 7 --incremental sometimes", 2,
             "--incremental must be 'on' or 'off'");
}

}  // namespace
}  // namespace multipub
