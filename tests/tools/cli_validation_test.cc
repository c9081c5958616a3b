// Flag-validation contracts of the CLI binaries: a data plane with more
// shards than regions would run workers that own nothing yet pay every
// barrier round, so all three binaries must reject it up front with a clear
// message — and the new tuning flags must be part of each binary's allowed
// vocabulary. Exercised against the real executables (like the node
// convergence test), because the checks live in their main()s.
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

TEST(CliValidation, SimRejectsMoreShardsThanRegions) {
  const auto out = run_cli(build_dir() +
                           "/tools/multipub-sim --pubs-per-region 1 "
                           "--subs-per-region 1 --live --shards 99");
  EXPECT_EQ(out.exit_code, 2) << out.text;
  EXPECT_NE(out.text.find("shards must be <= regions"), std::string::npos)
      << out.text;
}

TEST(CliValidation, ChaosRejectsMoreShardsThanRegions) {
  const auto out =
      run_cli(build_dir() + "/tools/multipub-chaos --seed 7 --shards 99");
  EXPECT_EQ(out.exit_code, 2) << out.text;
  EXPECT_NE(out.text.find("shards must be <= regions"), std::string::npos)
      << out.text;
}

TEST(CliValidation, BenchRejectsMoreShardsThanRegions) {
  const auto out = run_cli(build_dir() +
                           "/bench/bench_dataplane --pubs 100 "
                           "--mode shards=99");
  EXPECT_EQ(out.exit_code, 2) << out.text;
  EXPECT_NE(out.text.find("K <= regions"), std::string::npos) << out.text;
}

TEST(CliValidation, BenchRejectsMalformedShardCounts) {
  // 2^32 + 2 would truncate to 2 shards; "4abc" would parse as 4.
  for (const char* mode : {"shards=4294967298", "shards=4abc"}) {
    const auto out = run_cli(build_dir() +
                             "/bench/bench_dataplane --pubs 100 --mode " +
                             mode);
    EXPECT_EQ(out.exit_code, 2) << mode << "\n" << out.text;
    EXPECT_NE(out.text.find("needs an integer K"), std::string::npos)
        << out.text;
  }
}

TEST(CliValidation, ReliableFlagIsAcceptedByAllThreeBinaries) {
  // `--reliable on` must pass flag validation everywhere the reliability
  // layer can run. The node binary is probed up to the scenario-file open
  // (exit 1, not the flag-error exit 2): the flag parsed, the file did not.
  const auto sim = run_cli(build_dir() +
                           "/tools/multipub-sim --pubs-per-region 1 "
                           "--subs-per-region 1 --live --reliable on");
  EXPECT_EQ(sim.exit_code, 0) << sim.text;

  const auto chaos = run_cli(build_dir() +
                             "/tools/multipub-chaos --seed 7 --reliable on "
                             "--print-schedule");
  EXPECT_EQ(chaos.exit_code, 0) << chaos.text;

  const auto node = run_cli(build_dir() +
                            "/tools/multipub-node --role broker "
                            "--scenario /nonexistent --reliable on");
  EXPECT_EQ(node.exit_code, 1) << node.text;
  EXPECT_NE(node.text.find("cannot open scenario file"), std::string::npos)
      << node.text;
}

TEST(CliValidation, ReliableFlagRejectsAnythingButOnAndOff) {
  const std::string expected = "--reliable must be 'on' or 'off'";

  const auto sim = run_cli(build_dir() +
                           "/tools/multipub-sim --pubs-per-region 1 "
                           "--subs-per-region 1 --live --reliable maybe");
  EXPECT_EQ(sim.exit_code, 2) << sim.text;
  EXPECT_NE(sim.text.find(expected), std::string::npos) << sim.text;

  const auto chaos = run_cli(build_dir() +
                             "/tools/multipub-chaos --seed 7 "
                             "--reliable maybe");
  EXPECT_EQ(chaos.exit_code, 2) << chaos.text;
  EXPECT_NE(chaos.text.find(expected), std::string::npos) << chaos.text;

  const auto node = run_cli(build_dir() +
                            "/tools/multipub-node --role broker "
                            "--scenario /nonexistent --reliable maybe");
  EXPECT_EQ(node.exit_code, 2) << node.text;
  EXPECT_NE(node.text.find(expected), std::string::npos) << node.text;
}

TEST(CliValidation, TransportBatchingFlagIsAcceptedByTheNodeBinary) {
  // The flag must pass validation for both roles; the node is probed up to
  // the scenario-file open (exit 1, not the flag-error exit 2).
  const auto broker = run_cli(build_dir() +
                              "/tools/multipub-node --role broker "
                              "--scenario /nonexistent "
                              "--transport-batching off");
  EXPECT_EQ(broker.exit_code, 1) << broker.text;
  EXPECT_NE(broker.text.find("cannot open scenario file"), std::string::npos)
      << broker.text;

  const auto controller = run_cli(build_dir() +
                                  "/tools/multipub-node --role controller "
                                  "--scenario /nonexistent "
                                  "--transport-batching on");
  EXPECT_EQ(controller.exit_code, 1) << controller.text;
  EXPECT_NE(controller.text.find("cannot open scenario file"),
            std::string::npos)
      << controller.text;
}

TEST(CliValidation, TransportBatchingFlagRejectsAnythingButOnAndOff) {
  const auto node = run_cli(build_dir() +
                            "/tools/multipub-node --role broker "
                            "--scenario /nonexistent "
                            "--transport-batching sometimes");
  EXPECT_EQ(node.exit_code, 2) << node.text;
  EXPECT_NE(
      node.text.find("--transport-batching must be 'on' or 'off'"),
      std::string::npos)
      << node.text;
}

TEST(CliValidation, BreakHooksRequireReliableOn) {
  // The negative hooks sabotage the reliability layer; without the layer
  // armed they would silently test nothing, so the chaos CLI refuses them.
  const auto out =
      run_cli(build_dir() + "/tools/multipub-chaos --seed 7 --break-replay");
  EXPECT_EQ(out.exit_code, 2) << out.text;
  EXPECT_NE(out.text.find("need --reliable on"), std::string::npos)
      << out.text;
}

TEST(CliValidation, TuningFlagsAreAcceptedVocabulary) {
  // --shard-placement / --window-policy must parse (bad values rejected,
  // good values not reported as unknown flags). --print-schedule keeps the
  // chaos run from actually executing a campaign.
  const auto bad = run_cli(build_dir() +
                           "/tools/multipub-chaos --seed 7 "
                           "--shard-placement diagonal");
  EXPECT_EQ(bad.exit_code, 2) << bad.text;
  EXPECT_NE(bad.text.find("--shard-placement"), std::string::npos);

  const auto good = run_cli(build_dir() +
                            "/tools/multipub-chaos --seed 7 --shards 4 "
                            "--shard-placement round-robin "
                            "--window-policy fixed --print-schedule");
  EXPECT_EQ(good.exit_code, 0) << good.text;

  const auto bad_policy = run_cli(build_dir() +
                                  "/tools/multipub-sim --pubs-per-region 1 "
                                  "--subs-per-region 1 --live "
                                  "--window-policy sometimes");
  EXPECT_EQ(bad_policy.exit_code, 2) << bad_policy.text;
  EXPECT_NE(bad_policy.text.find("--window-policy"), std::string::npos);
}

}  // namespace
}  // namespace multipub
