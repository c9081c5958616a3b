// Speedup benchmark: batched EvaluationEngine vs. the seed's per-config
// reference path, kWeighted strategy, on
//   - the Fig-6b-style scenario (100 clients spread over the first N EC2
//     regions), N in {6, 8, 10}: every subscriber has its own latency row;
//   - a cohort-shaped topic at N = 10: 2000 subscribers cloned from 20
//     latency rows (2 per region), which the engine folds into 20 classes.
//
// Prints a human-readable table and writes BENCH_optimizer.json in the
// shared {"bench", "rows"} shape (rows of {shape, n_regions, configs,
// subscribers, classes, reference_ms, engine_ms, speedup, identical}) so CI
// and scripts can track the ratio. Also cross-checks that both paths return
// identical results on every measured run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "core/evaluation_engine.h"
#include "core/optimizer.h"
#include "sim/scenario.h"

using namespace multipub;

namespace {

sim::Scenario scaled_scenario(std::size_t n_regions, std::size_t pubs_per_region,
                              std::size_t subs_per_region,
                              std::size_t replication) {
  Rng rng(2017);
  std::vector<sim::PlacementSpec> placements;
  for (std::size_t r = 0; r < n_regions; ++r) {
    placements.push_back({RegionId{static_cast<RegionId::underlying_type>(r)},
                          pubs_per_region, subs_per_region});
  }
  sim::WorkloadSpec workload;
  workload.ratio = 75.0;
  workload.max_t = 150.0;
  workload.interval_seconds = 60.0;
  workload.subscriber_replication = replication;
  sim::Scenario scenario = sim::make_scenario(placements, workload, rng);
  if (n_regions < 10) {
    scenario.catalog = scenario.catalog.prefix(n_regions);
    scenario.backbone = scenario.backbone.prefix(n_regions);
    geo::ClientLatencyMap truncated(n_regions);
    for (std::size_t c = 0; c < scenario.population.latencies.n_clients();
         ++c) {
      const auto row = scenario.population.latencies.row(
          ClientId{static_cast<ClientId::underlying_type>(c)});
      truncated.add_client(row.subspan(0, n_regions));
    }
    scenario.population.latencies = std::move(truncated);
  }
  return scenario;
}

/// Best-of-`reps` wall time in milliseconds for `iters` calls of `fn`.
template <typename Fn>
double time_ms(int reps, int iters, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
    best = std::min(best, ms);
  }
  return best;
}

bool same_result(const core::OptimizerResult& a,
                 const core::OptimizerResult& b) {
  return a.config == b.config && a.percentile == b.percentile &&
         a.cost == b.cost && a.constraint_met == b.constraint_met &&
         a.configs_evaluated == b.configs_evaluated;
}

}  // namespace

int main() {
  struct Line {
    const char* shape = "";
    std::size_t n_regions = 0;
    std::size_t configs = 0;
    std::size_t subscribers = 0;
    std::size_t classes = 0;
    double reference_ms = 0.0;
    double engine_ms = 0.0;
    bool identical = false;
  };
  std::vector<Line> lines;

  const auto measure = [&lines](const char* shape, std::size_t n,
                                const sim::Scenario& scenario, int reps,
                                int iters) {
    const auto optimizer = scenario.make_optimizer();
    core::EvaluationEngine engine(optimizer);
    const core::OptimizerOptions options;  // kWeighted, kBoth, all regions

    Line line;
    line.shape = shape;
    line.n_regions = n;
    line.subscribers = scenario.topic.subscribers.size();
    const auto ref = optimizer.optimize_reference(scenario.topic, options);
    line.configs = ref.configs_evaluated;
    line.identical = same_result(ref, engine.optimize(scenario.topic, options));
    line.classes = engine.class_count();

    line.reference_ms = time_ms(reps, iters, [&] {
      (void)optimizer.optimize_reference(scenario.topic, options);
    });
    line.engine_ms = time_ms(5, iters, [&] {
      (void)engine.optimize(scenario.topic, options);
    });
    lines.push_back(line);
  };
  for (std::size_t n : {std::size_t{6}, std::size_t{8}, std::size_t{10}}) {
    const std::size_t per_region = std::max<std::size_t>(1, 100 / n);
    measure("fig6b", n, scaled_scenario(n, per_region, per_region, 1), 5,
            n >= 10 ? 3 : 10);
  }
  // The reference path is linear in subscribers, so it runs once here.
  measure("cohort", 10, scaled_scenario(10, 1, 2, 100), 1, 1);

  std::printf("%-8s %10s %8s %12s %8s %14s %12s %10s %10s\n", "shape",
              "n_regions", "configs", "subscribers", "classes", "reference_ms",
              "engine_ms", "speedup", "identical");
  for (const auto& line : lines) {
    std::printf("%-8s %10zu %8zu %12zu %8zu %14.3f %12.3f %9.1fx %10s\n",
                line.shape, line.n_regions, line.configs, line.subscribers,
                line.classes, line.reference_ms, line.engine_ms,
                line.reference_ms / line.engine_ms,
                line.identical ? "yes" : "NO");
  }

  bench::BenchReport report("optimizer");
  for (const auto& line : lines) {
    report.row()
        .str("shape", line.shape)
        .uinteger("n_regions", line.n_regions)
        .uinteger("configs", line.configs)
        .uinteger("subscribers", line.subscribers)
        .uinteger("classes", line.classes)
        .num("reference_ms", line.reference_ms)
        .num("engine_ms", line.engine_ms)
        .num("speedup", line.reference_ms / line.engine_ms)
        .boolean("identical", line.identical);
  }
  if (!report.write()) return 1;

  // Non-zero exit when the engine diverges, so CI can run this as a check.
  for (const auto& line : lines) {
    if (!line.identical) return 1;
  }
  return 0;
}
