// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--check-full] [--sabotage unregistered-subscriber|digest]
//             [--trace-out DIR]
//
// Workloads: live-fanout, twin-fanout, twin-sharded, twin-churn (see
// perfbench/README.md). With --trace 0 the run sets the workload up several
// times (setup_s is their median), measures for S seconds and prints every
// end-to-end metric. With --trace 1 it measures S/2 seconds untraced and
// S/2 seconds through the tracing bus, prints the per-layer table, the
// tracing overhead and every per-layer metric, and writes the span buffers
// under --trace-out. The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; a failed correctness gate makes
// the exit code 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

using namespace perfbench;

namespace {

constexpr const char* kWorkloads[] = {"live-fanout", "twin-fanout",
                                      "twin-sharded", "twin-churn"};

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench --workload "
               "live-fanout|twin-fanout|twin-sharded|twin-churn\n"
               "                 --seed N --seconds S --trace 0|1 [--tiny]\n"
               "                 [--check-full] [--sabotage KIND] "
               "[--trace-out DIR]\n",
               error);
  return 2;
}

std::unique_ptr<Workload> make(const Options& options, Tracer* tracer) {
  if (options.workload == "twin-fanout") return make_twin(options, 1, tracer);
  if (options.workload == "twin-sharded") return make_twin(options, 2, tracer);
  if (options.workload == "twin-churn") return make_churn(options, tracer);
  return make_live(options, tracer);
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", finite(metrics[i].value));
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Counts every gate needs, shared by both modes.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
};

Verdict judge(const Measurement& m) {
  Verdict v;
  v.attempted = std::max<std::uint64_t>(1, m.expected);
  // No API of the program refuses a publication, so every failure is a
  // delivery that should have arrived and did not.
  v.failed = m.expected > m.received ? m.expected - m.received : 0;
  const double failed_pct =
      100.0 * static_cast<double>(v.failed) / static_cast<double>(v.attempted);
  std::printf("failed_pct = %.6g %% (%llu of %llu expected deliveries "
              "missing)\n",
              failed_pct, static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(m.expected));
  v.correct = m.failures.empty() && v.failed == 0 && m.received == m.expected;
  if (m.received > m.expected) {
    std::printf("GATE FAILED: %llu deliveries received, %llu expected\n",
                static_cast<unsigned long long>(m.received),
                static_cast<unsigned long long>(m.expected));
  }
  if (v.failed != 0) std::printf("GATE FAILED: failed_pct is not 0\n");
  for (const auto& failure : m.failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  return v;
}

int run_measured(const Options& options) {
  const int setups = options.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    const auto t0 = Clock::now();
    workload = make(options, nullptr);
    setup_s.push_back(seconds_since(t0));
  }
  Measurement m = workload->measure(options.seconds);
  workload.reset();
  for (const auto& note : m.notes) std::printf("%s\n", note.c_str());
  const Tail tail = summarize(m.delivery_ms, m.max_tail_percentile);
  std::printf("delivery tail = p%g over %llu samples\n", tail.tail_percentile,
              static_cast<unsigned long long>(tail.samples));
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB"},
      {"deliveries_per_s", median(m.rates), "1/s"},
      {"delivery_p50_ms", tail.p50, "ms"},
      {"delivery_tail_ms", tail.tail, "ms"},
      {"billed_usd", m.billed_usd, "USD"},
      {"constraint_met_pct", m.constraint_met_pct, "%"},
      {"control_round_ms", median(m.control_round_ms), "ms"},
  };
  for (const Metric& metric : metrics) {
    std::printf("%-20s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const Verdict v = judge(m);
  print_result(v.correct, v.attempted, v.failed, metrics);
  return v.correct ? 0 : 1;
}

double ns_per(std::uint64_t ns, std::uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(calls);
}

int run_traced(const Options& options) {
  const double half = options.seconds / 2.0;
  double untraced_dps = 0.0;
  {
    auto workload = make(options, nullptr);
    const Measurement m = workload->measure(half);
    untraced_dps = median(m.rates);
  }
  Tracer tracer;
  auto workload = make(options, &tracer);
  const Tracer::LayerTotals before = tracer.totals();
  const std::uint64_t mutations_before = tracer.sub_mutations();
  Measurement m = workload->measure(half);
  const Tracer::LayerTotals after = tracer.totals();
  const std::uint32_t threads = workload->threads();
  workload.reset();

  Tracer::LayerTotals d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i].calls = after[i].calls - before[i].calls;
    d[i].total_ns = after[i].total_ns - before[i].total_ns;
    d[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  const auto at = [&d](Layer layer) -> const Tracer::Totals& {
    return d[static_cast<std::size_t>(layer)];
  };
  const double traced_dps = median(m.rates);
  const double overhead_pct =
      traced_dps > 0 ? 100.0 * (untraced_dps / traced_dps - 1.0) : 0.0;

  std::printf("%-34s %12s %14s %14s %12s\n", "layer span", "calls", "total_ms",
              "self_ms", "self_ns/call");
  for (std::size_t i = 0; i < d.size(); ++i) {
    std::printf("%-34s %12llu %14.3f %14.3f %12.1f\n",
                layer_name(static_cast<Layer>(i)),
                static_cast<unsigned long long>(d[i].calls),
                static_cast<double>(d[i].total_ns) / 1e6,
                static_cast<double>(d[i].self_ns) / 1e6,
                ns_per(d[i].self_ns, d[i].calls));
  }
  std::printf("tracing overhead: %.0f deliveries/s untraced vs %.0f traced "
              "(%.1f%% slower traced)\n",
              untraced_dps, traced_dps, overhead_pct);

  auto& layer = m.layer;
  const Tracer::Totals& run = at(Layer::kSimRun);
  const std::uint64_t middleware_ns =
      at(Layer::kBrokerHandler).self_ns + at(Layer::kClientReceive).self_ns +
      at(Layer::kCohortReceive).self_ns + at(Layer::kTransportSend).self_ns;
  const double engine_ns =
      static_cast<double>(run.total_ns) * threads -
      static_cast<double>(middleware_ns);
  layer["net.sim.run_s"] = static_cast<double>(run.total_ns) / 1e9;
  layer["net.sim.ns_per_event"] =
      layer["net.sim.events"] > 0 && run.calls > 0
          ? std::max(0.0, engine_ns) / layer["net.sim.events"]
          : 0.0;
  layer["net.transport.send_self_ns"] =
      ns_per(at(Layer::kTransportSend).self_ns, at(Layer::kTransportSend).calls);
  layer["broker.handler_self_ns"] =
      ns_per(at(Layer::kBrokerHandler).self_ns, at(Layer::kBrokerHandler).calls);
  layer["broker.sub_mutations"] =
      static_cast<double>(tracer.sub_mutations() - mutations_before);
  const Tracer::Totals& client = at(Layer::kClientReceive);
  const Tracer::Totals& cohort = at(Layer::kCohortReceive);
  layer["client.receive_self_ns"] =
      ns_per(client.self_ns + cohort.self_ns, client.calls + cohort.calls);
  const std::uint64_t rounds = at(Layer::kControllerRound).calls;
  layer["broker.controller.round_ms"] =
      ns_per(at(Layer::kControllerRound).total_ns, rounds) / 1e6;
  layer["broker.region_manager.report_ms"] =
      ns_per(at(Layer::kRegionReport).total_ns, rounds) / 1e6;
  layer["client.cohort.churn_ms"] =
      ns_per(at(Layer::kCohortChurn).total_ns, rounds) / 1e6;
  layer["core.optimizer.bootstrap_ms"] =
      static_cast<double>(
          before[static_cast<std::size_t>(Layer::kOptimizerBootstrap)]
              .total_ns) /
      1e6;
  layer["net.socket.poll_busy_ms"] =
      static_cast<double>(at(Layer::kSocketPoll).self_ns) / 1e6;
  layer["delivery.samples"] = static_cast<double>(summarize(m.delivery_ms).samples);
  layer["host.hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  layer["trace.overhead_pct"] = overhead_pct;

  static const char* const kPerLayer[][2] = {
#define PERFBENCH_LAYER_METRIC(name, unit) {name, unit},
#include "per_layer_metrics.inc"
#undef PERFBENCH_LAYER_METRIC
  };
  std::vector<Metric> metrics;
  for (const auto& entry : kPerLayer) {
    const auto it = layer.find(entry[0]);
    metrics.push_back({entry[0], it == layer.end() ? 0.0 : it->second,
                       entry[1]});
    std::printf("%-40s %.6g %s\n", entry[0], metrics.back().value, entry[1]);
  }

  std::error_code error;
  std::filesystem::create_directories(options.trace_out, error);
  const std::string path = options.trace_out + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".tsv";
  if (tracer.write(path)) {
    std::printf("%llu spans written to %s\n",
                static_cast<unsigned long long>(tracer.recorded_spans()),
                path.c_str());
  }
  const Verdict v = judge(m);
  print_result(v.correct, v.attempted, v.failed, metrics);
  return v.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--check-full") {
      options.check_full = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--sabotage" ||
               arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        have_seconds = end != v && *end == '\0' && options.seconds > 0;
      } else if (arg == "--trace") {
        options.trace = std::strcmp(v, "1") == 0;
        have_trace = std::strcmp(v, "0") == 0 || options.trace;
      } else if (arg == "--sabotage") {
        options.sabotage = v;
      } else {
        options.trace_out = v;
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) return usage(("unknown workload " + options.workload).c_str());
  std::printf("perfbench %s seed %llu, %.3g s, trace %d, %u hardware threads\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency());
  std::fflush(stdout);
  return options.trace ? run_traced(options) : run_measured(options);
}
