// Shared plumbing of the end-to-end benchmark: options, the result record
// every workload fills, timing, statistics, and the controller bootstrap and
// control round the workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/controller.h"
#include "broker/region_manager.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/config.h"
#include "geo/king_synth.h"
#include "geo/latency.h"
#include "geo/region.h"

namespace perfbench {

using namespace multipub;

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests (seconds of wall time).
  bool tiny = false;
  /// Gate self-tests: "unregistered-subscriber" leaves one subscriber
  /// handler unregistered; "digest" perturbs twin-sharded's digest.
  std::string sabotage;
  /// twin-churn: also feed a shadow controller the same reports and check
  /// that reconfigure_full() reproduces the final assignment matrix.
  bool check_full = false;
  /// Where the traced run writes its span buffers.
  std::string trace_out = ".bench_build/traces";
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one measured phase produced. Workloads fill what applies;
/// main() turns it into the printed metrics.
struct Measurement {
  double deliveries = 0.0;  ///< weighted subscriber deliveries received
  /// Delivery rate (1/s) of each timed chunk: an epoch, a publication
  /// interval, or a capacity period. deliveries_per_s is their median, so a
  /// transient stall of the host moves one chunk, not the result.
  std::vector<double> rates;
  std::vector<WeightedSample> delivery_ms;  ///< for p50 / tail
  /// Highest percentile the tail may use. Wall-clock latencies cap it: on a
  /// shared host, stalls of several milliseconds land in every run's top 1%
  /// and decide any higher percentile.
  double max_tail_percentile = 99.99;
  double billed_usd = 0.0;
  double constraint_met_pct = 0.0;
  std::vector<double> control_round_ms;
  std::uint64_t expected = 0;  ///< weighted deliveries that should arrive
  std::uint64_t received = 0;  ///< weighted deliveries that did arrive
  /// Peak RSS at the end of the measured phase's fixed-work part (set-up
  /// plus the recorded epochs/rounds/open-loop phase). Read there, not at
  /// exit, so memory the program keeps per delivery does not make a faster
  /// program look bigger.
  double peak_rss_mb = 0.0;
  /// Canonical hash of counters, ledgers and delivery times (twin only).
  std::uint64_t digest = 0;
  /// Correctness gates that failed, one line each.
  std::vector<std::string> failures;
  /// Per-layer counts read from public accessors (reported when traced).
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

// ---- timing

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// ---- statistics

[[nodiscard]] double median(std::vector<double> values);

/// Delivery-time summary: the median and the highest percentile of
/// {99.99, 99.9, 99, 95, 90, 50}, at most `max_percentile`, that leaves at
/// least 10 samples beyond it.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;
  std::uint64_t samples = 0;
};
[[nodiscard]] Tail summarize(std::vector<WeightedSample> samples,
                             double max_percentile = 99.99);

/// FNV-1a accumulator for the K-invariance digest.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// ---- world

/// One topic of a twin workload: who publishes, who subscribes, what the
/// application asks of delivery time, and what the controller deployed.
struct TopicPlan {
  TopicId topic;
  ClientId publisher;
  std::vector<ClientId> subscribers;
  core::DeliveryConstraint constraint;
  std::uint64_t messages_per_interval = 0;
  Bytes payload = 0;
  core::TopicConfig config;
};

/// Feeds the controller one home-region report per region describing every
/// topic's ground truth, then runs its first reconfigure round: the
/// bootstrap optimisation of every topic. Fills each plan's config and
/// returns the decisions. Traced runs record the call as the optimizer's
/// bootstrap span.
std::vector<broker::Controller::Decision> bootstrap_controller(
    broker::Controller& controller, std::vector<TopicPlan>& plans,
    const std::vector<RegionId>& home_region,
    const core::OptimizerOptions& options, Tracer* tracer);

/// Sum of OptimizerResult::configs_evaluated over the decisions.
[[nodiscard]] double configs_evaluated(
    const std::vector<broker::Controller::Decision>& decisions);

/// One control round over the managers: reports ingested, the incremental
/// reconfigure, changed configs applied on every manager. Returns the
/// decisions; `shadow`, when set, ingests the identical batches. Traced runs
/// time each stage under its layer.
std::vector<broker::Controller::Decision> control_round(
    std::vector<std::unique_ptr<broker::RegionManager>>& managers,
    broker::Controller& controller, broker::Controller* shadow,
    const core::OptimizerOptions& options, Tracer* tracer,
    std::uint64_t* reports_out = nullptr);

/// Percent of topics whose measured ratio_T percentile meets max_T, from
/// per-topic delivery samples indexed by topic value.
[[nodiscard]] double constraint_met_pct(
    const std::vector<TopicPlan>& plans,
    const std::vector<std::vector<WeightedSample>>& per_topic);

}  // namespace perfbench
