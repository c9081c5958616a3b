#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "trace.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail summarize(std::vector<WeightedSample> samples, double max_percentile) {
  Tail out;
  for (const auto& s : samples) out.samples += s.weight;
  if (out.samples == 0) return out;
  out.p50 = weighted_percentile(samples, 50.0);
  out.tail = out.p50;
  for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0}) {
    const double beyond = static_cast<double>(out.samples) * (100.0 - p) / 100.0;
    if (p <= max_percentile && beyond >= 10.0) {
      out.tail_percentile = p;
      out.tail = weighted_percentile(std::move(samples), p);
      break;
    }
  }
  return out;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::vector<broker::Controller::Decision> bootstrap_controller(
    broker::Controller& controller, std::vector<TopicPlan>& plans,
    const std::vector<RegionId>& home_region,
    const core::OptimizerOptions& options, Tracer* tracer) {
  auto span = Tracer::span(tracer, Layer::kOptimizerBootstrap);
  std::map<std::int32_t, std::map<std::int32_t, broker::TopicReport>> views;
  for (const TopicPlan& plan : plans) {
    controller.set_constraint(plan.topic, plan.constraint);
    auto& pub_view =
        views[home_region[plan.publisher.index()].value()][plan.topic.value()];
    pub_view.topic = plan.topic;
    pub_view.publishers.push_back(
        {plan.publisher, plan.messages_per_interval,
         plan.messages_per_interval * plan.payload});
    for (const ClientId sub : plan.subscribers) {
      auto& view = views[home_region[sub.index()].value()][plan.topic.value()];
      view.topic = plan.topic;
      view.subscribers.push_back(sub);
    }
  }
  for (auto& [region, by_topic] : views) {
    std::vector<broker::TopicReport> reports;
    reports.reserve(by_topic.size());
    for (auto& [topic, report] : by_topic) reports.push_back(std::move(report));
    controller.ingest(RegionId{region}, reports);
  }
  auto decisions = controller.reconfigure(options);
  for (const auto& decision : decisions) {
    plans[decision.topic.index()].config = decision.result.config;
  }
  return decisions;
}

double configs_evaluated(
    const std::vector<broker::Controller::Decision>& decisions) {
  double total = 0.0;
  for (const auto& d : decisions) {
    total += static_cast<double>(d.result.configs_evaluated);
  }
  return total;
}

std::vector<broker::Controller::Decision> control_round(
    std::vector<std::unique_ptr<broker::RegionManager>>& managers,
    broker::Controller& controller, broker::Controller* shadow,
    const core::OptimizerOptions& options, Tracer* tracer,
    std::uint64_t* reports_out) {
  for (auto& manager : managers) {
    broker::ReportBatch batch;
    {
      auto span = Tracer::span(tracer, Layer::kRegionReport);
      batch = manager->collect_reports();
    }
    if (reports_out != nullptr) *reports_out += batch.reports.size();
    {
      auto span = Tracer::span(tracer, Layer::kControllerIngest);
      controller.ingest(manager->region(), batch.reports, batch.full_snapshot);
    }
    if (shadow != nullptr) {
      shadow->ingest(manager->region(), batch.reports, batch.full_snapshot);
    }
  }
  std::vector<broker::Controller::Decision> decisions;
  {
    auto span = Tracer::span(tracer, Layer::kControllerRound);
    decisions = controller.reconfigure(options);
  }
  auto span = Tracer::span(tracer, Layer::kDeploy);
  for (const auto& decision : decisions) {
    if (!decision.changed) continue;
    for (auto& manager : managers) {
      manager->apply_config(decision.topic, decision.result.config);
    }
  }
  return decisions;
}

double constraint_met_pct(
    const std::vector<TopicPlan>& plans,
    const std::vector<std::vector<WeightedSample>>& per_topic) {
  std::size_t measured = 0;
  std::size_t met = 0;
  for (const TopicPlan& plan : plans) {
    const auto& samples = per_topic[plan.topic.index()];
    if (samples.empty()) continue;
    ++measured;
    if (weighted_percentile(samples, plan.constraint.ratio) <=
        plan.constraint.max) {
      ++met;
    }
  }
  return measured == 0 ? 0.0
                       : 100.0 * static_cast<double>(met) /
                             static_cast<double>(measured);
}

}  // namespace perfbench
