#include "node/controller_node.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <string_view>

#include "common/assert.h"
#include "common/logging.h"
#include "node/world.h"
#include "wire/topic_config.h"

namespace multipub::node {

ControllerNode::ControllerNode(const sim::Scenario& scenario,
                               const ControllerNodeOptions& options)
    : scenario_(&scenario), options_(options) {
  const std::size_t n = region_count();
  MP_EXPECTS(n >= 1);
  hello_.assign(n, false);
  broker_port_.assign(n, 0);
  done_.assign(n, false);
  bye_.assign(n, false);
  heartbeats_.assign(n, 0);
  report_lines_.assign(n, {});
  report_end_.assign(n, false);
  report_full_.assign(n, false);

  transport_.set_self_node(net::SocketTransport::kControllerNode);
  transport_.set_catalog(&scenario.catalog);
  transport_.set_batching(options.transport_batching);
  transport_.set_address_resolver(address_resolver(scenario));

  controller_ = std::make_unique<broker::Controller>(
      scenario.catalog, scenario.backbone, scenario.population.latencies);
  controller_->set_constraint(scenario.topic.topic,
                              scenario.topic.constraint);
}

bool ControllerNode::start() {
  if (!transport_.listen(options_.listen_port)) return false;
  transport_.register_handler(
      controller_address(*scenario_),
      [this](const wire::Message& msg) { handle(msg); });
  return true;
}

std::uint64_t ControllerNode::heartbeats(RegionId region) const {
  return region.valid() && region.index() < heartbeats_.size()
             ? heartbeats_[region.index()]
             : 0;
}

void ControllerNode::broadcast(const wire::Message& msg) {
  const net::Address from = controller_address(*scenario_);
  for (std::size_t r = 0; r < region_count(); ++r) {
    transport_.send(from,
                    net::Address::region(RegionId{static_cast<int>(r)}),
                    msg);
  }
}

void ControllerNode::handle(const wire::Message& msg) {
  const auto region_index = [this](std::int32_t id) -> std::optional<std::size_t> {
    if (id < 0 || static_cast<std::size_t>(id) >= region_count()) {
      return std::nullopt;
    }
    return static_cast<std::size_t>(id);
  };

  switch (msg.type) {
    case wire::MessageType::kNodeHello: {
      const auto r = region_index(msg.publisher.value());
      if (!r.has_value() || msg.key != kNodeProtocolVersion) {
        ++rejected_hellos_;
        MP_LOG_WARN("node") << "rejecting hello (region "
                            << msg.publisher.value() << ", version "
                            << msg.key << ")";
        break;
      }
      broker_port_[*r] = static_cast<std::uint16_t>(msg.seq);
      transport_.add_peer(static_cast<std::int32_t>(*r), broker_port_[*r]);
      hello_[*r] = true;
      wire::Message welcome;
      welcome.type = wire::MessageType::kNodeWelcome;
      welcome.seq = kHeartbeatIntervalMs;
      welcome.key = options_.seed;
      transport_.send(controller_address(*scenario_),
                      net::Address::region(RegionId{static_cast<int>(*r)}),
                      std::move(welcome));
      break;
    }
    case wire::MessageType::kHeartbeat: {
      const auto r = region_index(msg.publisher.value());
      if (r.has_value()) ++heartbeats_[*r];
      break;
    }
    case wire::MessageType::kPhaseDone: {
      const auto r = region_index(msg.publisher.value());
      if (r.has_value() && step_ == Step::kWaitAcks &&
          static_cast<Phase>(msg.seq) == current_phase_) {
        done_[*r] = true;
      }
      break;
    }
    case wire::MessageType::kReportPublisher: {
      const auto r = region_index(msg.subscriber.value());
      if (r.has_value()) report_lines_[*r].push_back(msg);
      break;
    }
    case wire::MessageType::kReportSubscriber: {
      const auto r = region_index(msg.publisher.value());
      if (r.has_value()) report_lines_[*r].push_back(msg);
      break;
    }
    case wire::MessageType::kReportEnd: {
      const auto r = region_index(msg.publisher.value());
      if (!r.has_value()) break;
      if (report_lines_[*r].size() != msg.seq) {
        MP_LOG_WARN("node") << "region " << *r << " reported " << msg.seq
                            << " lines, received "
                            << report_lines_[*r].size();
      }
      report_full_[*r] = (msg.key & 1) != 0;
      report_end_[*r] = true;
      break;
    }
    case wire::MessageType::kNodeBye: {
      const auto r = region_index(msg.publisher.value());
      if (r.has_value()) bye_[*r] = true;
      break;
    }
    default:
      MP_LOG_WARN("node") << "controller ignoring "
                          << wire::to_string(msg.type);
      break;
  }
}

void ControllerNode::start_phase(Phase phase) {
  current_phase_ = phase;
  std::fill(done_.begin(), done_.end(), false);
  wire::Message start;
  start.type = wire::MessageType::kPhaseStart;
  start.seq = static_cast<std::uint64_t>(phase);
  if (phase == Phase::kAttach) {
    const core::TopicConfig bootstrap = choose_bootstrap_config(*scenario_);
    start.topic = scenario_->topic.topic;
    wire::set_config(start, bootstrap);
  }
  broadcast(start);
  step_ = phase == Phase::kShutdown ? Step::kWaitByes : Step::kWaitAcks;
}

void ControllerNode::on_all_reports() {
  // Rebuild each region's ReportBatch from its key-indexed lines and ingest
  // in region-id order — the digital twin's reconfigure_now order.
  for (std::size_t r = 0; r < region_count(); ++r) {
    std::size_t report_count = 0;
    for (const auto& line : report_lines_[r]) {
      report_count = std::max(report_count,
                              static_cast<std::size_t>(line.key) + 1);
    }
    std::vector<broker::TopicReport> reports(report_count);
    for (const auto& line : report_lines_[r]) {
      broker::TopicReport& report = reports[static_cast<std::size_t>(line.key)];
      report.topic = line.topic;
      if (line.type == wire::MessageType::kReportPublisher) {
        report.publishers.push_back(
            {line.publisher, line.seq, line.payload_bytes});
      } else if (line.subscriber.value() != kEmptyReportMarker) {
        report.subscribers.push_back(line.subscriber);
      }
    }
    report_lines_[r].clear();
    const RegionId region{static_cast<int>(r)};
    controller_->ingest(region, reports, report_full_[r]);
    controller_->observe_latencies(region, {});
  }

  const auto decisions = controller_->reconfigure();
  decisions_ += decisions.size();
  for (const auto& decision : decisions) {
    if (!decision.changed) continue;
    ++changed_;
    wire::Message update;
    update.type = wire::MessageType::kConfigUpdate;
    update.topic = decision.topic;
    wire::set_config(update, decision.result.config);
    broadcast(update);
  }
}

void ControllerNode::advance() {
  switch (step_) {
    case Step::kWaitHellos: {
      if (std::find(hello_.begin(), hello_.end(), false) != hello_.end()) {
        break;
      }
      // Everyone is in: introduce each broker to every other, then settle
      // into the attach phase.
      for (std::size_t r = 0; r < region_count(); ++r) {
        wire::Message info;
        info.type = wire::MessageType::kPeerInfo;
        info.publisher = ClientId{static_cast<std::int32_t>(r)};
        info.seq = broker_port_[r];
        const net::Address from = controller_address(*scenario_);
        for (std::size_t peer = 0; peer < region_count(); ++peer) {
          if (peer == r) continue;
          transport_.send(
              from, net::Address::region(RegionId{static_cast<int>(peer)}),
              info);
        }
      }
      next_phase_ = Phase::kAttach;
      settle_until_ = transport_.now() + kPhaseSettleMs;
      step_ = Step::kSettle;
      break;
    }
    case Step::kSettle:
      if (transport_.now() >= *settle_until_) {
        settle_until_.reset();
        start_phase(next_phase_);
      }
      break;
    case Step::kWaitAcks: {
      if (std::find(done_.begin(), done_.end(), false) != done_.end()) {
        break;
      }
      if (current_phase_ == Phase::kReport &&
          std::find(report_end_.begin(), report_end_.end(), false) !=
              report_end_.end()) {
        break;  // acks in, report lines still in flight
      }
      if (current_phase_ == Phase::kReport) on_all_reports();
      next_phase_ =
          static_cast<Phase>(static_cast<std::uint64_t>(current_phase_) + 1);
      settle_until_ = transport_.now() + kPhaseSettleMs;
      step_ = Step::kSettle;
      break;
    }
    case Step::kWaitByes:
      if (std::find(bye_.begin(), bye_.end(), false) != bye_.end()) break;
      write_metrics();
      step_ = Step::kDone;
      break;
    case Step::kDone:
      break;
  }
}

bool ControllerNode::run(double deadline_ms) {
  const Millis deadline = transport_.now() + deadline_ms;
  while (step_ != Step::kDone && transport_.now() < deadline) {
    transport_.poll_once(20);
    advance();
  }
  return step_ == Step::kDone;
}

void ControllerNode::write_metrics() const {
  if (options_.metrics_path.empty()) return;
  // Hot-path telemetry (net.transport.*) first: observational only, never
  // part of the convergence contract.
  MetricsRegistry metrics = net::collect_transport_metrics(transport_);
  metrics.set("node.brokers", static_cast<double>(region_count()));
  metrics.set("controller.decisions", static_cast<double>(decisions_));
  metrics.set("controller.changed", static_cast<double>(changed_));
  metrics.set("controller.rejected_hellos",
              static_cast<double>(rejected_hellos_));
  for (std::size_t r = 0; r < heartbeats_.size(); ++r) {
    metrics.set("node.heartbeats." + std::to_string(r),
                static_cast<double>(heartbeats_[r]));
  }
  std::ofstream out(options_.metrics_path);
  out << metrics.render();
  // The deployed assignment matrix, one commented line per topic, exactly
  // as the digital twin renders it.
  const std::string matrix = controller_->render_assignment_matrix();
  std::size_t begin = 0;
  while (begin < matrix.size()) {
    std::size_t end = matrix.find('\n', begin);
    if (end == std::string::npos) end = matrix.size();
    out << "# assignment "
        << std::string_view(matrix).substr(begin, end - begin) << "\n";
    begin = end + 1;
  }
  if (!out) {
    MP_LOG_WARN("node") << "cannot write metrics to "
                        << options_.metrics_path;
  }
}

}  // namespace multipub::node
