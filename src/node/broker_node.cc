#include "node/broker_node.h"

#include <fstream>

#include "common/assert.h"
#include "common/logging.h"
#include "node/world.h"
#include "wire/topic_config.h"

namespace multipub::node {

BrokerNode::BrokerNode(const sim::Scenario& scenario, RegionId self,
                       const BrokerNodeOptions& options)
    : scenario_(&scenario), self_(self), options_(options) {
  MP_EXPECTS(self.valid() &&
             self.index() < scenario.catalog.size());
  MP_EXPECTS(options.time_scale > 0.0);
  transport_.set_self_node(self.value());
  transport_.set_catalog(&scenario.catalog);
  transport_.set_batching(options.transport_batching);
  transport_.set_address_resolver(address_resolver(scenario));
}

bool BrokerNode::start() {
  if (!transport_.listen(options_.listen_port)) return false;
  transport_.add_peer(net::SocketTransport::kControllerNode,
                      options_.controller_port);

  // The manager registers the broker at Address::region(self_); wrap that
  // handler so lifecycle traffic is consumed here.
  manager_ = std::make_unique<broker::RegionManager>(self_, transport_,
                                                     transport_);
  if (options_.reliable) manager_->broker().set_reliable(true);
  transport_.register_handler(net::Address::region(self_),
                              [this](const wire::Message& msg) {
                                handle(msg);
                              });

  // This region's client endpoints live in this process.
  for (const auto& pub : scenario_->topic.publishers) {
    if (scenario_->population.home_region[pub.client.index()] != self_) {
      continue;
    }
    publishers_.push_back(std::make_unique<client::Publisher>(
        pub.client, transport_, transport_, scenario_->population.latencies));
  }
  for (const auto& sub : scenario_->topic.subscribers) {
    if (scenario_->population.home_region[sub.client.index()] != self_) {
      continue;
    }
    subscribers_.push_back(std::make_unique<client::Subscriber>(
        sub.client, transport_, transport_, scenario_->population.latencies));
    if (options_.reliable) subscribers_.back()->set_reliable(true);
  }

  wire::Message hello;
  hello.type = wire::MessageType::kNodeHello;
  hello.seq = transport_.port();
  hello.key = kNodeProtocolVersion;
  send_to_controller(std::move(hello));
  return true;
}

void BrokerNode::send_to_controller(wire::Message msg) {
  // The reporting region rides in the publisher field — except on
  // kReportPublisher lines, whose publisher field carries the actual
  // publishing client (the region is in `subscriber` there; see
  // wire/message.h).
  if (msg.type == wire::MessageType::kReportPublisher) {
    msg.subscriber = ClientId{self_.value()};
  } else {
    msg.publisher = ClientId{self_.value()};
  }
  transport_.send(net::Address::region(self_), controller_address(*scenario_),
                  std::move(msg));
}

void BrokerNode::phase_done(Phase phase) {
  wire::Message done;
  done.type = wire::MessageType::kPhaseDone;
  done.seq = static_cast<std::uint64_t>(phase);
  send_to_controller(std::move(done));
}

void BrokerNode::beat() {
  if (shutdown_complete_) return;
  wire::Message beat_msg;
  beat_msg.type = wire::MessageType::kHeartbeat;
  beat_msg.seq = heartbeat_seq_++;
  send_to_controller(std::move(beat_msg));
  transport_.schedule_after(static_cast<Millis>(heartbeat_interval_ms_),
                            [this] { beat(); });
}

void BrokerNode::handle(const wire::Message& msg) {
  switch (msg.type) {
    case wire::MessageType::kNodeWelcome: {
      if (welcomed_) break;
      welcomed_ = true;
      heartbeat_interval_ms_ = msg.seq == 0 ? kHeartbeatIntervalMs : msg.seq;
      // Seeded start offset staggers the brokers' beats apart.
      const std::uint64_t offset =
          (msg.key + static_cast<std::uint64_t>(self_.value()) * 7919) %
          heartbeat_interval_ms_;
      transport_.schedule_after(static_cast<Millis>(offset),
                                [this] { beat(); });
      break;
    }
    case wire::MessageType::kPeerInfo:
      transport_.add_peer(msg.publisher.value(),
                          static_cast<std::uint16_t>(msg.seq));
      break;
    case wire::MessageType::kPhaseStart:
      switch (static_cast<Phase>(msg.seq)) {
        case Phase::kAttach:
          on_attach(msg);
          break;
        case Phase::kTraffic:
          on_traffic();
          break;
        case Phase::kReport:
          on_report();
          break;
        case Phase::kShutdown:
          on_shutdown();
          break;
      }
      break;
    case wire::MessageType::kConfigUpdate: {
      // The wire form of RegionManager::apply_config: the controller
      // deploys a changed decision to every region.
      manager_->apply_config(msg.topic, wire::config_of(msg));
      break;
    }
    default:
      manager_->broker().handle(msg);
      break;
  }
}

void BrokerNode::on_attach(const wire::Message& msg) {
  const core::TopicConfig config = wire::config_of(msg);
  const TopicId topic = scenario_->topic.topic;
  manager_->broker().set_topic_config(topic, config);
  for (auto& publisher : publishers_) publisher->set_config(topic, config);
  for (auto& subscriber : subscribers_) subscriber->subscribe(topic, config);
  pending_ack_ = Phase::kAttach;  // acked once the handshakes quiesced
}

void BrokerNode::on_traffic() {
  const TopicId topic = scenario_->topic.topic;
  // Expected per-publisher count is what the scenario's TopicState already
  // carries (build_scenario fills msg_count = messages_per_interval, the
  // same rounding the digital twin's fixed-rate scheduler applies).
  const double interval_ms =
      1000.0 * scenario_->interval_seconds / options_.time_scale;
  publications_expected_ = 0;
  publications_done_ = 0;
  std::size_t index = 0;
  for (auto& publisher : publishers_) {
    std::uint64_t count = 0;
    Bytes bytes = 1024;
    for (const auto& pub : scenario_->topic.publishers) {
      if (pub.client == publisher->id()) {
        count = pub.msg_count;
        bytes = pub.total_bytes / pub.msg_count;
        break;
      }
    }
    MP_EXPECTS(count >= 1);
    publications_expected_ += count;
    const double spacing_ms = interval_ms / static_cast<double>(count);
    // Deterministic phase stagger; only the count must match the twin.
    const double phase = spacing_ms * static_cast<double>(index + 1) /
                         static_cast<double>(publishers_.size() + 1);
    client::Publisher* raw = publisher.get();
    for (std::uint64_t k = 0; k < count; ++k) {
      transport_.schedule_after(phase + static_cast<double>(k) * spacing_ms,
                                [this, raw, topic, bytes] {
                                  raw->publish(topic, bytes);
                                  ++publications_done_;
                                });
    }
    ++index;
  }
  // Acked by advance() once every local publication is out AND the loop
  // quiesced — a subscriber-only region acks when inbound traffic stops.
  pending_ack_ = Phase::kTraffic;
}

void BrokerNode::on_report() {
  const broker::ReportBatch batch = manager_->collect_reports();
  std::uint64_t lines = 0;
  std::uint64_t report_index = 0;
  for (const auto& report : batch.reports) {
    bool empty = true;
    for (const auto& stats : report.publishers) {
      wire::Message line;
      line.type = wire::MessageType::kReportPublisher;
      line.topic = report.topic;
      line.publisher = stats.client;
      line.seq = stats.msg_count;
      line.payload_bytes = stats.total_bytes;
      line.key = report_index;
      send_to_controller(std::move(line));
      ++lines;
      empty = false;
    }
    for (const ClientId subscriber : report.subscribers) {
      wire::Message line;
      line.type = wire::MessageType::kReportSubscriber;
      line.topic = report.topic;
      line.subscriber = subscriber;
      line.key = report_index;
      send_to_controller(std::move(line));
      ++lines;
      empty = false;
    }
    if (empty) {
      wire::Message marker;
      marker.type = wire::MessageType::kReportSubscriber;
      marker.topic = report.topic;
      marker.subscriber = ClientId{kEmptyReportMarker};
      marker.key = report_index;
      send_to_controller(std::move(marker));
      ++lines;
    }
    ++report_index;
  }
  wire::Message end;
  end.type = wire::MessageType::kReportEnd;
  end.seq = lines;
  end.key = batch.full_snapshot ? 1 : 0;
  send_to_controller(std::move(end));
  phase_done(Phase::kReport);
}

void BrokerNode::on_shutdown() {
  // Defer the epilogue to advance(): give in-flight stragglers a short
  // window to land before the counters are frozen into the metrics file.
  shutdown_at_ = transport_.now() + 2.0 * kPhaseSettleMs;
}

void BrokerNode::advance() {
  if (shutdown_at_.has_value()) {
    if (transport_.now() < *shutdown_at_) return;
    shutdown_at_.reset();
    write_metrics();
    wire::Message bye;
    bye.type = wire::MessageType::kNodeBye;
    send_to_controller(std::move(bye));
    // One more pass so the bye leaves the socket before the loop stops.
    transport_.poll_once(10);
    shutdown_complete_ = true;
    return;
  }
  if (!pending_ack_.has_value()) return;
  if (*pending_ack_ == Phase::kTraffic &&
      publications_done_ < publications_expected_) {
    return;
  }
  if (transport_.now() - last_activity_ < kQuiesceIdleMs) return;
  phase_done(*pending_ack_);
  pending_ack_.reset();
}

void BrokerNode::write_metrics() const {
  if (options_.metrics_path.empty()) return;
  // Hot-path telemetry (net.transport.*) first: observational only, never
  // part of the convergence contract.
  MetricsRegistry metrics = net::collect_transport_metrics(transport_);
  std::uint64_t publications = 0;
  for (const auto& publisher : publishers_) {
    publications += publisher->published_count();
  }
  std::uint64_t deliveries = 0;
  std::uint64_t duplicates = 0;
  for (const auto& subscriber : subscribers_) {
    deliveries += subscriber->deliveries().size();
    duplicates += subscriber->duplicate_count();
  }
  metrics.set("clients.publications", static_cast<double>(publications));
  metrics.set("clients.deliveries", static_cast<double>(deliveries));
  metrics.set("clients.duplicates", static_cast<double>(duplicates));
  const broker::Broker& broker = manager_->broker();
  metrics.set("broker.delivered",
              static_cast<double>(broker.delivered_count()));
  metrics.set("broker.forwarded",
              static_cast<double>(broker.forwarded_count()));
  metrics.set("node.heartbeats_sent", static_cast<double>(heartbeat_seq_));
  metrics.set("transport.inter_region_bytes",
              static_cast<double>(transport_.inter_region_bytes(self_)));
  metrics.set("transport.internet_bytes",
              static_cast<double>(transport_.internet_bytes(self_)));
  std::ofstream out(options_.metrics_path);
  out << metrics.render();
  if (!out) {
    MP_LOG_WARN("node") << "cannot write metrics to "
                        << options_.metrics_path;
  }
}

bool BrokerNode::run(double deadline_ms) {
  const Millis deadline = transport_.now() + deadline_ms;
  while (!shutdown_complete_ && transport_.now() < deadline) {
    if (transport_.poll_once(20) > 0) last_activity_ = transport_.now();
    advance();
  }
  return shutdown_complete_;
}

}  // namespace multipub::node
