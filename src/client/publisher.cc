#include "client/publisher.h"

#include "common/assert.h"
#include "wire/topic_config.h"

namespace multipub::client {

Publisher::Publisher(ClientId id, net::Clock& clock, net::Bus& bus,
                     const geo::ClientLatencyMap& latencies)
    : id_(id),
      clock_(&clock),
      bus_(&bus),
      latencies_(&latencies),
      prober_(id, clock, bus) {
  MP_EXPECTS(id.valid());
  bus.register_handler(net::Address::client(id),
                       [this](const wire::Message& msg) { handle(msg); });
}

void Publisher::set_config(TopicId topic, const core::TopicConfig& config) {
  MP_EXPECTS(!config.regions.empty());
  configs_[topic] = config;
}

const core::TopicConfig* Publisher::config(TopicId topic) const {
  const auto it = configs_.find(topic);
  return it == configs_.end() ? nullptr : &it->second;
}

void Publisher::publish(TopicId topic, Bytes payload_bytes,
                        std::uint64_t key) {
  const core::TopicConfig* config = this->config(topic);
  MP_EXPECTS(config != nullptr);

  wire::Message msg;
  msg.type = wire::MessageType::kPublish;
  msg.topic = topic;
  msg.publisher = id_;
  msg.seq = seq_++;
  msg.published_at = clock_->now();
  msg.payload_bytes = payload_bytes;
  msg.key = key;
  // Stamp the fan-out intent on the message: a broker must fan a
  // routed-mode publication out to its peers even if its own configuration
  // has already moved on (reconfiguration race), and must NOT re-fan a
  // direct-mode publication the publisher already replicated itself.
  msg.config_mode = config->mode == core::DeliveryMode::kRouted
                        ? wire::WireMode::kRouted
                        : wire::WireMode::kDirect;

  const net::Address self = net::Address::client(id_);
  if (config->mode == core::DeliveryMode::kDirect) {
    for (RegionId region : config->regions) {
      bus_->send(self, net::Address::region(region), msg);
    }
  } else {
    const RegionId home = latencies_->closest_region(id_, config->regions);
    bus_->send(self, net::Address::region(home), msg);
  }
  ++published_;
}

void Publisher::handle(const wire::Message& msg) {
  if (prober_.on_message(msg)) return;
  if (msg.type != wire::MessageType::kConfigUpdate) return;
  ++config_updates_;

  const core::TopicConfig config = wire::config_of(msg);
  const TopicId topic = msg.topic;
  if (configs_.find(topic) == configs_.end()) {
    configs_[topic] = config;  // first config: nothing to hand over from
    return;
  }
  // Keep publishing on the old path for the grace window; remote
  // subscribers are still re-attaching (see class comment).
  clock_->schedule_after(wire::kHandoverGraceMs, [this, topic, config] {
    configs_[topic] = config;
  });
}

}  // namespace multipub::client
