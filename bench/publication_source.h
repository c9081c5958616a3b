// Self-rescheduling publication source shared by the data-plane benches.
#pragma once

#include <cstdint>

#include "net/simulator.h"
#include "net/transport.h"
#include "wire/message.h"

namespace multipub::bench {

/// Sends `remaining` routed 1 KiB publications of `topic` from `publisher`
/// into `entry`, 0.8 ms apart: dense enough to keep a deep in-flight
/// window, the regime a global-scale broker actually runs in. Routed intent
/// travels on the message (the broker fans out what the publication asks
/// for, not what its own config says).
struct PublicationSource {
  net::Simulator* sim;
  net::SimTransport* transport;
  TopicId topic;
  ClientId publisher;
  RegionId entry;
  std::uint64_t remaining = 0;
  std::uint64_t seq = 0;

  void fire() {
    wire::Message msg;
    msg.type = wire::MessageType::kPublish;
    msg.topic = topic;
    msg.publisher = publisher;
    msg.seq = seq++;
    msg.published_at = sim->now();
    msg.payload_bytes = 1024;
    msg.config_mode = wire::WireMode::kRouted;
    transport->send(net::Address::client(publisher),
                    net::Address::region(entry), msg);
    if (--remaining > 0) sim->schedule_after(0.8, [this] { fire(); });
  }
};

}  // namespace multipub::bench
