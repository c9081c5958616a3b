// Publisher client endpoint.
//
// Publishes on topics according to the currently deployed configuration:
//   direct — one kPublish to every serving region (paper Fig. 1b),
//   routed — one kPublish to the closest serving region only (Fig. 1c).
//
// Configuration updates arrive as kConfigUpdate messages from region
// managers and take effect after wire::kHandoverGraceMs: if the publisher
// adopted a shrunken region set immediately, publications would stop
// reaching regions that remote subscribers are still re-attaching away from
// and be lost. Keeping the old path alive for the grace window (mirroring
// the subscriber's make-before-break) closes that race; the subscriber's
// dedup filter absorbs any resulting duplicates.
#pragma once

#include <unordered_map>

#include "client/probing.h"
#include "core/config.h"
#include "geo/latency.h"
#include "net/bus.h"

namespace multipub::client {

class Publisher {
 public:
  /// Registers at Address::client(id); clock/bus/matrices are borrowed. A
  /// client acting as both publisher and subscriber must use two distinct
  /// ClientIds (one per role), as the bus allows one handler per address.
  Publisher(ClientId id, net::Clock& clock, net::Bus& bus,
            const geo::ClientLatencyMap& latencies);

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Installs the topic configuration (bootstrap or test override).
  void set_config(TopicId topic, const core::TopicConfig& config);

  [[nodiscard]] const core::TopicConfig* config(TopicId topic) const;

  /// Publishes one message of `payload_bytes` now, tagged with a content
  /// `key` (0 when content filtering is unused). Pre: a configuration for
  /// the topic is known.
  void publish(TopicId topic, Bytes payload_bytes, std::uint64_t key = 0);

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] std::uint64_t published_count() const { return published_; }
  [[nodiscard]] std::uint64_t config_updates_received() const {
    return config_updates_;
  }

  /// Probes the given regions (kPing); measurements flow to the controller
  /// as kLatencyReports once the echoes return.
  void probe_latencies(geo::RegionSet regions) { prober_.probe(regions); }
  [[nodiscard]] const LatencyProber& prober() const { return prober_; }

 private:
  void handle(const wire::Message& msg);

  ClientId id_;
  net::Clock* clock_;
  net::Bus* bus_;
  const geo::ClientLatencyMap* latencies_;
  LatencyProber prober_;
  std::unordered_map<TopicId, core::TopicConfig> configs_;
  std::uint64_t published_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t config_updates_ = 0;
};

}  // namespace multipub::client
