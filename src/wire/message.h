// Protocol messages exchanged between clients, brokers, region managers and
// the controller.
//
// One Message struct covers the whole protocol; which fields are meaningful
// depends on the type (documented per enumerator). payload_bytes carries
// Omega(M) — the application payload size the cost model bills — rather than
// the bytes themselves: the simulation never needs the content, only its
// size, and this keeps a 10^6-message run allocation-free.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "geo/region_set.h"

namespace multipub::wire {

enum class MessageType : std::uint8_t {
  kSubscribe = 1,     ///< client -> broker: subscriber, topic.
  kUnsubscribe = 2,   ///< client -> broker: subscriber, topic.
  kPublish = 3,       ///< publisher -> broker: topic, seq, published_at,
                      ///< payload_bytes.
  kForward = 4,       ///< broker -> broker (routed mode): same publication
                      ///< fields as kPublish.
  kDeliver = 5,       ///< broker -> subscriber: same publication fields.
  kConfigUpdate = 6,  ///< region manager -> client: topic, config_regions,
                      ///< config_mode.
  kPing = 7,          ///< client -> broker latency probe: subscriber (the
                      ///< probing client), seq, published_at (send time).
  kPong = 8,          ///< broker -> client probe echo: same fields.
  kLatencyReport = 9, ///< client -> broker: "my one-way latency to you is
                      ///< published_at ms"; subscriber = reporting client.

  // Node lifecycle protocol (live deployment, DESIGN.md §13). These travel
  // between broker processes and the controller process; the simulated
  // plane never emits them. Region ids ride in the ClientId-typed fields
  // (publisher unless stated otherwise) — the fields are plain int32
  // carriers at this layer.
  kNodeHello = 10,        ///< broker -> controller: publisher = region id,
                          ///< seq = the broker's listening port.
  kNodeWelcome = 11,      ///< controller -> broker registration ack:
                          ///< seq = heartbeat interval ms, key = seed for
                          ///< the broker's heartbeat jitter stream.
  kPeerInfo = 12,         ///< controller -> broker: peer broker endpoint;
                          ///< publisher = region id, seq = port.
  kHeartbeat = 13,        ///< broker -> controller liveness beacon:
                          ///< publisher = region id, seq = beat counter.
  kPhaseStart = 14,       ///< controller -> broker: enter phase `seq` (see
                          ///< node/protocol.h); attach phase carries the
                          ///< bootstrap config_regions/config_mode.
  kPhaseDone = 15,        ///< broker -> controller: phase `seq` finished;
                          ///< publisher = region id.
  kReportPublisher = 16,  ///< broker -> controller report line: topic,
                          ///< publisher, seq = msg_count, payload_bytes =
                          ///< total bytes; subscriber = reporting region.
  kReportSubscriber = 17, ///< broker -> controller report line: topic,
                          ///< subscriber; publisher = reporting region.
  kReportEnd = 18,        ///< broker -> controller: report batch complete;
                          ///< publisher = region id, seq = line count,
                          ///< key bit 0 = full_snapshot.
  kNodeBye = 19,          ///< broker -> controller: graceful shutdown;
                          ///< publisher = region id.

  // Reliable-delivery protocol (DESIGN.md §15). Only emitted when the
  // reliable mode is on; the default plane never sees these kinds.
  kReplayRequest = 20,  ///< subscriber/broker -> broker: "replay topic
                        ///< `topic` from delivery_seq onward". subscriber =
                        ///< requesting client (invalid for broker-to-broker
                        ///< catch-up), key = flock id + 1 when the requester
                        ///< is a cohort member (0 otherwise), weight = the
                        ///< requester's weight. topic == -1 requests a full
                        ///< state snapshot (standby resync).
  kReplayBatch = 21,    ///< broker -> subscriber/broker: one replayed
                        ///< publication; same fields as kDeliver (including
                        ///< delivery_seq) and billed like it.
  kStateSnapshot = 22,  ///< broker -> standby/successor: one subscription
                        ///< (subscriber valid: topic, subscriber, filter,
                        ///< weight, key = flock id + 1) or one topic config
                        ///< (subscriber invalid: topic, config_regions,
                        ///< config_mode, seq = ring head) table entry;
                        ///< topic == -1 is the end-of-snapshot marker whose
                        ///< delivery_seq carries the primary's state_seq.
  kStateDelta = 23,     ///< broker -> standby: one sequenced state change
                        ///< (delivery_seq = primary state_seq). Fields as in
                        ///< kStateSnapshot; seq bit 0 distinguishes
                        ///< subscribe/install (1) from unsubscribe (0). A
                        ///< delta with an invalid topic and subscriber is a
                        ///< heartbeat restating the current state_seq.
};

[[nodiscard]] const char* to_string(MessageType type);

/// The reconfiguration handover grace (paper §III-A5, DESIGN.md §6): after a
/// kConfigUpdate, brokers keep fanning routed publications out to the old
/// serving set, publishers keep publishing on the old path, and subscribers
/// keep their old attachment for this long, so publications racing the
/// reconfiguration still reach every subscriber.
inline constexpr Millis kHandoverGraceMs = 1000.0;

/// Delivery mode on the wire (mirrors core::DeliveryMode without creating a
/// wire -> core dependency).
enum class WireMode : std::uint8_t { kDirect = 0, kRouted = 1 };

/// Inclusive key interval for content-filtered subscriptions (the paper's
/// §VII future work: "extend our model to support content-based pub/sub").
/// Publications carry a 64-bit content key; a filtered subscription only
/// receives publications whose key falls inside the interval. The default
/// interval matches everything (plain topic-based semantics).
struct KeyFilter {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};

  [[nodiscard]] bool matches(std::uint64_t key) const {
    return key >= lo && key <= hi;
  }
  [[nodiscard]] bool match_all() const {
    return lo == 0 && hi == ~std::uint64_t{0};
  }
  [[nodiscard]] static KeyFilter all() { return {}; }

  friend bool operator==(const KeyFilter&, const KeyFilter&) = default;
};

struct Message {
  MessageType type = MessageType::kPublish;
  TopicId topic;
  /// Originating publisher (kPublish/kForward/kDeliver).
  ClientId publisher;
  /// Acting subscriber (kSubscribe/kUnsubscribe) or delivery target
  /// (kDeliver).
  ClientId subscriber;
  /// Publication sequence number, unique per publisher.
  std::uint64_t seq = 0;
  /// Virtual timestamp at which the publisher emitted the publication;
  /// subscribers compute delivery time as now() - published_at.
  Millis published_at = 0.0;
  /// Omega(M): application payload size in bytes (what the tariff bills).
  Bytes payload_bytes = 0;
  /// New assignment vector (kConfigUpdate).
  geo::RegionSet config_regions;
  /// New delivery mode (kConfigUpdate).
  WireMode config_mode = WireMode::kDirect;
  /// Content key of the publication (kPublish/kForward/kDeliver).
  std::uint64_t key = 0;
  /// Content filter of a subscription (kSubscribe).
  KeyFilter filter;
  /// How many identical per-client messages this one stands for. 1 for
  /// ordinary traffic; a message to or from a cohort address carries the
  /// flock's member count, and every transport counter and billed byte is
  /// multiplied by it — which is exactly what the per-client loop would
  /// have recorded (DESIGN.md §12).
  std::uint32_t weight = 1;
  /// Reliable-delivery sequence number (DESIGN.md §15): the broker's
  /// per-topic replay-ring position on kDeliver/kForward/kReplayBatch, the
  /// resume point on kReplayRequest, the primary's state_seq on
  /// kStateSnapshot/kStateDelta. 0 everywhere when the reliable mode is off.
  std::uint64_t delivery_seq = 0;

  /// Bytes billed by the cost model when this message leaves a cloud
  /// region: the application payload for publication traffic, zero for
  /// control-plane traffic (the paper's model only bills publication
  /// dissemination).
  [[nodiscard]] Bytes billable_bytes() const;

  friend bool operator==(const Message&, const Message&) = default;
};

}  // namespace multipub::wire
