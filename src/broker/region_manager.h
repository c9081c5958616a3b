// Region manager (paper §III-A3 and §III-A5).
//
// One per region. Owns the region's broker, collects its per-topic
// statistics at the end of every collection interval, and — when the
// controller deploys a new configuration — updates the broker's assignment
// matrix row and notifies the affected local clients with kConfigUpdate
// messages.
//
// Reports are DELTAS: a topic appears in a batch only when its traffic
// differs from what this manager last reported or its local subscriber set
// changed. Every kRefreshPeriod-th collection is a full snapshot
// (full_snapshot = true) so the controller can self-heal from any lost or
// reordered delta. collect_full_reports() forces the seed's unconditional
// snapshot for the non-incremental reference pipeline.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/broker.h"
#include "broker/scaling.h"
#include "core/topic_state.h"

namespace multipub::broker {

/// What one region tells the controller about one topic for one interval.
/// In a delta batch both lists are authoritative for this region: an empty
/// publisher list means the topic's traffic here stopped.
struct TopicReport {
  TopicId topic;
  /// Publishers that sent publications to this region, with their traffic.
  std::vector<core::PublisherStats> publishers;
  /// Subscribers currently attached to this region for the topic.
  std::vector<ClientId> subscribers;
};

/// One interval's reports plus whether they cover EVERY topic this region
/// knows (so the controller may drop state for topics not listed).
struct ReportBatch {
  std::vector<TopicReport> reports;
  bool full_snapshot = false;
};

class RegionManager {
 public:
  /// collect_reports() sends a full snapshot on the first collection and on
  /// every kRefreshPeriod-th one after it.
  static constexpr std::uint64_t kRefreshPeriod = 16;
  /// Cap on remembered publishers per topic (an arbitrary entry is evicted
  /// at the cap). Bounds known_publishers_ memory under publisher churn.
  static constexpr std::size_t kKnownPublisherCap = 4096;

  /// Creates the region's broker and registers it on the bus.
  RegionManager(RegionId self, net::Clock& clock, net::Bus& bus);

  RegionManager(const RegionManager&) = delete;
  RegionManager& operator=(const RegionManager&) = delete;

  [[nodiscard]] Broker& broker() { return broker_; }
  [[nodiscard]] const Broker& broker() const { return broker_; }
  [[nodiscard]] RegionId region() const { return broker_.region(); }

  /// Delta report for this interval: topics whose traffic or local
  /// membership changed since the previous collection, ordered by topic id.
  /// The first collection and every kRefreshPeriod-th one are full
  /// snapshots. Resets the broker's traffic counters.
  [[nodiscard]] ReportBatch collect_reports();

  /// The seed's unconditional snapshot of every topic with traffic or
  /// subscriptions (always a full snapshot) — the non-incremental reference
  /// path. Resets the broker's traffic counters.
  [[nodiscard]] std::vector<TopicReport> collect_full_reports();

  /// Drains the latency samples clients reported to this region this
  /// interval (for the controller's latency estimator).
  [[nodiscard]] std::vector<LatencyReport> collect_latency_reports();

  /// Intra-region elasticity (Dynamoth-lite, paper §III-A1): collect_reports
  /// feeds each interval's per-topic egress load into the scaler, which
  /// sizes this region's server pool. Purely local — placement decisions
  /// and the cost model are unaffected, as the paper assumes.
  [[nodiscard]] const IntraRegionScaler& scaler() const { return scaler_; }
  [[nodiscard]] int provisioned_servers() const {
    return scaler_.server_count();
  }

  /// Installs the new configuration on the broker and notifies every local
  /// client of the topic (current subscribers plus all publishers seen on
  /// this region) with a kConfigUpdate message.
  void apply_config(TopicId topic, const core::TopicConfig& config);

  /// Sends a kConfigUpdate for one specific client. Used for failover: a
  /// client whose region died cannot be notified by that region's manager,
  /// so the controller delegates the notification to an alive one.
  void notify_client(TopicId topic, const core::TopicConfig& config,
                     ClientId client);

  /// Cohort-plane twin of notify_client: one weighted kConfigUpdate for a
  /// whole flock (its members are identical, so they are orphaned — and
  /// re-homed — together). No-op at weight 0.
  void notify_flock(TopicId topic, const core::TopicConfig& config,
                    std::int32_t flock, std::uint32_t weight);

  [[nodiscard]] std::size_t known_publisher_count(TopicId topic) const;
  [[nodiscard]] std::size_t known_publisher_topic_count() const {
    return known_publishers_.size();
  }

 private:
  ReportBatch collect_impl(bool force_full);
  void remember_publisher(TopicId topic, ClientId publisher);
  /// Drops known_publishers_ entries for topics this region provably no
  /// longer serves and that have no local activity left.
  void prune_known_publishers();

  net::Bus* bus_;
  Broker broker_;
  IntraRegionScaler scaler_;
  /// Publishers ever seen per topic — kept across intervals so that a
  /// publisher that was quiet during the last interval still learns about
  /// configuration changes. Pruned when the topic leaves this region and
  /// capped per topic at kKnownPublisherCap.
  std::unordered_map<TopicId, std::unordered_set<ClientId>> known_publishers_;
  /// Per-topic traffic as last reported to the controller (sorted by
  /// client) — the baseline delta reports diff against.
  std::unordered_map<TopicId, std::vector<core::PublisherStats>> last_traffic_;
  std::uint64_t collections_ = 0;
};

}  // namespace multipub::broker
