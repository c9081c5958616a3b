#include "broker/region_manager.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/assert.h"
#include "common/logging.h"
#include "wire/topic_config.h"

namespace multipub::broker {

namespace {

bool same_stats(const std::vector<core::PublisherStats>& a,
                const std::vector<core::PublisherStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].client != b[i].client || a[i].msg_count != b[i].msg_count ||
        a[i].total_bytes != b[i].total_bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace

RegionManager::RegionManager(RegionId self, net::Clock& clock, net::Bus& bus)
    : bus_(&bus), broker_(self, clock, bus) {}

std::size_t RegionManager::known_publisher_count(TopicId topic) const {
  const auto it = known_publishers_.find(topic);
  return it == known_publishers_.end() ? 0 : it->second.size();
}

void RegionManager::remember_publisher(TopicId topic, ClientId publisher) {
  auto& known = known_publishers_[topic];
  if (known.size() >= kKnownPublisherCap && known.count(publisher) == 0) {
    known.erase(known.begin());  // bounded memory beats perfect recall
  }
  known.insert(publisher);
}

ReportBatch RegionManager::collect_reports() {
  return collect_impl(/*force_full=*/false);
}

std::vector<TopicReport> RegionManager::collect_full_reports() {
  return collect_impl(/*force_full=*/true).reports;
}

ReportBatch RegionManager::collect_impl(bool force_full) {
  const bool full = force_full || collections_ % kRefreshPeriod == 0;
  ++collections_;

  // This interval's traffic, sorted per topic for deterministic reports.
  std::map<TopicId, std::vector<core::PublisherStats>> current;
  for (const auto& [topic, traffic] : broker_.traffic()) {
    auto& pubs = current[topic];
    pubs.reserve(traffic.size());
    for (const auto& [publisher, observed] : traffic) {
      pubs.push_back({publisher, observed.msg_count, observed.total_bytes});
      remember_publisher(topic, publisher);
    }
    std::sort(pubs.begin(), pubs.end(),
              [](const core::PublisherStats& a, const core::PublisherStats& b) {
                return a.client < b.client;
              });
  }

  // Which topics make the report: everything for a full snapshot; for a
  // delta, topics whose traffic changed (including dropping to zero) plus
  // topics with membership changes.
  std::set<TopicId> topics;
  if (full) {
    for (const auto& [topic, pubs] : current) topics.insert(topic);
    for (TopicId topic : broker_.subscriptions().topics()) {
      topics.insert(topic);
    }
  } else {
    for (const auto& [topic, pubs] : current) {
      const auto it = last_traffic_.find(topic);
      if (it == last_traffic_.end() || !same_stats(it->second, pubs)) {
        topics.insert(topic);
      }
    }
    for (const auto& [topic, pubs] : last_traffic_) {
      if (current.count(topic) == 0) topics.insert(topic);  // went quiet
    }
    for (TopicId topic : broker_.membership_changes()) {
      topics.insert(topic);
    }
  }

  ReportBatch batch;
  batch.full_snapshot = full;
  batch.reports.reserve(topics.size());
  const net::CohortDirectory* dir = bus_->cohort_directory();
  for (TopicId topic : topics) {
    TopicReport report;
    report.topic = topic;
    if (const auto it = current.find(topic); it != current.end()) {
      report.publishers = it->second;
    }
    if (dir != nullptr) {
      // Cohort plane: expand flock entries back to member client ids — the
      // controller's view stays per-client (it canonicalizes by sorting, so
      // the expansion order is immaterial).
      for (const Subscription& sub :
           broker_.subscriptions().subscriptions(topic)) {
        const auto members = dir->flock_members(sub.subscriber.value());
        report.subscribers.insert(report.subscribers.end(), members.begin(),
                                  members.end());
      }
    } else {
      report.subscribers = broker_.subscriptions().subscriber_ids(topic);
    }
    batch.reports.push_back(std::move(report));
  }

  // Dynamoth-lite: resize this region's server pool for the observed load —
  // from the COMPLETE current traffic, not the delta, so steady topics keep
  // their server assignments. Load model: egress-dominated — inbound bytes
  // fanned out to each local subscriber.
  std::vector<TopicLoad> loads;
  loads.reserve(current.size());
  for (const auto& [topic, pubs] : current) {
    double inbound = 0.0;
    for (const auto& pub : pubs) {
      inbound += static_cast<double>(pub.total_bytes);
    }
    // Local fan-out degree: per-client entries count 1 each; a flock entry
    // counts its live member weight.
    std::size_t fanout = 0;
    for (const Subscription& sub :
         broker_.subscriptions().subscriptions(topic)) {
      fanout += dir != nullptr ? dir->flock_weight(sub.subscriber.value()) : 1;
    }
    loads.push_back({topic, inbound * static_cast<double>(1 + fanout)});
  }
  scaler_.rebalance(loads);

  last_traffic_.clear();
  for (auto& [topic, pubs] : current) {
    last_traffic_.emplace(topic, std::move(pubs));
  }
  broker_.reset_traffic();
  broker_.clear_membership_changes();
  prune_known_publishers();
  return batch;
}

void RegionManager::prune_known_publishers() {
  for (auto it = known_publishers_.begin(); it != known_publishers_.end();) {
    const TopicId topic = it->first;
    const core::TopicConfig* config = broker_.topic_config(topic);
    const bool serves_here =
        config == nullptr || config->regions.contains(region());
    const bool active =
        last_traffic_.count(topic) > 0 ||
        !broker_.subscriptions().subscriptions(topic).empty();
    // Only prune when the deployed configuration PROVES the topic moved away
    // and nothing local still depends on it: quiet publishers of topics we
    // do serve must keep hearing about config changes.
    if (!serves_here && !active) {
      it = known_publishers_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<LatencyReport> RegionManager::collect_latency_reports() {
  std::vector<LatencyReport> out = broker_.latency_reports();
  broker_.clear_latency_reports();
  return out;
}

void RegionManager::apply_config(TopicId topic,
                                 const core::TopicConfig& config) {
  // Publishers that appeared since the last report collection must hear
  // about the change too — fold the broker's in-progress interval into the
  // notification set before broadcasting.
  if (const auto it = broker_.traffic().find(topic);
      it != broker_.traffic().end()) {
    for (const auto& [publisher, observed] : it->second) {
      remember_publisher(topic, publisher);
    }
  }
  broker_.set_topic_config(topic, config);

  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = topic;
  wire::set_config(update, config);

  const net::Address self = net::Address::region(region());
  // Notify local subscribers (by-reference view; no per-call vector)...
  const net::CohortDirectory* dir = bus_->cohort_directory();
  for (const Subscription& sub : broker_.subscriptions().subscriptions(topic)) {
    if (dir != nullptr) {
      // One weighted update per flock — the per-client plane would have
      // sent one copy per member.
      const std::uint32_t weight = dir->flock_weight(sub.subscriber.value());
      if (weight == 0) continue;
      update.weight = weight;
      bus_->send(self, net::Address::cohort(sub.subscriber.value()),
                       update);
      update.weight = 1;
      continue;
    }
    bus_->send(self, net::Address::client(sub.subscriber), update);
  }
  // ...and every publisher this region has ever served for the topic.
  if (const auto it = known_publishers_.find(topic);
      it != known_publishers_.end()) {
    for (ClientId publisher : it->second) {
      bus_->send(self, net::Address::client(publisher), update);
    }
  }
  MP_LOG_INFO("region-manager")
      << "R" << region().value() + 1 << " deployed topic "
      << topic.value() << " -> " << config.to_string();
}

void RegionManager::notify_client(TopicId topic,
                                  const core::TopicConfig& config,
                                  ClientId client) {
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = topic;
  wire::set_config(update, config);
  bus_->send(net::Address::region(region()),
                   net::Address::client(client), update);
}

void RegionManager::notify_flock(TopicId topic, const core::TopicConfig& config,
                                 std::int32_t flock, std::uint32_t weight) {
  if (weight == 0) return;
  wire::Message update;
  update.type = wire::MessageType::kConfigUpdate;
  update.topic = topic;
  wire::set_config(update, config);
  update.weight = weight;
  bus_->send(net::Address::region(region()), net::Address::cohort(flock),
                   update);
}

}  // namespace multipub::broker
