#include "sim/live_runner.h"

#include <array>
#include <map>

#include "common/assert.h"
#include "common/stats.h"
#include "core/cost_model.h"
#include "net/shard_placement.h"

namespace multipub::sim {

LiveSystem::LiveSystem(const Scenario& scenario, const LiveOptions& options)
    : scenario_(&scenario), options_(options) {
  MP_EXPECTS(options.shards >= 1);
  MP_EXPECTS(options.row_bucket_ms >= 0.0);
  MP_EXPECTS((options.cohorts || options.row_bucket_ms == 0.0) &&
             "row_bucket_ms only applies to the cohort plane");
  transport_ = std::make_unique<net::SimTransport>(
      sim_, scenario.catalog, scenario.backbone,
      scenario.population.latencies);

  managers_.reserve(scenario.catalog.size());
  for (const auto& region : scenario.catalog.all()) {
    managers_.push_back(std::make_unique<broker::RegionManager>(
        region.id, sim_, *transport_));
  }

  controller_ = std::make_unique<broker::Controller>(
      scenario.catalog, scenario.backbone, scenario.population.latencies);
  controller_->set_constraint(scenario.topic.topic,
                              scenario.topic.constraint);

  publishers_.reserve(scenario.topic.publishers.size());
  for (const auto& pub : scenario.topic.publishers) {
    publishers_.push_back(std::make_unique<client::Publisher>(
        pub.client, sim_, *transport_, scenario.population.latencies));
  }
  last_interval_counts_.assign(publishers_.size(), 0);

  if (options.cohorts) {
    build_cohort_pool();
  } else {
    subscribers_.reserve(scenario.topic.subscribers.size());
    for (const auto& sub : scenario.topic.subscribers) {
      subscribers_.push_back(std::make_unique<client::Subscriber>(
          sub.client, sim_, *transport_, scenario.population.latencies));
    }
  }
  // The shard map places the flocks, so the pool must exist; arming the
  // reliability layer streams every broker's first state snapshot to its
  // standby, and sharding needs an empty event queue, so it comes last.
  if (options.shards > 1) {
    base_lookahead_ = shard_data_plane(sim_, *transport_, scenario.backbone,
                                       scenario.population.home_region,
                                       pool_.get(), options.shards);
  }
  if (options.reliable) arm_reliable();
}

broker::RegionManager& LiveSystem::region_manager(RegionId region) {
  MP_EXPECTS(region.valid() && region.index() < managers_.size());
  return *managers_[region.index()];
}

void LiveSystem::arm_reliable() {
  transport_->set_reliable_control(true);
  for (auto& manager : managers_) manager->broker().set_reliable(true);
  if (pool_ != nullptr) {
    pool_->set_reliable(true);
  } else {
    for (auto& subscriber : subscribers_) subscriber->set_reliable(true);
  }
  // Clone-pattern standby ring: every broker replicates to its
  // backbone-nearest peer (lowest region id on ties — the managers_ walk is
  // id-ascending and the comparison strict). A single-region world has no
  // peer to replicate to.
  if (managers_.size() < 2) return;
  for (auto& manager : managers_) {
    const RegionId self = manager->region();
    RegionId standby = RegionId::invalid();
    Millis best = kUnreachable;
    for (const auto& other : managers_) {
      if (other->region() == self) continue;
      const Millis l = scenario_->backbone.at(self, other->region());
      if (l < best) {
        best = l;
        standby = other->region();
      }
    }
    manager->broker().set_standby(standby);
  }
}

void LiveSystem::record_crash_losses(RegionId region) {
  const broker::Broker& crashing = region_manager(region).broker();
  for (const auto& [topic, by_publisher] : crashing.seen_publications()) {
    for (const auto& [publisher, seqs] : by_publisher) {
      for (const std::uint64_t seq : seqs) {
        bool survives = false;
        for (const auto& manager : managers_) {
          if (manager->region() == region ||
              transport_->region_down(manager->region())) {
            continue;  // a down broker's state is already gone
          }
          if (manager->broker().has_accepted(topic, publisher, seq)) {
            survives = true;
            break;
          }
        }
        if (!survives) ++crash_lost_[topic.value()];
      }
    }
  }
}

std::uint64_t LiveSystem::crash_lost(TopicId topic) const {
  const auto it = crash_lost_.find(topic.value());
  return it == crash_lost_.end() ? 0 : it->second;
}

void LiveSystem::set_region_down(RegionId region, bool down) {
  if (down == transport_->region_down(region)) return;
  if (down) {
    // Record what dies with the broker BEFORE the crash wipes it.
    if (options_.reliable) record_crash_losses(region);
    transport_->set_region_down(region, true);
    if (options_.reliable) region_manager(region).broker().crash();
    return;
  }
  transport_->set_region_down(region, false);
  if (!options_.reliable) return;
  // Recovery: the standby host streams the replica back (a no-op on every
  // other manager), and the region's subscribers re-subscribe so the
  // rebuilt table is authoritative even if the replica was stale. The
  // traffic lands on the next drain.
  for (auto& manager : managers_) {
    if (manager->region() != region) manager->broker().restore_peer(region);
  }
  if (pool_ != nullptr) {
    pool_->reconnect(region);
  } else {
    for (auto& subscriber : subscribers_) subscriber->reconnect(region);
  }
}

void LiveSystem::sync_reliable() {
  if (!options_.reliable) return;
  // Broker half first: peer rings converge (and standbys resync) before the
  // clients ask for the repaired suffixes.
  for (auto& manager : managers_) manager->broker().sync_with_peers();
  drain();
  if (pool_ != nullptr) {
    pool_->sync_replay();
  } else {
    for (auto& subscriber : subscribers_) subscriber->sync_replay();
  }
  drain();
}

Millis shard_data_plane(net::Simulator& sim, net::SimTransport& transport,
                        const geo::InterRegionLatency& backbone,
                        const std::vector<RegionId>& home_region,
                        client::CohortPool* pool, std::uint32_t shards) {
  net::ShardMap map;
  map.shards = shards;
  // Round-robin spreads the events evenly; its critical path beats the
  // topology clustering's at every K measured (DESIGN.md §14).
  map.region_shard = net::partition_regions(net::ShardPlacement::kRoundRobin,
                                            backbone, shards);
  // Clients are co-sharded with their home region: the dominant client
  // traffic (attach, publish-in, deliver-out) stays intra-shard, and the
  // home link — typically the shortest a client has — never constrains the
  // window width.
  for (const RegionId home : home_region) {
    map.client_shard.push_back(map.region_shard[home.index()]);
  }
  if (pool != nullptr) {
    // A flock's events run on its home region's shard — the same placement
    // its members would have had — and the flock universe closes here:
    // shard assignments are static.
    pool->freeze();
    for (std::size_t f = 0; f < pool->flock_count(); ++f) {
      map.cohort_shard.push_back(
          map.region_shard[pool->flock_home(static_cast<std::int32_t>(f))
                               .index()]);
    }
  }
  const Millis lookahead = transport.min_cross_shard_latency(map);
  MP_EXPECTS(lookahead > 0.0 && lookahead < kUnreachable);
  transport.set_shards(shards);
  sim.configure_shards(std::move(map), lookahead);
  return lookahead;
}

void LiveSystem::drain() {
  if (options_.shards > 1) {
    // The window width is the min cross-shard latency, shrunk by whatever
    // the current fault rules could shrink a latency by. Jitter only
    // stretches delays (factor >= 1, half-normal addend >= 0), so it needs
    // no adjustment.
    double scale = 1.0;
    if (const net::FaultPlan* plan = transport_->fault_plan()) {
      scale = plan->lookahead_scale();
    }
    sim_.set_lookahead(base_lookahead_ * scale);
  }
  sim_.run();
}

void LiveSystem::deploy(const core::TopicConfig& config) {
  const TopicId topic = scenario_->topic.topic;
  for (auto& manager : managers_) {
    manager->broker().set_topic_config(topic, config);
  }
  for (auto& publisher : publishers_) {
    publisher->set_config(topic, config);
  }
  if (pool_ != nullptr) {
    pool_->deploy(topic, config);
  } else {
    for (auto& subscriber : subscribers_) {
      subscriber->subscribe(topic, config);
    }
  }
  drain();  // let the kSubscribe handshakes land
}

void LiveSystem::build_cohort_pool() {
  const std::size_t n_clients = scenario_->population.size();
  const std::size_t n_regions = scenario_->catalog.size();
  arena_ = std::make_unique<Arena>();
  topic_sets_ = std::make_unique<client::TopicSetPool>(*arena_);
  // Exact rows (bucket 0, the default): only bit-identical latency rows
  // merge, which is what keeps the cohort plane bit-identical to the
  // per-client one. A positive bucket trades that for more folding.
  registry_ = std::make_unique<client::ClientRegistry>(
      n_clients, n_regions, options_.row_bucket_ms, *arena_);

  const TopicId topic = scenario_->topic.topic;
  const std::array<TopicId, 1> topics{topic};
  const std::int32_t topic_set = topic_sets_->intern(topics);
  std::vector<char> is_subscriber(n_clients, 0);
  for (const auto& sub : scenario_->topic.subscribers) {
    is_subscriber[sub.client.index()] = 1;
  }
  // Mirror the population 1:1 so registry ids equal scenario ClientIds.
  std::vector<Millis> row(n_regions);
  for (std::size_t c = 0; c < n_clients; ++c) {
    const ClientId id{static_cast<ClientId::underlying_type>(c)};
    for (std::size_t r = 0; r < n_regions; ++r) {
      row[r] = scenario_->population.latencies.at(
          id, RegionId{static_cast<RegionId::underlying_type>(r)});
    }
    const ClientId added =
        registry_->add(scenario_->population.home_region[c], row,
                       is_subscriber[c] != 0 ? topic_set
                                             : client::TopicSetPool::kEmpty);
    MP_EXPECTS(added == id);
  }

  pool_ = std::make_unique<client::CohortPool>(*registry_, *topic_sets_, sim_,
                                               *transport_);
  // Enrollment order = the scenario's subscriber order, so cohort and flock
  // ids are deterministic.
  for (const auto& sub : scenario_->topic.subscribers) {
    pool_->enroll(sub.client);
  }
  transport_->set_cohort_directory(pool_.get());
}

void LiveSystem::schedule_traffic(Millis start_offset_ms, double seconds,
                                  Bytes payload_bytes, double rate_hz,
                                  Rng& rng, Arrivals arrivals) {
  MP_EXPECTS(start_offset_ms >= 0.0);
  MP_EXPECTS(seconds > 0.0 && rate_hz > 0.0);
  const TopicId topic = scenario_->topic.topic;
  const double spacing_ms = 1000.0 / rate_hz;

  const Millis start = sim_.now() + start_offset_ms;
  const Millis horizon = 1000.0 * seconds;
  for (std::size_t i = 0; i < publishers_.size(); ++i) {
    client::Publisher* publisher = publishers_[i].get();
    // Owner-hinted: the publish action must run on the shard that owns the
    // publisher's client (a no-op hint on a single-threaded simulator).
    const net::Address owner = net::Address::client(publisher->id());
    auto publish_at = [&](Millis t) {
      sim_.schedule_at(start + t, owner, [publisher, topic, payload_bytes] {
        publisher->publish(topic, payload_bytes);
      });
    };

    std::uint64_t count = 0;
    if (arrivals == Arrivals::kFixedRate) {
      const double phase = rng.uniform(0.0, spacing_ms);
      count = static_cast<std::uint64_t>(seconds * rate_hz + 0.5);
      MP_EXPECTS(count >= 1);
      for (std::uint64_t k = 0; k < count; ++k) {
        publish_at(phase + static_cast<double>(k) * spacing_ms);
      }
    } else {
      // Poisson process: exponential gaps with mean spacing.
      for (Millis t = rng.exponential(spacing_ms); t < horizon;
           t += rng.exponential(spacing_ms)) {
        publish_at(t);
        ++count;
      }
      if (count == 0) {  // guarantee at least one message per publisher
        publish_at(rng.uniform(0.0, horizon));
        count = 1;
      }
    }
    last_interval_counts_[i] = count;
  }
  last_payload_bytes_ = payload_bytes;
}

LiveRunResult LiveSystem::run_interval(double seconds, Bytes payload_bytes,
                                       double rate_hz, Rng& rng) {
  if (pool_ != nullptr) {
    pool_->clear_arrivals();
  } else {
    for (auto& subscriber : subscribers_) subscriber->clear_deliveries();
  }
  schedule_traffic(0.0, seconds, payload_bytes, rate_hz, rng);
  drain();  // drain: every publication reaches every subscriber
  // Reliable mode: one sync pass per interval repairs tail losses (replayed
  // deliveries are recorded with their true, longer end-to-end delay; in a
  // clean interval nothing is missing and the pass is delivery-silent).
  sync_reliable();

  LiveRunResult result;
  if (pool_ != nullptr) {
    // Expand weighted arrivals back to per-member delivery times, in the
    // same subscriber order the per-client loop concatenates.
    for (const auto& sub : scenario_->topic.subscribers) {
      pool_->append_delivery_times(sub.client, result.delivery_times);
    }
  } else {
    for (const auto& subscriber : subscribers_) {
      const auto times = subscriber->delivery_times();
      result.delivery_times.insert(result.delivery_times.end(), times.begin(),
                                   times.end());
    }
  }
  result.publications = 0;
  for (std::uint64_t count : last_interval_counts_) {
    result.publications += count;
  }
  result.deliveries = result.delivery_times.size();
  if (!result.delivery_times.empty()) {
    result.percentile =
        percentile(result.delivery_times, scenario_->topic.constraint.ratio);
  }

  const Dollars billed = transport_->ledger().total_cost(scenario_->catalog);
  result.interval_cost = billed - billed_so_far_;
  billed_so_far_ = billed;
  result.cost_per_day = core::scale_to_day(result.interval_cost, seconds);
  return result;
}

std::vector<broker::Controller::Decision> LiveSystem::reconfigure_now(
    const core::OptimizerOptions& options) {
  for (auto& manager : managers_) {
    if (options_.incremental) {
      const broker::ReportBatch batch = manager->collect_reports();
      controller_->ingest(manager->region(), batch.reports,
                          batch.full_snapshot);
    } else {
      controller_->ingest(manager->region(), manager->collect_full_reports(),
                          /*full_snapshot=*/true);
    }
    controller_->observe_latencies(manager->region(),
                                   manager->collect_latency_reports());
  }
  auto decisions = options_.incremental
                       ? controller_->reconfigure(options)
                       : controller_->reconfigure_full(options);
  for (const auto& decision : decisions) {
    // Orphans (clients whose region died) are notified through an alive
    // region manager: their own manager cannot reach them. Pick the first
    // serving region of the new configuration — the controller already
    // excluded unavailable regions from it.
    if (!decision.orphans.empty()) {
      const RegionId notifier = decision.result.config.regions.first();
      if (pool_ != nullptr) {
        // A flock's members share a home region, so they are orphaned
        // together: one weighted notification per flock (ordered map for a
        // deterministic send order).
        std::map<std::int32_t, std::uint32_t> orphans_by_flock;
        for (ClientId orphan : decision.orphans) {
          const std::int32_t flock = pool_->flock_of(orphan, decision.topic);
          if (flock >= 0) {
            ++orphans_by_flock[flock];
          } else {
            // Publishers (and unpooled clients) keep per-client endpoints.
            region_manager(notifier).notify_client(
                decision.topic, decision.result.config, orphan);
          }
        }
        for (const auto& [flock, weight] : orphans_by_flock) {
          region_manager(notifier).notify_flock(
              decision.topic, decision.result.config, flock, weight);
        }
      } else {
        for (ClientId orphan : decision.orphans) {
          region_manager(notifier).notify_client(
              decision.topic, decision.result.config, orphan);
        }
      }
    }
    if (!decision.changed) continue;
    for (auto& manager : managers_) {
      manager->apply_config(decision.topic, decision.result.config);
    }
    // Publishers always learn the new configuration from their own region
    // manager; bootstrap-only publishers that never published yet keep the
    // deployed config via their initial set_config.
  }
  return decisions;
}

std::vector<broker::Controller::Decision> LiveSystem::control_round(
    const core::OptimizerOptions& options) {
  auto decisions = reconfigure_now(options);
  drain();  // deliver kConfigUpdate / resubscription traffic
  return decisions;
}

core::TopicState LiveSystem::observed_topic_state() const {
  core::TopicState state = scenario_->topic;
  for (std::size_t i = 0; i < state.publishers.size(); ++i) {
    state.publishers[i].msg_count = last_interval_counts_[i];
    state.publishers[i].total_bytes =
        last_interval_counts_[i] * last_payload_bytes_;
  }
  return state;
}

}  // namespace multipub::sim
