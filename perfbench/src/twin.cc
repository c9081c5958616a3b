// twin-fanout / twin-sharded: the digital twin's per-client data plane.
//
// Hundreds of topics over the EC2-2016 world, each with one publisher and a
// few dozen subscribers drawn from a synthesized population. The controller
// chooses every topic's routed configuration once, at set-up; the measured
// phase then replays one fixed publication schedule (an "epoch") again and
// again until the time is up, closing each epoch with a control round that
// finds nothing to change. Virtual-time outputs (delivery times, ledger,
// digest) come from the first epoch, so they depend on the seed alone.
//
// Subscriber endpoints are the benchmark's own handlers: client::Subscriber
// keeps every (topic, publisher, seq) it has seen for handover dedup, so its
// memory would grow with each delivery and peak_rss_mb would measure the
// run's length instead of the program.
#include <algorithm>
#include <string>

#include "broker/region_manager.h"
#include "client/publisher.h"
#include "common/rng.h"
#include "net/shard_placement.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct TwinSize {
  std::size_t topics;
  std::size_t clients_per_region;
  std::size_t subs_per_topic;
  std::uint64_t pubs_per_epoch;  ///< per topic
  std::size_t min_epochs;
};

constexpr TwinSize kFull{400, 1000, 40, 16, 3};
constexpr TwinSize kTiny{24, 40, 8, 4, 2};
constexpr Bytes kPayload = 512;
constexpr Millis kSpacingMs = 1.0;

class Twin final : public Workload {
 public:
  Twin(const Options& options, std::uint32_t shards, Tracer* tracer);
  Measurement measure(double seconds) override;
  [[nodiscard]] std::uint32_t threads() const override { return shards_; }

  /// Runs one recorded epoch and returns its digest (the K-invariance
  /// reference for twin-sharded).
  std::uint64_t reference_digest();

 private:
  struct alignas(64) Lane {
    std::uint64_t weight = 0;
    std::uint64_t config_updates = 0;
    std::vector<std::pair<std::int32_t, Millis>> times;
  };

  void run_epoch(bool record);
  std::uint64_t epoch_digest(std::vector<WeightedSample>& samples,
                             std::vector<std::vector<WeightedSample>>& per_topic);
  std::uint64_t received() const;

  Options options_;
  std::uint32_t shards_;
  Tracer* tracer_;
  TwinSize size_;
  geo::RegionCatalog catalog_ = geo::RegionCatalog::ec2_2016();
  geo::InterRegionLatency backbone_ = geo::InterRegionLatency::ec2_2016();
  geo::ClientPopulation population_;
  std::vector<TopicPlan> plans_;
  core::OptimizerOptions optimizer_options_;
  net::Simulator sim_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<TracingBus> tracing_;
  net::Bus* bus_ = nullptr;
  net::Clock* clock_ = nullptr;
  std::vector<std::unique_ptr<broker::RegionManager>> managers_;
  std::unique_ptr<broker::Controller> controller_;
  std::vector<std::unique_ptr<client::Publisher>> publishers_;
  std::vector<Lane> lanes_;
  bool recording_ = false;
  std::uint64_t expected_per_epoch_ = 0;
  double configs_evaluated_ = 0.0;
};

Twin::Twin(const Options& options, std::uint32_t shards, Tracer* tracer)
    : options_(options),
      shards_(shards),
      tracer_(tracer),
      size_(options.tiny ? kTiny : kFull) {
  Rng rng(options.seed);
  population_ = geo::synthesize_population(
      catalog_, backbone_, size_.clients_per_region, {}, rng);
  const std::size_t n_clients = population_.size();

  // Publishers are distinct clients; subscribers come from everyone else.
  std::vector<std::int32_t> order(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    order[c] = static_cast<std::int32_t>(c);
  }
  for (std::size_t i = n_clients - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(order[i], order[j]);
  }
  const std::size_t pool = n_clients - size_.topics;
  plans_.resize(size_.topics);
  for (std::size_t t = 0; t < size_.topics; ++t) {
    TopicPlan& plan = plans_[t];
    plan.topic = TopicId{static_cast<TopicId::underlying_type>(t)};
    plan.publisher = ClientId{order[pool + t]};
    plan.constraint = {95.0, rng.uniform(180.0, 300.0)};
    plan.messages_per_interval = size_.pubs_per_epoch;
    plan.payload = kPayload;
    while (plan.subscribers.size() < size_.subs_per_topic) {
      const ClientId sub{order[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool) - 1))]};
      if (std::find(plan.subscribers.begin(), plan.subscribers.end(), sub) ==
          plan.subscribers.end()) {
        plan.subscribers.push_back(sub);
      }
    }
    expected_per_epoch_ += plan.subscribers.size() * size_.pubs_per_epoch;
  }

  optimizer_options_.mode_policy = core::ModePolicy::kRoutedOnly;
  controller_ = std::make_unique<broker::Controller>(catalog_, backbone_,
                                                     population_.latencies);
  configs_evaluated_ = configs_evaluated(
      bootstrap_controller(*controller_, plans_, population_.home_region,
                           optimizer_options_, tracer_));

  transport_ = std::make_unique<net::SimTransport>(
      sim_, catalog_, backbone_, population_.latencies);
  if (shards_ > 1) {
    // The bench_dataplane recipe: topology placement of regions, clients
    // on their home region's shard, adaptive windows.
    net::ShardMap map;
    map.shards = shards_;
    map.region_shard = net::partition_regions(net::ShardPlacement::kTopology,
                                              backbone_, shards_);
    for (std::size_t c = 0; c < n_clients; ++c) {
      map.client_shard.push_back(
          map.region_shard[population_.home_region[c].index()]);
    }
    const Millis lookahead = transport_->min_cross_shard_latency(map);
    const std::vector<Millis> lookaheads =
        transport_->cross_shard_lookaheads(map);
    transport_->set_shards(shards_);
    sim_.configure_shards(std::move(map), lookahead);
    sim_.set_window_policy(net::WindowPolicy::kAdaptive);
    sim_.set_lookahead_matrix(lookaheads);
  }
  lanes_.resize(shards_);
  bus_ = transport_.get();
  clock_ = &sim_;
  if (tracer_ != nullptr) {
    tracing_ = std::make_unique<TracingBus>(*transport_, sim_, *tracer_);
    bus_ = tracing_.get();
    clock_ = tracing_.get();
  }

  for (const auto& region : catalog_.all()) {
    managers_.push_back(
        std::make_unique<broker::RegionManager>(region.id, *clock_, *bus_));
  }
  std::vector<char> registered(n_clients, 0);
  const auto handler = [this](const wire::Message& msg) {
    Lane& lane = lanes_[sim_.current_shard()];
    if (msg.type == wire::MessageType::kConfigUpdate) {
      ++lane.config_updates;
      return;
    }
    if (msg.type != wire::MessageType::kDeliver) return;
    lane.weight += msg.weight;
    if (recording_) {
      lane.times.emplace_back(msg.topic.value(), sim_.now() - msg.published_at);
    }
  };
  for (std::size_t t = 0; t < plans_.size(); ++t) {
    for (std::size_t s = 0; s < plans_[t].subscribers.size(); ++s) {
      const ClientId sub = plans_[t].subscribers[s];
      if (registered[sub.index()] != 0) continue;
      registered[sub.index()] = 1;
      if (options_.sabotage == "unregistered-subscriber" && t == 0 && s == 0) {
        continue;  // gate self-test: this subscriber's deliveries drop
      }
      bus_->register_handler(net::Address::client(sub), handler);
    }
  }

  // Deployment: configs on every broker, the publisher's config, and one
  // kSubscribe per subscriber at its closest serving region.
  {
    auto span = Tracer::span(tracer_, Layer::kDeploy);
    for (const TopicPlan& plan : plans_) {
      for (auto& manager : managers_) {
        manager->apply_config(plan.topic, plan.config);
      }
    }
  }
  for (const TopicPlan& plan : plans_) {
    publishers_.push_back(std::make_unique<client::Publisher>(
        plan.publisher, *clock_, *bus_, population_.latencies));
    publishers_.back()->set_config(plan.topic, plan.config);
    for (const ClientId sub : plan.subscribers) {
      wire::Message msg;
      msg.type = wire::MessageType::kSubscribe;
      msg.topic = plan.topic;
      msg.subscriber = sub;
      bus_->send(net::Address::client(sub),
                 net::Address::region(population_.latencies.closest_region(
                     sub, plan.config.regions)),
                 msg);
    }
  }
  auto span = Tracer::span(tracer_, Layer::kSimRun);
  sim_.run();
}

void Twin::run_epoch(bool record) {
  for (Lane& lane : lanes_) {
    lane.weight = 0;
    lane.times.clear();
  }
  recording_ = record;
  const Millis start = sim_.now() + 1.0;
  for (std::size_t t = 0; t < plans_.size(); ++t) {
    client::Publisher* pub = publishers_[t].get();
    const TopicId topic = plans_[t].topic;
    const Millis phase = static_cast<double>(t % 50) * 0.02;
    for (std::uint64_t k = 0; k < size_.pubs_per_epoch; ++k) {
      sim_.schedule_at(start + phase + static_cast<double>(k) * kSpacingMs,
                       net::Address::client(plans_[t].publisher),
                       [pub, topic] { pub->publish(topic, kPayload); });
    }
  }
  auto span = Tracer::span(tracer_, Layer::kSimRun);
  sim_.run();
}

std::uint64_t Twin::received() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.weight;
  return total;
}

std::uint64_t Twin::epoch_digest(
    std::vector<WeightedSample>& samples,
    std::vector<std::vector<WeightedSample>>& per_topic) {
  std::vector<Millis> times;
  per_topic.assign(plans_.size(), {});
  for (const Lane& lane : lanes_) {
    for (const auto& [topic, value] : lane.times) {
      times.push_back(value);
      per_topic[static_cast<std::size_t>(topic)].push_back({value, 1});
    }
  }
  std::sort(times.begin(), times.end());
  samples.clear();
  samples.reserve(times.size());
  Digest digest;
  digest.add(static_cast<std::uint64_t>(times.size()));
  for (const Millis t : times) {
    digest.add(t);
    samples.push_back({t, 1});
  }
  digest.add(transport_->sent_count());
  digest.add(transport_->dropped_count());
  for (const auto& manager : managers_) {
    digest.add(manager->broker().delivered_count());
    digest.add(manager->broker().forwarded_count());
  }
  const net::CostLedger& ledger = transport_->ledger();
  for (const Bytes b : ledger.inter_region_bytes) digest.add(b);
  for (const Bytes b : ledger.internet_bytes) digest.add(b);
  return digest.value();
}

std::uint64_t Twin::reference_digest() {
  run_epoch(true);
  std::vector<WeightedSample> samples;
  std::vector<std::vector<WeightedSample>> per_topic;
  return epoch_digest(samples, per_topic);
}

Measurement Twin::measure(double seconds) {
  Measurement m;
  const auto t_start = Clock::now();
  const std::uint64_t events_before = sim_.processed();
  const net::WindowStats windows_before = sim_.window_stats();
  const std::uint64_t sent_before = transport_->sent_count();
  const std::uint64_t dropped_before = transport_->dropped_count();
  std::uint64_t delivered_before = 0;
  std::uint64_t forwarded_before = 0;
  for (const auto& manager : managers_) {
    delivered_before += manager->broker().delivered_count();
    forwarded_before += manager->broker().forwarded_count();
  }
  double dirty = 0.0, evaluated = 0.0, skipped = 0.0, changed = 0.0;
  std::uint64_t reports = 0;
  std::size_t epochs = 0;
  while (true) {
    const bool first = epochs == 0;
    const net::CostLedger before = transport_->ledger();
    const auto t0 = Clock::now();
    run_epoch(first);
    const double wall = seconds_since(t0);
    const std::uint64_t got = received();
    m.rates.push_back(static_cast<double>(got) / wall);
    m.received += got;
    m.expected += expected_per_epoch_;
    m.deliveries += static_cast<double>(got);
    if (first) {
      const net::CostLedger& after = transport_->ledger();
      net::CostLedger delta(catalog_.size());
      for (std::size_t r = 0; r < catalog_.size(); ++r) {
        delta.inter_region_bytes[r] =
            after.inter_region_bytes[r] - before.inter_region_bytes[r];
        delta.internet_bytes[r] =
            after.internet_bytes[r] - before.internet_bytes[r];
      }
      m.billed_usd = delta.total_cost(catalog_);
      std::vector<std::vector<WeightedSample>> per_topic;
      m.digest = epoch_digest(m.delivery_ms, per_topic);
      m.constraint_met_pct = constraint_met_pct(plans_, per_topic);
      m.peak_rss_mb = peak_rss_mb();
    }
    const auto t1 = Clock::now();
    const auto decisions = control_round(managers_, *controller_, nullptr,
                                         optimizer_options_, tracer_, &reports);
    {
      auto span = Tracer::span(tracer_, Layer::kSimRun);
      sim_.run();
    }
    m.control_round_ms.push_back(ms_since(t1));
    const auto& stats = controller_->last_round_stats();
    dirty += static_cast<double>(stats.dirty);
    evaluated += static_cast<double>(stats.evaluated);
    skipped += static_cast<double>(stats.skipped_clean);
    for (const auto& d : decisions) changed += d.changed ? 1.0 : 0.0;
    ++epochs;
    if (epochs >= size_.min_epochs && seconds_since(t_start) >= seconds) break;
  }

  if (shards_ > 1) {
    // K-invariance: the first epoch must hash exactly like a fresh
    // single-threaded twin's at the same seed.
    Options reference_options = options_;
    reference_options.sabotage.clear();
    Twin reference(reference_options, 1, nullptr);
    const std::uint64_t expected = reference.reference_digest();
    if (options_.sabotage == "digest") m.digest ^= 1;
    m.notes.push_back("digest " + std::to_string(m.digest) +
                      ", single-threaded reference " +
                      std::to_string(expected));
    if (m.digest != expected) {
      m.failures.push_back("twin-sharded digest differs from twin-fanout's");
    }
  } else {
    m.notes.push_back("digest " + std::to_string(m.digest));
  }
  std::uint64_t updates = 0;
  for (const Lane& lane : lanes_) updates += lane.config_updates;
  if (updates != 0) {
    m.notes.push_back(std::to_string(updates) +
                      " config updates reached subscribers");
  }

  const double n = static_cast<double>(epochs);
  const net::WindowStats windows = sim_.window_stats();
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  for (const auto& manager : managers_) {
    delivered += manager->broker().delivered_count();
    forwarded += manager->broker().forwarded_count();
  }
  auto& layer = m.layer;
  layer["net.sim.events"] =
      static_cast<double>(sim_.processed() - events_before);
  layer["net.sim.windows"] =
      static_cast<double>(windows.windows - windows_before.windows);
  const double window_events =
      static_cast<double>(windows.events - windows_before.events);
  layer["net.sim.events_per_window"] =
      layer["net.sim.windows"] > 0 ? window_events / layer["net.sim.windows"]
                                   : 0.0;
  layer["net.sim.mail_items"] =
      static_cast<double>(windows.mail_items - windows_before.mail_items);
  layer["net.sim.barrier_parks"] = static_cast<double>(
      windows.barrier_parks - windows_before.barrier_parks);
  layer["net.transport.sent"] =
      static_cast<double>(transport_->sent_count() - sent_before);
  layer["net.transport.dropped"] =
      static_cast<double>(transport_->dropped_count() - dropped_before);
  layer["broker.delivered"] = static_cast<double>(delivered - delivered_before);
  layer["broker.forwarded"] = static_cast<double>(forwarded - forwarded_before);
  layer["core.optimizer.topics"] = static_cast<double>(plans_.size());
  layer["core.optimizer.configs_evaluated"] = configs_evaluated_;
  layer["broker.controller.dirty"] = dirty / n;
  layer["broker.controller.evaluated"] = evaluated / n;
  layer["broker.controller.skipped_clean"] = skipped / n;
  layer["broker.controller.changed_per_evaluated"] =
      evaluated > 0 ? changed / evaluated : 0.0;
  layer["broker.region_manager.reports"] = static_cast<double>(reports) / n;
  m.notes.push_back(std::to_string(epochs) + " epochs of " +
                    std::to_string(plans_.size() * size_.pubs_per_epoch) +
                    " publications");
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_twin(const Options& options,
                                    std::uint32_t shards, Tracer* tracer) {
  return std::make_unique<Twin>(options, shards, tracer);
}

}  // namespace perfbench
