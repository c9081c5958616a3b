// twin-churn: the cohort plane driven through the control plane.
//
// A large subscriber population over the EC2-2016 world. Every client
// copies the latency row of one of a few archetype clients of its home
// region and picks one of a fixed set of interest profiles (Zipf-skewed
// sets of a few topics), so identical clients really fold into cohorts.
// Each round:
//   1. churn: a fixed share of topics lose a batch of members (clients of
//      one cohort, who rejoin two rounds later) or shift their publication
//      rate. The churned topics sweep all topics in one fixed order, the
//      same for every seed: a round's optimizer work grows with the size of
//      its dirty topics, so a seeded choice of topics would make
//      control_round_ms depend on the seed;
//   2. a short publication interval runs;
//   3. the control round: region managers report, Controller::reconfigure
//      re-optimises the dirty topics, changed configs deploy with handover
//      and settle. control_round_ms is its median wall time.
// Virtual-time outputs come from the first rounds, which depend on the seed
// alone. The benchmark reads delivery times through a tap on the flock
// addresses: CohortPool records arrivals per cohort, not per topic, and the
// constraint check needs them per topic.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/publisher.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "common/rng.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ChurnSize {
  std::size_t clients;
  std::size_t topics;
  std::size_t archetypes_per_region;
  std::size_t profiles;
  std::size_t churn_topics;  ///< topics touched per round
  std::size_t churn_batch;   ///< members one leave/rejoin moves
  std::size_t recorded_rounds;
  std::size_t min_rounds;
};

constexpr ChurnSize kFull{20000, 160, 2, 80, 8, 25, 4, 8};
constexpr ChurnSize kTiny{2000, 16, 2, 8, 2, 6, 2, 3};
constexpr Bytes kPayload = 256;
constexpr Millis kIntervalMs = 50.0;
constexpr std::uint64_t kBaseMessages = 1;  ///< per topic per interval
constexpr std::size_t kRejoinAfterRounds = 2;
constexpr std::uint64_t kWorldSeed = 4242;
/// Step of the churn sweep over topic indices; coprime with every size's
/// topic count, so the sweep visits every topic.
constexpr std::size_t kTopicStride = 37;

/// Delivery-time tap on the flock addresses: records (topic, time, weight)
/// of every whole-flock delivery while recording, then hands the message
/// to the pool. Everything else passes straight through.
class CohortTap final : public net::Bus {
 public:
  CohortTap(net::Bus& bus, net::Clock& clock) : bus_(&bus), clock_(&clock) {}

  void register_handler(net::Address address, Handler handler) override {
    if (address.kind != net::Address::Kind::kCohort) {
      bus_->register_handler(address, std::move(handler));
      return;
    }
    bus_->register_handler(
        address, [this, handler = std::move(handler)](const wire::Message& m) {
          if (recording && m.type == wire::MessageType::kDeliver) {
            per_topic[m.topic.index()].push_back(
                {clock_->now() - m.published_at, m.weight});
          }
          handler(m);
        });
  }
  void unregister_handler(net::Address address) override {
    bus_->unregister_handler(address);
  }
  void send(net::Address from, net::Address to, wire::Message msg) override {
    bus_->send(from, to, std::move(msg));
  }
  void send_batch(net::Address from, std::span<const net::Address> targets,
                  const wire::Message& msg,
                  wire::MessageType stamped_type) override {
    bus_->send_batch(from, targets, msg, stamped_type);
  }
  void set_cohort_directory(const net::CohortDirectory* directory) override {
    bus_->set_cohort_directory(directory);
  }
  [[nodiscard]] const net::CohortDirectory* cohort_directory() const override {
    return bus_->cohort_directory();
  }

  bool recording = false;
  std::vector<std::vector<WeightedSample>> per_topic;

 private:
  net::Bus* bus_;
  net::Clock* clock_;
};

class Churn final : public Workload {
 public:
  Churn(const Options& options, Tracer* tracer);
  Measurement measure(double seconds) override;

 private:
  struct Pending {
    std::size_t rejoin_round;
    TopicId topic;
    std::vector<ClientId> members;
  };

  void churn(std::size_t round);
  void publish_interval();

  Options options_;
  Tracer* tracer_;
  ChurnSize size_;
  geo::RegionCatalog catalog_ = geo::RegionCatalog::ec2_2016();
  geo::InterRegionLatency backbone_ = geo::InterRegionLatency::ec2_2016();
  geo::ClientLatencyMap latencies_;
  std::vector<RegionId> home_;
  std::vector<std::vector<TopicId>> client_topics_;
  /// Clients grouped by (home, archetype, profile): one group is one
  /// initial cohort, and a join batch is drawn from a single group.
  std::vector<std::vector<ClientId>> groups_;
  /// Per topic: the groups of two or more clients whose profile holds it.
  std::vector<std::vector<std::size_t>> groups_of_topic_;
  std::vector<TopicPlan> plans_;
  std::vector<std::uint64_t> members_;   ///< per topic, ground truth
  std::vector<std::uint64_t> messages_;  ///< per topic per interval
  Rng churn_rng_;
  std::vector<Pending> pending_;
  core::OptimizerOptions optimizer_options_;

  net::Simulator sim_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<TracingBus> tracing_;
  std::unique_ptr<CohortTap> tap_;
  net::Clock* clock_ = nullptr;
  Arena arena_;
  std::unique_ptr<client::TopicSetPool> topic_sets_;
  std::unique_ptr<client::ClientRegistry> registry_;
  std::unique_ptr<client::CohortPool> pool_;
  std::vector<std::unique_ptr<broker::RegionManager>> managers_;
  std::unique_ptr<broker::Controller> controller_;
  std::unique_ptr<broker::Controller> shadow_;
  std::vector<std::unique_ptr<client::Publisher>> publishers_;
  double configs_evaluated_ = 0.0;
};

Churn::Churn(const Options& options, Tracer* tracer)
    : options_(options),
      tracer_(tracer),
      size_(options.tiny ? kTiny : kFull),
      latencies_(geo::RegionCatalog::ec2_2016().size()),
      churn_rng_(options.seed * 7919 + 17) {
  // The world — archetype latency rows, interest profiles, publishers and
  // constraints — is fixed; the seed draws the population and the churn
  // from it, so topic sizes and optimizer work stay alike from seed to seed.
  Rng world(kWorldSeed);
  Rng rng(options.seed);
  const std::size_t n_regions = catalog_.size();
  const geo::ClientPopulation archetypes = geo::synthesize_population(
      catalog_, backbone_, size_.archetypes_per_region, {}, world);
  std::vector<std::vector<ClientId>> by_region(n_regions);
  for (std::size_t c = 0; c < archetypes.size(); ++c) {
    by_region[archetypes.home_region[c].index()].push_back(
        ClientId{static_cast<ClientId::underlying_type>(c)});
  }

  const auto zipf = [](Rng& rng, std::size_t n, double s) -> std::size_t {
    double total = 0.0;
    for (std::size_t i = 1; i <= n; ++i) total += 1.0 / std::pow(i, s);
    double u = rng.uniform(0.0, total);
    for (std::size_t i = 1; i <= n; ++i) {
      u -= 1.0 / std::pow(i, s);
      if (u <= 0.0) return i - 1;
    }
    return n - 1;
  };
  // Interest profiles: profile p holds every topic t with t % profiles ==
  // p, plus one Zipf-popular head topic; clients pick profiles Zipf-skewed.
  std::vector<std::vector<TopicId>> profiles(size_.profiles);
  for (std::size_t t = 0; t < size_.topics; ++t) {
    profiles[t % size_.profiles].push_back(
        TopicId{static_cast<TopicId::underlying_type>(t)});
  }
  for (auto& profile : profiles) {
    const TopicId head{static_cast<TopicId::underlying_type>(
        zipf(world, size_.topics, 1.0))};
    if (std::find(profile.begin(), profile.end(), head) == profile.end()) {
      profile.push_back(head);
    }
    std::sort(profile.begin(), profile.end(),
              [](TopicId a, TopicId b) { return a.value() < b.value(); });
  }

  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t>
      group_of;
  client_topics_.resize(size_.clients);
  for (std::size_t c = 0; c < size_.clients; ++c) {
    const auto home = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_regions) - 1));
    const auto archetype = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(size_.archetypes_per_region) - 1));
    const std::size_t profile = zipf(rng, size_.profiles, 0.8);
    const ClientId id =
        latencies_.add_client(archetypes.latencies.row(by_region[home][archetype]));
    home_.push_back(RegionId{static_cast<RegionId::underlying_type>(home)});
    client_topics_[c] = profiles[profile];
    const auto key = std::make_tuple(home, archetype, profile);
    const auto [it, fresh] = group_of.emplace(key, groups_.size());
    if (fresh) groups_.emplace_back();
    groups_[it->second].push_back(id);
  }
  groups_of_topic_.resize(size_.topics);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].size() < 2) continue;
    for (const TopicId t : client_topics_[groups_[g].front().index()]) {
      groups_of_topic_[t.index()].push_back(g);
    }
  }

  plans_.resize(size_.topics);
  members_.assign(size_.topics, 0);
  messages_.assign(size_.topics, kBaseMessages);
  for (std::size_t c = 0; c < size_.clients; ++c) {
    for (const TopicId t : client_topics_[c]) {
      plans_[t.index()].subscribers.push_back(
          ClientId{static_cast<ClientId::underlying_type>(c)});
      ++members_[t.index()];
    }
  }
  for (std::size_t t = 0; t < size_.topics; ++t) {
    TopicPlan& plan = plans_[t];
    plan.topic = TopicId{static_cast<TopicId::underlying_type>(t)};
    const auto region = static_cast<std::size_t>(
        world.uniform_int(0, static_cast<std::int64_t>(n_regions) - 1));
    plan.publisher = latencies_.add_client(
        archetypes.latencies.row(by_region[region][0]));
    home_.push_back(RegionId{static_cast<RegionId::underlying_type>(region)});
    plan.constraint = {95.0, world.uniform(180.0, 300.0)};
    plan.messages_per_interval = kBaseMessages;
    plan.payload = kPayload;
  }

  optimizer_options_.mode_policy = core::ModePolicy::kRoutedOnly;
  controller_ = std::make_unique<broker::Controller>(catalog_, backbone_,
                                                     latencies_);
  configs_evaluated_ = configs_evaluated(bootstrap_controller(
      *controller_, plans_, home_, optimizer_options_, tracer_));
  if (options_.check_full) {
    shadow_ = std::make_unique<broker::Controller>(catalog_, backbone_,
                                                   latencies_);
    (void)bootstrap_controller(*shadow_, plans_, home_, optimizer_options_,
                               nullptr);
  }

  transport_ = std::make_unique<net::SimTransport>(sim_, catalog_, backbone_,
                                                   latencies_);
  net::Bus* bus = transport_.get();
  clock_ = &sim_;
  if (tracer_ != nullptr) {
    tracing_ = std::make_unique<TracingBus>(*transport_, sim_, *tracer_);
    bus = tracing_.get();
    clock_ = tracing_.get();
  }
  tap_ = std::make_unique<CohortTap>(*bus, *clock_);
  tap_->per_topic.resize(size_.topics);

  {
    auto span = Tracer::span(tracer_, Layer::kCohortEnrol);
    topic_sets_ = std::make_unique<client::TopicSetPool>(arena_);
    registry_ = std::make_unique<client::ClientRegistry>(
        latencies_.n_clients(), n_regions, /*row_bucket_ms=*/0.0, arena_);
    pool_ = std::make_unique<client::CohortPool>(*registry_, *topic_sets_,
                                                 *clock_, *tap_);
    for (std::size_t c = 0; c < latencies_.n_clients(); ++c) {
      const ClientId id{static_cast<ClientId::underlying_type>(c)};
      const bool subscriber = c < size_.clients;
      registry_->add(home_[c], latencies_.row(id),
                     subscriber ? topic_sets_->intern(client_topics_[c])
                                : client::TopicSetPool::kEmpty);
      if (subscriber) pool_->enroll(id);
    }
    tap_->set_cohort_directory(pool_.get());
  }

  for (const auto& region : catalog_.all()) {
    managers_.push_back(
        std::make_unique<broker::RegionManager>(region.id, *clock_, *tap_));
  }
  {
    auto span = Tracer::span(tracer_, Layer::kDeploy);
    for (const TopicPlan& plan : plans_) {
      for (auto& manager : managers_) {
        manager->apply_config(plan.topic, plan.config);
      }
    }
  }
  {
    auto span = Tracer::span(tracer_, Layer::kCohortEnrol);
    for (const TopicPlan& plan : plans_) pool_->deploy(plan.topic, plan.config);
  }
  for (const TopicPlan& plan : plans_) {
    publishers_.push_back(std::make_unique<client::Publisher>(
        plan.publisher, *clock_, *tap_, latencies_));
    publishers_.back()->set_config(plan.topic, plan.config);
  }
  auto span = Tracer::span(tracer_, Layer::kSimRun);
  sim_.run();
}

void Churn::churn(std::size_t round) {
  auto span = Tracer::span(tracer_, Layer::kCohortChurn);
  // Members who left two rounds ago rejoin, back into their own cohort.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->rejoin_round != round) {
      ++it;
      continue;
    }
    const core::TopicConfig* config = controller_->deployed_config(it->topic);
    for (const ClientId c : it->members) {
      pool_->subscribe_client(c, it->topic, *config);
      client_topics_[c.index()].push_back(it->topic);
      ++members_[it->topic.index()];
    }
    it = pending_.erase(it);
  }
  for (std::size_t i = 0; i < size_.churn_topics; ++i) {
    const std::size_t t =
        (round * size_.churn_topics + i) * kTopicStride % size_.topics;
    if (i % 2 == 1) {
      std::uint64_t& m = messages_[t];
      m = m == kBaseMessages ? 2 * kBaseMessages : kBaseMessages;
      continue;
    }
    // A batch of one cohort's members leaves the topic. The cohort keeps at
    // least one member, so it keeps following config updates and the batch
    // can rejoin it (CohortPool::subscribe_client only joins cohorts whose
    // flocks are all attached).
    const auto& candidates = groups_of_topic_[t];
    if (candidates.empty()) continue;
    const auto& group = groups_[candidates[static_cast<std::size_t>(
        churn_rng_.uniform_int(
            0, static_cast<std::int64_t>(candidates.size()) - 1))]];
    const auto& profile = client_topics_[group.front().index()];
    const TopicId topic{static_cast<TopicId::underlying_type>(t)};
    Pending batch{round + kRejoinAfterRounds, topic, {}};
    for (std::size_t k = 1; k < group.size(); ++k) {
      if (batch.members.size() == size_.churn_batch) break;
      const ClientId c = group[k];
      auto& topics = client_topics_[c.index()];
      // Only members still on their whole profile: one away from another
      // topic would rejoin into a cohort that may not be deployed.
      if (topics.size() != profile.size()) continue;
      const auto it = std::find(topics.begin(), topics.end(), topic);
      pool_->unsubscribe_client(c, topic);
      topics.erase(it);
      --members_[topic.index()];
      batch.members.push_back(c);
    }
    if (!batch.members.empty()) pending_.push_back(std::move(batch));
  }
}

void Churn::publish_interval() {
  const Millis start = sim_.now() + 1.0;
  for (std::size_t t = 0; t < plans_.size(); ++t) {
    client::Publisher* pub = publishers_[t].get();
    const TopicId topic = plans_[t].topic;
    const Millis spacing = kIntervalMs / static_cast<double>(messages_[t]);
    const Millis phase = static_cast<double>(t % 20) * 0.1;
    for (std::uint64_t k = 0; k < messages_[t]; ++k) {
      sim_.schedule_at(start + phase + static_cast<double>(k) * spacing,
                       [pub, topic] { pub->publish(topic, kPayload); });
    }
  }
  auto span = Tracer::span(tracer_, Layer::kSimRun);
  sim_.run();
}

Measurement Churn::measure(double seconds) {
  Measurement m;
  const auto t_start = Clock::now();
  const std::uint64_t events_before = sim_.processed();
  const std::uint64_t sent_before = transport_->sent_count();
  const std::uint64_t dropped_before = transport_->dropped_count();
  std::uint64_t delivered_before = 0;
  std::uint64_t forwarded_before = 0;
  for (const auto& manager : managers_) {
    delivered_before += manager->broker().delivered_count();
    forwarded_before += manager->broker().forwarded_count();
  }
  const net::CostLedger ledger_before = transport_->ledger();
  std::uint64_t data_events = 0;
  double dirty = 0.0, evaluated = 0.0, skipped = 0.0, changed = 0.0;
  std::uint64_t reports = 0;
  std::size_t round = 0;
  while (true) {
    const bool record = round < size_.recorded_rounds;
    churn(round);
    {
      auto span = Tracer::span(tracer_, Layer::kSimRun);
      sim_.run();  // settle the members' subscriptions
    }

    pool_->clear_arrivals();
    tap_->recording = record;
    std::uint64_t expected = 0;
    for (std::size_t t = 0; t < plans_.size(); ++t) {
      expected += messages_[t] * members_[t];
    }
    const std::uint64_t events0 = sim_.processed();
    const auto t0 = Clock::now();
    publish_interval();
    const double wall = seconds_since(t0);
    data_events += sim_.processed() - events0;
    tap_->recording = false;
    const std::uint64_t got = pool_->interval_delivery_weight();
    m.expected += expected;
    m.received += got;
    m.deliveries += static_cast<double>(got);
    m.rates.push_back(static_cast<double>(got) / wall);

    const auto t1 = Clock::now();
    const auto decisions = control_round(managers_, *controller_, shadow_.get(),
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
    for (const auto& d : decisions) {
      if (!d.changed) continue;
      changed += 1.0;
      plans_[d.topic.index()].config = d.result.config;
      publishers_[d.topic.index()]->set_config(d.topic, d.result.config);
    }
    ++round;
    if (round == size_.recorded_rounds) {
      const net::CostLedger& after = transport_->ledger();
      net::CostLedger delta(catalog_.size());
      for (std::size_t r = 0; r < catalog_.size(); ++r) {
        delta.inter_region_bytes[r] =
            after.inter_region_bytes[r] - ledger_before.inter_region_bytes[r];
        delta.internet_bytes[r] =
            after.internet_bytes[r] - ledger_before.internet_bytes[r];
      }
      m.billed_usd = delta.total_cost(catalog_);
      m.peak_rss_mb = peak_rss_mb();
    }
    if (round >= std::max(size_.min_rounds, size_.recorded_rounds) &&
        seconds_since(t_start) >= seconds) {
      break;
    }
  }

  for (const auto& samples : tap_->per_topic) {
    m.delivery_ms.insert(m.delivery_ms.end(), samples.begin(), samples.end());
  }
  m.constraint_met_pct = constraint_met_pct(plans_, tap_->per_topic);

  if (shadow_ != nullptr) {
    (void)shadow_->reconfigure_full(optimizer_options_);
    const bool same = shadow_->render_assignment_matrix() ==
                      controller_->render_assignment_matrix();
    m.notes.push_back(std::string("full-scan check: assignment matrix ") +
                      (same ? "identical" : "DIFFERS"));
    if (!same) {
      m.failures.push_back(
          "incremental assignment matrix differs from reconfigure_full()");
    }
  }

  double weight = 0.0;
  double live_flocks = 0.0;
  for (std::size_t f = 0; f < pool_->flock_count(); ++f) {
    const std::uint32_t w = pool_->flock_weight(static_cast<std::int32_t>(f));
    weight += w;
    live_flocks += w > 0 ? 1.0 : 0.0;
  }
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  for (const auto& manager : managers_) {
    delivered += manager->broker().delivered_count();
    forwarded += manager->broker().forwarded_count();
  }
  const double n = static_cast<double>(round);
  auto& layer = m.layer;
  layer["net.sim.events"] = static_cast<double>(sim_.processed() - events_before);
  layer["net.transport.sent"] =
      static_cast<double>(transport_->sent_count() - sent_before);
  layer["net.transport.dropped"] =
      static_cast<double>(transport_->dropped_count() - dropped_before);
  layer["broker.delivered"] = static_cast<double>(delivered - delivered_before);
  layer["broker.forwarded"] = static_cast<double>(forwarded - forwarded_before);
  layer["client.cohort.flocks"] = static_cast<double>(pool_->flock_count());
  layer["client.cohort.clients_per_flock"] =
      live_flocks > 0 ? weight / live_flocks : 0.0;
  layer["client.cohort.events_per_kdelivery"] =
      m.deliveries > 0 ? 1000.0 * static_cast<double>(data_events) / m.deliveries
                       : 0.0;
  layer["client.cohort.reconnect_weight"] =
      static_cast<double>(pool_->reconnect_weight());
  layer["client.cohort.duplicate_weight"] =
      static_cast<double>(pool_->duplicate_weight());
  layer["core.optimizer.topics"] = static_cast<double>(plans_.size());
  layer["core.optimizer.configs_evaluated"] = configs_evaluated_;
  layer["broker.controller.dirty"] = dirty / n;
  layer["broker.controller.evaluated"] = evaluated / n;
  layer["broker.controller.skipped_clean"] = skipped / n;
  layer["broker.controller.changed_per_evaluated"] =
      evaluated > 0 ? changed / evaluated : 0.0;
  layer["broker.region_manager.reports"] = static_cast<double>(reports) / n;
  m.notes.push_back(std::to_string(round) + " rounds, " +
                    std::to_string(pool_->cohort_count()) + " cohorts, " +
                    std::to_string(pool_->flock_count()) + " flocks");
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_churn(const Options& options, Tracer* tracer) {
  return std::make_unique<Churn>(options, tracer);
}

}  // namespace perfbench
