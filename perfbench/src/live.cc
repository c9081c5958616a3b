// live-fanout: the real socket path, polled by one thread.
//
// Four in-process SocketTransport nodes on loopback:
//   node 0  publisher node (one client::Publisher per topic)
//   node 1  entry broker: region A's RegionManager/Broker on the socket
//           Clock/Bus
//   node 2  second serving broker: region B, which receives routed forwards
//   node 3  subscriber node, hosting every subscriber address with the
//           benchmark's own receive handlers
// The controller chooses each topic's routed configuration over {A, B} at
// set-up; subscribers are synthesized around both regions and the
// constraint is tight enough that most topics need both. Wire encode and
// decode, socket flush/read and broker fan-out do most of the work.
//
// The measured phase has two parts. Open loop: publications fall due at a
// fixed offered rate (LiveSize::offered_rate, well below capacity) and one
// delivery per publication is timed from the publication's due time to its
// receipt — one process, so one clock. Capacity: the generator runs
// unthrottled with a bounded in-flight window, with a control round every
// kRoundEveryS.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "broker/region_manager.h"
#include "client/publisher.h"
#include "common/rng.h"
#include "net/socket_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct LiveSize {
  std::size_t topics;
  std::size_t subs_per_topic;
  double offered_rate;  ///< publications per second in the open loop
};

constexpr LiveSize kFull{64, 48, 4000.0};
constexpr LiveSize kTiny{8, 6, 500.0};
constexpr Bytes kPayload = 200;
constexpr std::uint64_t kWindow = 16384;  ///< deliveries in flight, capacity
constexpr double kWarmupS = 0.2;
constexpr double kRoundEveryS = 0.2;
constexpr double kStallS = 20.0;  ///< a phase that cannot drain fails
constexpr int kNodes = 4;
constexpr std::int32_t kPublisherNode = 0;
constexpr std::int32_t kSubscriberNode = 3;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

class Live final : public Workload {
 public:
  Live(const Options& options, Tracer* tracer);
  Measurement measure(double seconds) override;

 private:
  void poll_all();
  /// Polls until `done()` holds; false after kStallS without it.
  template <class Done>
  bool settle(Done done);
  void publish(std::size_t topic);
  [[nodiscard]] std::uint64_t in_flight() const { return expected_ - received_; }

  Tracer* tracer_;
  LiveSize size_;
  geo::RegionCatalog catalog_ = geo::RegionCatalog::ec2_2016();
  geo::InterRegionLatency backbone_ = geo::InterRegionLatency::ec2_2016();
  RegionId region_a_;
  RegionId region_b_;
  geo::ClientLatencyMap latencies_;
  std::vector<RegionId> home_;
  std::vector<TopicPlan> plans_;
  core::OptimizerOptions optimizer_options_;
  std::unique_ptr<broker::Controller> controller_;
  std::vector<std::unique_ptr<net::SocketTransport>> nodes_;
  std::vector<std::unique_ptr<TracingBus>> tracing_;
  std::vector<std::unique_ptr<broker::RegionManager>> managers_;
  std::vector<std::unique_ptr<client::Publisher>> publishers_;

  // Generator and receive state.
  std::vector<std::vector<double>> due_ms_;  ///< per topic, by seq
  std::uint64_t expected_ = 0;
  std::uint64_t received_ = 0;
  bool recording_ = false;
  std::vector<std::vector<WeightedSample>> latency_;  ///< per topic
  std::vector<std::uint64_t> published_;  ///< per topic, open loop only
  bool counting_ = false;
};

Live::Live(const Options& options, Tracer* tracer)
    : tracer_(tracer),
      size_(options.tiny ? kTiny : kFull),
      region_a_(catalog_.find("us-east-1")),
      region_b_(catalog_.find("ap-northeast-1")),
      latencies_(catalog_.size()) {
  Rng rng(options.seed);
  // Publishers homed at A; each topic's subscribers split between A and B.
  const std::size_t n_pubs = size_.topics;
  const std::size_t n_subs = size_.topics * size_.subs_per_topic;
  const auto local = [&](RegionId home, std::size_t count) {
    const geo::ClientPopulation pop = geo::synthesize_local_population(
        catalog_, backbone_, home, count, {}, rng);
    for (std::size_t c = 0; c < pop.size(); ++c) {
      latencies_.add_client(pop.latencies.row(
          ClientId{static_cast<ClientId::underlying_type>(c)}));
      home_.push_back(home);
    }
  };
  local(region_a_, n_pubs);
  local(region_a_, n_subs / 2);
  local(region_b_, n_subs - n_subs / 2);
  std::vector<ClientId> subs;
  for (std::size_t c = n_pubs; c < n_pubs + n_subs; ++c) {
    subs.push_back(ClientId{static_cast<ClientId::underlying_type>(c)});
  }
  for (std::size_t i = subs.size() - 1; i > 0; --i) {
    std::swap(subs[i], subs[static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  plans_.resize(size_.topics);
  for (std::size_t t = 0; t < size_.topics; ++t) {
    TopicPlan& plan = plans_[t];
    plan.topic = TopicId{static_cast<TopicId::underlying_type>(t)};
    plan.publisher = ClientId{static_cast<ClientId::underlying_type>(t)};
    plan.constraint = {90.0, rng.uniform(120.0, 140.0)};
    plan.messages_per_interval = 100;
    plan.payload = kPayload;
    plan.subscribers.assign(
        subs.begin() + static_cast<std::ptrdiff_t>(t * size_.subs_per_topic),
        subs.begin() +
            static_cast<std::ptrdiff_t>((t + 1) * size_.subs_per_topic));
  }
  optimizer_options_.mode_policy = core::ModePolicy::kRoutedOnly;
  optimizer_options_.candidates =
      geo::RegionSet::single(region_a_).with(region_b_);
  controller_ = std::make_unique<broker::Controller>(catalog_, backbone_,
                                                     latencies_);
  (void)bootstrap_controller(*controller_, plans_, home_, optimizer_options_,
                             tracer_);

  // Nodes: listen, learn every peer, resolve addresses to hosting nodes.
  const RegionId a = region_a_;
  const RegionId b = region_b_;
  const auto resolver = [a, b, n_pubs](net::Address to) -> std::int32_t {
    if (to.kind == net::Address::Kind::kRegion) {
      return to.id == a.value() ? 1 : to.id == b.value() ? 2 : -2;
    }
    return static_cast<std::size_t>(to.id) < n_pubs ? kPublisherNode
                                                    : kSubscriberNode;
  };
  for (int n = 0; n < kNodes; ++n) {
    auto node = std::make_unique<net::SocketTransport>();
    node->set_self_node(n);
    node->set_address_resolver(resolver);
    node->set_catalog(&catalog_);
    if (!node->listen(0)) {
      std::fprintf(stderr, "cannot listen on loopback\n");
      std::exit(1);
    }
    nodes_.push_back(std::move(node));
  }
  for (int n = 0; n < kNodes; ++n) {
    for (int peer = 0; peer < kNodes; ++peer) {
      if (peer != n) nodes_[n]->add_peer(peer, nodes_[peer]->port());
    }
  }
  std::vector<net::Bus*> bus(kNodes);
  std::vector<net::Clock*> clock(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    bus[n] = nodes_[n].get();
    clock[n] = nodes_[n].get();
    if (tracer_ != nullptr) {
      tracing_.push_back(
          std::make_unique<TracingBus>(*nodes_[n], *nodes_[n], *tracer_));
      bus[n] = tracing_.back().get();
      clock[n] = tracing_.back().get();
    }
  }

  managers_.push_back(
      std::make_unique<broker::RegionManager>(region_a_, *clock[1], *bus[1]));
  managers_.push_back(
      std::make_unique<broker::RegionManager>(region_b_, *clock[2], *bus[2]));
  due_ms_.resize(plans_.size());
  latency_.resize(plans_.size());
  published_.assign(plans_.size(), 0);
  for (const TopicPlan& plan : plans_) {
    for (auto& manager : managers_) {
      manager->apply_config(plan.topic, plan.config);
    }
    publishers_.push_back(std::make_unique<client::Publisher>(
        plan.publisher, *clock[kPublisherNode], *bus[kPublisherNode],
        latencies_));
    publishers_.back()->set_config(plan.topic, plan.config);
  }
  net::Bus& sub_bus = *bus[kSubscriberNode];
  std::size_t subscriptions = 0;
  for (const TopicPlan& plan : plans_) {
    const std::size_t fanout = plan.subscribers.size();
    for (std::size_t i = 0; i < fanout; ++i) {
      const ClientId sub = plan.subscribers[i];
      // One timed delivery per publication, rotating over the subscribers:
      // a publication's deliveries stall together, so timing all of them
      // would make the tail one publication's worst moment.
      sub_bus.register_handler(
          net::Address::client(sub),
          [this, i, fanout](const wire::Message& msg) {
            if (msg.type != wire::MessageType::kDeliver) return;
            ++received_;
            if (recording_ && msg.seq % fanout == i) {
              const auto t = msg.topic.index();
              latency_[t].push_back({now_ms() - due_ms_[t][msg.seq], 1});
            }
          });
      wire::Message msg;
      msg.type = wire::MessageType::kSubscribe;
      msg.topic = plan.topic;
      msg.subscriber = sub;
      sub_bus.send(net::Address::client(sub),
                   net::Address::region(
                       latencies_.closest_region(sub, plan.config.regions)),
                   msg);
      ++subscriptions;
    }
  }
  const bool settled = settle([&] {
    std::size_t held = 0;
    for (const auto& manager : managers_) {
      held += manager->broker().subscriptions().subscription_count();
    }
    return held == subscriptions;
  });
  if (!settled) {
    std::fprintf(stderr, "live-fanout: subscriptions did not settle\n");
    std::exit(1);
  }
}

void Live::poll_all() {
  for (auto& node : nodes_) {
    auto span = Tracer::span(tracer_, Layer::kSocketPoll);
    node->poll_once(0);
  }
}

template <class Done>
bool Live::settle(Done done) {
  const auto t0 = Clock::now();
  while (!done()) {
    if (seconds_since(t0) > kStallS) return false;
    poll_all();
  }
  return true;
}

void Live::publish(std::size_t topic) {
  due_ms_[topic].push_back(now_ms());
  publishers_[topic]->publish(plans_[topic].topic, kPayload);
  expected_ += plans_[topic].subscribers.size();
  if (counting_) ++published_[topic];
}

Measurement Live::measure(double seconds) {
  Measurement m;
  std::vector<net::TransportStats> stats_before;
  std::uint64_t sent_before = 0;
  for (const auto& node : nodes_) {
    stats_before.push_back(node->stats());
    sent_before += node->sent_count();
  }
  std::uint64_t delivered_before = 0;
  std::uint64_t forwarded_before = 0;
  for (const auto& manager : managers_) {
    delivered_before += manager->broker().delivered_count();
    forwarded_before += manager->broker().forwarded_count();
  }
  const auto drained = [this] { return in_flight() == 0; };
  std::size_t next_topic = 0;

  // Warm-up: fault in send segments and decoder buffers.
  const auto warm = Clock::now();
  while (seconds_since(warm) < kWarmupS) {
    while (in_flight() < kWindow) publish(next_topic++ % plans_.size());
    poll_all();
  }
  if (!settle(drained)) m.failures.push_back("warm-up traffic did not drain");

  // Open loop at the fixed offered rate.
  const double open_s = 0.45 * seconds;
  const auto n_open =
      static_cast<std::uint64_t>(size_.offered_rate * open_s + 0.5);
  const double spacing_ms = 1000.0 / size_.offered_rate;
  std::vector<Bytes> inter_before(catalog_.size()), internet_before(catalog_.size());
  for (std::size_t r = 0; r < catalog_.size(); ++r) {
    const RegionId id{static_cast<RegionId::underlying_type>(r)};
    for (const auto& node : nodes_) {
      inter_before[r] += node->inter_region_bytes(id);
      internet_before[r] += node->internet_bytes(id);
    }
  }
  const std::uint64_t expected_open0 = expected_;
  const std::uint64_t received_open0 = received_;
  std::vector<double> lag_ms;
  lag_ms.reserve(n_open);
  recording_ = true;
  counting_ = true;
  const double start_ms = now_ms() + 1.0;
  std::uint64_t sent = 0;
  while (sent < n_open) {
    const double now = now_ms();
    while (sent < n_open &&
           start_ms + static_cast<double>(sent) * spacing_ms <= now) {
      const double due = start_ms + static_cast<double>(sent) * spacing_ms;
      const std::size_t topic = next_topic++ % plans_.size();
      publish(topic);
      due_ms_[topic].back() = due;  // time from when it was due
      lag_ms.push_back(now_ms() - due);
      ++sent;
    }
    poll_all();
  }
  if (!settle(drained)) m.failures.push_back("open-loop traffic did not drain");
  recording_ = false;
  counting_ = false;
  m.expected += expected_ - expected_open0;
  m.received += received_ - received_open0;
  m.peak_rss_mb = peak_rss_mb();

  // Billing: meters must equal what the deployed configs imply.
  std::vector<Bytes> want_inter(catalog_.size(), 0);
  std::vector<Bytes> want_internet(catalog_.size(), 0);
  for (std::size_t t = 0; t < plans_.size(); ++t) {
    const core::TopicConfig& config = plans_[t].config;
    const Bytes n = published_[t];
    if (config.mode == core::DeliveryMode::kRouted) {
      const RegionId entry =
          latencies_.closest_region(plans_[t].publisher, config.regions);
      want_inter[entry.index()] +=
          n * static_cast<Bytes>(config.region_count() - 1) * kPayload;
    }
    for (const ClientId sub : plans_[t].subscribers) {
      want_internet[latencies_.closest_region(sub, config.regions).index()] +=
          n * kPayload;
    }
  }
  double billed = 0.0;
  for (std::size_t r = 0; r < catalog_.size(); ++r) {
    const RegionId id{static_cast<RegionId::underlying_type>(r)};
    Bytes inter = 0, internet = 0;
    for (const auto& node : nodes_) {
      inter += node->inter_region_bytes(id);
      internet += node->internet_bytes(id);
    }
    inter -= inter_before[r];
    internet -= internet_before[r];
    if (inter != want_inter[r] || internet != want_internet[r]) {
      m.failures.push_back("billed bytes of " + catalog_.at(id).name +
                           " differ from what the deployed configs imply");
    }
    billed += static_cast<double>(inter) * catalog_.at(id).alpha_per_byte() +
              static_cast<double>(internet) * catalog_.at(id).beta_per_byte();
  }
  m.billed_usd = billed;
  for (const auto& samples : latency_) {
    m.delivery_ms.insert(m.delivery_ms.end(), samples.begin(), samples.end());
  }
  m.constraint_met_pct = constraint_met_pct(plans_, latency_);
  m.max_tail_percentile = 95.0;

  // Capacity: unthrottled behind a bounded in-flight window, with a
  // control round every kRoundEveryS (not counted as capacity time).
  const double cap_s = 0.45 * seconds;
  const std::uint64_t expected_cap0 = expected_;
  const std::uint64_t received_cap0 = received_;
  double cap_wall = 0.0;
  const double round_every = std::min(kRoundEveryS, cap_s / 4);
  std::uint64_t chunk_received = received_;
  auto t0 = Clock::now();
  while (cap_wall + seconds_since(t0) < cap_s) {
    while (in_flight() < kWindow) publish(next_topic++ % plans_.size());
    poll_all();
    if (seconds_since(t0) >= round_every) {
      const double chunk = seconds_since(t0);
      cap_wall += chunk;
      m.rates.push_back(static_cast<double>(received_ - chunk_received) /
                        chunk);
      // Reports, reconfigure and deploy are in-process calls; the round
      // sends nothing, so no poll belongs to it.
      const auto t1 = Clock::now();
      const auto decisions = control_round(managers_, *controller_, nullptr,
                                           optimizer_options_, tracer_);
      m.control_round_ms.push_back(ms_since(t1));
      for (const auto& d : decisions) {
        if (d.changed) m.failures.push_back("a config changed under steady load");
      }
      chunk_received = received_;
      t0 = Clock::now();
    }
  }
  if (!settle(drained)) m.failures.push_back("capacity traffic did not drain");
  m.deliveries = static_cast<double>(received_ - received_cap0);
  m.expected += expected_ - expected_cap0;
  m.received += received_ - received_cap0;

  std::sort(lag_ms.begin(), lag_ms.end());
  auto& layer = m.layer;
  layer["gen.lag_p99_ms"] =
      lag_ms.empty() ? 0.0 : lag_ms[lag_ms.size() * 99 / 100];
  double flush_syscalls = 0, frames = 0, flushes = 0, reads = 0, bytes = 0,
         high_water = 0, frames_received = 0, sent_total = 0, dropped = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const net::TransportStats& s = nodes_[n]->stats();
    const net::TransportStats& b = stats_before[n];
    flush_syscalls +=
        static_cast<double>(s.flush_syscalls() - b.flush_syscalls());
    frames += static_cast<double>(s.frames_sent - b.frames_sent);
    flushes += static_cast<double>(s.flushes - b.flushes);
    reads += static_cast<double>(s.read_calls - b.read_calls);
    bytes += static_cast<double>(s.bytes_sent - b.bytes_sent);
    high_water = std::max(high_water, static_cast<double>(s.pool_high_water));
    frames_received +=
        static_cast<double>(s.frames_received - b.frames_received);
    sent_total += static_cast<double>(nodes_[n]->sent_count());
    dropped += static_cast<double>(nodes_[n]->dropped_unregistered() +
                                   nodes_[n]->dropped_unresolved());
  }
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  for (const auto& manager : managers_) {
    delivered += manager->broker().delivered_count();
    forwarded += manager->broker().forwarded_count();
  }
  layer["net.socket.flush_syscalls"] = flush_syscalls;
  layer["net.socket.frames_per_flush"] = flushes > 0 ? frames / flushes : 0.0;
  layer["net.socket.read_calls"] = reads;
  layer["net.socket.bytes_sent"] = bytes;
  layer["net.socket.pool_high_water"] = high_water;
  layer["wire.frames_received"] = frames_received;
  layer["net.transport.sent"] = sent_total - static_cast<double>(sent_before);
  layer["net.transport.dropped"] = dropped;
  layer["broker.delivered"] = static_cast<double>(delivered - delivered_before);
  layer["broker.forwarded"] = static_cast<double>(forwarded - forwarded_before);
  layer["core.optimizer.topics"] = static_cast<double>(plans_.size());
  std::size_t both = 0;
  for (const TopicPlan& plan : plans_) both += plan.config.region_count() == 2;
  m.notes.push_back(std::to_string(both) + " of " +
                    std::to_string(plans_.size()) +
                    " topics routed over both brokers; open loop " +
                    std::to_string(n_open) + " publications at " +
                    std::to_string(static_cast<int>(size_.offered_rate)) +
                    "/s");
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_live(const Options& options, Tracer* tracer) {
  return std::make_unique<Live>(options, tracer);
}

}  // namespace perfbench
