// Data-plane throughput benchmark: the single-threaded typed-event plane
// ("fast") and the sharded parallel plane (DESIGN.md §11/§14) at 2, 4 and 8
// worker threads.
//
// One synthetic world (40 regions by default — wide enough that topology
// placement has real clusters to find at K=8 — 10k clients), 500 routed
// topics each served by 3 regions with 50 subscribers, publishers driven by
// self-rescheduling simulator actions hinted at their owning shard. The
// same workload runs once per engine configuration, freshly constructed
// from identical seeds, and the bench reports events/sec per configuration
// plus the speedups over the fast row and the sharded plane's window
// telemetry (windows per simulated second is the hardware-independent
// progress metric: fewer windows means less synchronization for the same
// events, provable even on a 1-core container). The sharded rows run under
// the flag-selected placement/window policy (topology + adaptive by
// default); one extra 8-shard row always re-runs the PR 5 recipe
// (round-robin + fixed) as the window-count baseline. Prints a table and
// writes BENCH_dataplane.json in the shared {"bench", "rows"} shape with
// one row per configuration.
//
// Exit gates:
//   - any counter (processed events, transport sent/dropped, broker
//     delivered/forwarded, ledger byte vectors) diverging between any two
//     configurations fails ALWAYS — determinism is independent of machine
//     size and publication count;
//   - a sharded row with zero windows executed fails ALWAYS (the telemetry
//     must prove the plane actually ran windows);
//   - sharded 8-thread speedup over the single-threaded fast path below 3x
//     fails on full-size runs on machines with >= 8 hardware threads (every
//     bench row records hardware_concurrency, so a small CI box still
//     publishes honest numbers without tripping a gate it cannot meet);
//   - with the default placement/policy, windows-per-simulated-second at
//     K=8 not dropping by >= 5x against the round-robin+fixed baseline
//     fails on full-size runs (deterministic, hardware-independent).
//
// With --cohorts on the subscriber side runs on the cohort-compressed
// plane (DESIGN.md §12): clients fold into weighted cohorts keyed by (home,
// topic set, latency row) and each broker fans out one weighted event per
// flock; the K-invariance gate (identical counters for every shard count)
// still applies bit-for-bit.
//
// Usage: bench_dataplane [--pubs N] [--mode both|fast|shards=K]
//                        [--clients N] [--regions N] [--cohorts on|off]
//                        [--shard-placement round-robin|topology]
//                        [--window-policy fixed|adaptive]
// (default: 1M publications, 10k clients, 40 regions, per-client plane,
// mode both, topology placement, adaptive windows; single-configuration
// --mode values are for profiling and skip the comparison gates)
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "publication_source.h"
#include "broker/broker.h"
#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/config.h"
#include "flags.h"
#include "geo/king_synth.h"
#include "geo/synthetic.h"
#include "net/shard_placement.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "sim/live_runner.h"
#include "wire/message.h"

using namespace multipub;

namespace {

constexpr std::size_t kDefaultRegions = 40;
constexpr std::size_t kMaxRegions = 64;  // synthesize_world's cap
constexpr std::size_t kDefaultClients = 10000;
constexpr std::size_t kTopics = 500;
constexpr std::size_t kSubsPerTopic = 50;
constexpr std::uint64_t kWorldSeed = 4242;
constexpr std::uint64_t kMembersSeed = 4243;

struct RunResult {
  double seconds = 0.0;
  double sim_ms = 0.0;       // simulated span of the measured phase
  std::uint64_t events = 0;  // simulator events processed while measuring
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t client_deliveries = 0;
  // Ledger byte vectors, zero past the world's region count (fixed-size so
  // a result crosses the run_in_child pipe as plain bytes).
  std::array<Bytes, kMaxRegions> inter_region_bytes{};
  std::array<Bytes, kMaxRegions> internet_bytes{};
  /// Window telemetry of the measured phase (delta over the setup phase;
  /// all zeros for the unsharded engine).
  net::WindowStats windows;

  [[nodiscard]] double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
  [[nodiscard]] double windows_per_sim_sec() const {
    return sim_ms > 0.0
               ? static_cast<double>(windows.windows) / (sim_ms / 1000.0)
               : 0.0;
  }
};

/// One engine configuration under test. shards == 1 is the single-threaded
/// plane; shards > 1 the parallel plane with that many worker threads under
/// the given placement and window policy.
struct EngineConfig {
  const char* label;
  std::uint32_t shards;
  net::ShardPlacement placement = net::ShardPlacement::kTopology;
  net::WindowPolicy policy = net::WindowPolicy::kAdaptive;
};

/// Builds the identical world + workload and drives `total_pubs`
/// publications through the chosen engine configuration over `n_clients`
/// clients, on the per-client or the cohort-compressed subscriber plane.
RunResult run_engine(const EngineConfig& engine, std::uint64_t total_pubs,
                     std::size_t n_clients, std::size_t n_regions,
                     bool cohorts) {
  Rng world_rng(kWorldSeed);
  const auto world = geo::synthesize_world(n_regions, {}, world_rng);
  const auto population = geo::synthesize_population(
      world.catalog, world.backbone,
      std::max<std::size_t>(1, n_clients / n_regions), {}, world_rng);

  net::Simulator sim;
  net::SimTransport transport(sim, world.catalog, world.backbone,
                              population.latencies);

  // Membership first (the RNG draw order is the bench's contract: the
  // per-client plane replays the exact historical stream): topic t is
  // served by {t, t+3, t+5} mod n_regions (distinct for >= 6 regions) in
  // routed mode; subscribers round-robin across the serving regions; one
  // publisher targeting the first serving region.
  Rng members_rng(kMembersSeed);
  auto random_client = [&] {
    return ClientId{static_cast<ClientId::underlying_type>(
        members_rng.uniform_int(0,
                                static_cast<std::int64_t>(population.size()) -
                                    1))};
  };
  std::vector<std::vector<ClientId>> topic_subs(kTopics);
  std::vector<ClientId> topic_publisher(kTopics);
  for (std::size_t t = 0; t < kTopics; ++t) {
    topic_subs[t].reserve(kSubsPerTopic);
    for (std::size_t s = 0; s < kSubsPerTopic; ++s) {
      topic_subs[t].push_back(random_client());
    }
    topic_publisher[t] = random_client();
  }

  // Cohort plane: fold every client into the registry before any sharding —
  // the flock universe must be closed when shard ownership is assigned.
  std::unique_ptr<Arena> arena;
  std::unique_ptr<client::TopicSetPool> topic_sets;
  std::unique_ptr<client::ClientRegistry> registry;
  std::unique_ptr<client::CohortPool> pool;
  if (cohorts) {
    std::vector<std::vector<TopicId>> client_topics(population.size());
    for (std::size_t t = 0; t < kTopics; ++t) {
      for (const ClientId sub : topic_subs[t]) {
        client_topics[static_cast<std::size_t>(sub.value())].push_back(
            TopicId{static_cast<TopicId::underlying_type>(t)});
      }
    }
    arena = std::make_unique<Arena>();
    topic_sets = std::make_unique<client::TopicSetPool>(*arena);
    registry = std::make_unique<client::ClientRegistry>(
        population.size(), n_regions, /*row_bucket_ms=*/0.0, *arena);
    pool = std::make_unique<client::CohortPool>(*registry, *topic_sets, sim,
                                                transport);
    for (std::size_t c = 0; c < population.size(); ++c) {
      auto& topics = client_topics[c];
      std::sort(topics.begin(), topics.end(),
                [](TopicId a, TopicId b) { return a.value() < b.value(); });
      topics.erase(std::unique(topics.begin(), topics.end()), topics.end());
      const ClientId id{static_cast<ClientId::underlying_type>(c)};
      registry->add(population.home_region[c], population.latencies.row(id),
                    topics.empty() ? client::TopicSetPool::kEmpty
                                   : topic_sets->intern(topics));
      pool->enroll(id);
    }
    transport.set_cohort_directory(pool.get());
  }

  if (engine.shards > 1) {
    // LiveSystem's recipe: regions placed by the engine's strategy, clients
    // and flocks on their home region's shard, windows from the cross-shard
    // lookahead matrix.
    sim::shard_data_plane(sim, transport, world.backbone,
                          population.home_region, pool.get(),
                          {.shards = engine.shards,
                           .placement = engine.placement,
                           .window_policy = engine.policy});
  }

  std::vector<std::unique_ptr<broker::Broker>> brokers;
  for (std::size_t r = 0; r < n_regions; ++r) {
    brokers.push_back(std::make_unique<broker::Broker>(
        RegionId{static_cast<RegionId::underlying_type>(r)}, sim, transport));
  }

  // Raw counting handlers for every client — the bench measures the data
  // plane, not the client::Subscriber bookkeeping. Shard-local lanes: each
  // delivery executes on the shard owning its client, so the lanes are
  // single-writer and the merged total is K-invariant. The cohort plane
  // needs neither handlers nor per-client endpoints: the pool accumulates
  // weighted deliveries itself.
  auto deliveries = std::make_shared<ShardedCounter>(engine.shards);
  if (!cohorts) {
    for (std::size_t c = 0; c < population.size(); ++c) {
      transport.register_handler(
          net::Address::client(ClientId{
              static_cast<ClientId::underlying_type>(c)}),
          [deliveries, &sim](const wire::Message&) {
            deliveries->add(sim.current_shard());
          });
    }
  }

  std::vector<RegionId> topic_entry(kTopics);  // region the publisher hits
  for (std::size_t t = 0; t < kTopics; ++t) {
    geo::RegionSet serving;
    const std::size_t base = t % n_regions;
    serving.add(RegionId{static_cast<RegionId::underlying_type>(base)});
    serving.add(RegionId{
        static_cast<RegionId::underlying_type>((base + 3) % n_regions)});
    serving.add(RegionId{
        static_cast<RegionId::underlying_type>((base + 5) % n_regions)});
    const core::TopicConfig config{serving, core::DeliveryMode::kRouted};
    const TopicId topic{static_cast<TopicId::underlying_type>(t)};
    for (auto& b : brokers) b->set_topic_config(topic, config);

    const auto serving_vec = serving.to_vector();
    if (cohorts) {
      // One weighted kSubscribe per flock, attached at the flock's closest
      // serving region.
      pool->deploy(topic, config);
    } else {
      for (std::size_t s = 0; s < kSubsPerTopic; ++s) {
        const ClientId sub = topic_subs[t][s];
        const RegionId at = serving_vec[s % serving_vec.size()];
        wire::Message msg;
        msg.type = wire::MessageType::kSubscribe;
        msg.topic = topic;
        msg.subscriber = sub;
        transport.send(net::Address::client(sub), net::Address::region(at),
                       msg);
      }
    }
    topic_entry[t] = serving_vec.front();
  }
  sim.run();  // settle the subscription handshakes outside the measurement

  // Publications: one source per topic, `per_topic` sends each, with the
  // topic index as phase. Each source is hinted at its publisher's address,
  // so on the sharded plane it lives on the shard owning that client and
  // its self-reschedules stay shard-local.
  const std::uint64_t per_topic =
      std::max<std::uint64_t>(1, total_pubs / kTopics);
  std::vector<std::unique_ptr<bench::PublicationSource>> sources;
  for (std::size_t t = 0; t < kTopics; ++t) {
    sources.push_back(std::make_unique<bench::PublicationSource>(
        &sim, &transport, TopicId{static_cast<TopicId::underlying_type>(t)},
        topic_publisher[t], topic_entry[t], per_topic));
    bench::PublicationSource* raw = sources.back().get();
    sim.schedule_at(sim.now() + static_cast<double>(t) * 0.01,
                    net::Address::client(raw->publisher),
                    [raw] { raw->fire(); });
  }

  RunResult result;
  const std::uint64_t processed_before = sim.processed();
  const net::WindowStats windows_before = sim.window_stats();
  const Millis sim_before = sim.now();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  result.events = sim.processed() - processed_before;
  result.sim_ms = sim.now() - sim_before;
  // Delta over the subscription-settle phase, so the telemetry describes
  // exactly the measured traffic (width_max is a running maximum and is
  // reported as-is; the measured phase dominates it).
  const net::WindowStats windows_after = sim.window_stats();
  result.windows.windows = windows_after.windows - windows_before.windows;
  result.windows.width_sum =
      windows_after.width_sum - windows_before.width_sum;
  result.windows.width_max = windows_after.width_max;
  result.windows.mail_items =
      windows_after.mail_items - windows_before.mail_items;
  result.windows.barrier_spins =
      windows_after.barrier_spins - windows_before.barrier_spins;
  result.windows.barrier_parks =
      windows_after.barrier_parks - windows_before.barrier_parks;
  result.windows.events = windows_after.events - windows_before.events;
  result.sent = transport.sent_count();
  result.dropped = transport.dropped_count();
  for (const auto& b : brokers) {
    result.delivered += b->delivered_count();
    result.forwarded += b->forwarded_count();
  }
  result.client_deliveries =
      cohorts ? pool->total_delivery_weight() : deliveries->total();
  const auto& ledger = transport.ledger();
  std::copy(ledger.inter_region_bytes.begin(), ledger.inter_region_bytes.end(),
            result.inter_region_bytes.begin());
  std::copy(ledger.internet_bytes.begin(), ledger.internet_bytes.end(),
            result.internet_bytes.begin());
  return result;
}

bool counters_identical(const RunResult& a, const RunResult& b) {
  return a.events == b.events && a.sent == b.sent &&
         a.dropped == b.dropped && a.delivered == b.delivered &&
         a.forwarded == b.forwarded &&
         a.client_deliveries == b.client_deliveries &&
         a.inter_region_bytes == b.inter_region_bytes &&
         a.internet_bytes == b.internet_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "bench_dataplane — data-plane engine comparison\n"
        "  --pubs N              total publications (default 1000000)\n"
        "  --mode both|fast|shards=K  engine selection (default both; a\n"
        "                        single engine skips the gates)\n"
        "  --clients N           total clients (default 10000)\n"
        "  --regions N           world size (default 40, 6..64)\n"
        "  --cohorts on|off      cohort-compressed subscriber plane\n"
        "                        (default off)\n"
        "  --shard-placement round-robin|topology  region partitioning for\n"
        "                        the sharded rows (default topology)\n"
        "  --window-policy fixed|adaptive  window sizing for the sharded\n"
        "                        rows (default adaptive)\n");
    return 0;
  }
  flags.allow_only({"help", "pubs", "mode", "clients", "regions", "cohorts",
                    "shard-placement", "window-policy"});
  const long pubs_flag = flags.get_int("pubs", 1000000);
  const long clients_flag =
      flags.get_int("clients", static_cast<long>(kDefaultClients));
  const long regions_flag =
      flags.get_int("regions", static_cast<long>(kDefaultRegions));
  const bool cohorts = flags.get_on_off("cohorts", false);
  const std::string mode = flags.get("mode", "both");
  const std::string placement_name = flags.get("shard-placement", "topology");
  const std::string policy_name = flags.get("window-policy", "adaptive");
  const auto placement = net::parse_shard_placement(placement_name);
  if (!placement.has_value()) {
    flags.error("--shard-placement must be round-robin or topology, got '" +
                placement_name + "'");
  }
  const auto policy_parsed = net::parse_window_policy(policy_name);
  if (!policy_parsed.has_value()) {
    flags.error("--window-policy must be fixed or adaptive, got '" +
                policy_name + "'");
  }
  // The serving-set construction needs 6 distinct offsets; synthesize_world
  // caps at kMaxRegions.
  if (regions_flag < 6 || regions_flag > static_cast<long>(kMaxRegions)) {
    flags.error("--regions must be in 6..64");
  }
  if (flags.print_errors() || pubs_flag <= 0 || clients_flag <= 0) {
    std::fprintf(stderr, "see --help\n");
    return 2;
  }
  const net::WindowPolicy policy = *policy_parsed;
  const auto total_pubs = static_cast<std::uint64_t>(pubs_flag);
  const auto n_clients = static_cast<std::size_t>(clients_flag);
  const auto n_regions = static_cast<std::size_t>(regions_flag);
  const std::uint64_t actual_pubs =
      std::max<std::uint64_t>(1, total_pubs / kTopics) * kTopics;
  if (mode != "both") {
    // Profiling mode: one configuration, no comparison.
    EngineConfig engine{"fast", 1, *placement, policy};
    const std::string_view mode_view = mode;
    if (mode_view.substr(0, 7) == "shards=") {
      engine.label = "sharded";
      // The whole suffix must be one decimal K that fits the shard count.
      const std::string_view digits = mode_view.substr(7);
      const char* digits_end = digits.data() + digits.size();
      const auto [end, error] =
          std::from_chars(digits.data(), digits_end, engine.shards);
      if (error != std::errc{} || end != digits_end) {
        flags.error("shards=K needs an integer K, got '" +
                    std::string(digits) + "'");
      } else if (engine.shards < 2) {
        flags.error("shards=K needs K >= 2");
      } else if (engine.shards > n_regions) {
        flags.error("shards=K needs K <= regions (" +
                    std::to_string(n_regions) +
                    "): empty shards would still pay every barrier round");
      }
    } else if (mode != "fast") {
      flags.error("unknown mode '" + mode + "'");
    }
    if (flags.print_errors()) return 2;
    const RunResult r =
        run_engine(engine, total_pubs, n_clients, n_regions, cohorts);
    std::printf("%s (%s plane): %llu events in %.3f s = %.0f events/sec\n",
                mode.c_str(), cohorts ? "cohort" : "per-client",
                static_cast<unsigned long long>(r.events), r.seconds,
                r.events_per_sec());
    return 0;
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("dataplane bench: %llu publications, %zu clients, %zu regions, "
              "%zu routed topics, %u hardware threads, %s plane, %s "
              "placement, %s windows\n",
              static_cast<unsigned long long>(actual_pubs), n_clients,
              n_regions, kTopics, hw_threads,
              cohorts ? "cohort" : "per-client",
              net::shard_placement_name(*placement).c_str(),
              net::window_policy_name(policy).c_str());

  // The single-threaded fast row is the reference of both planes. The final
  // row re-runs K=8 with the PR 5 recipe (round-robin + fixed windows) as
  // the window-count baseline — unless the flags already selected exactly
  // that configuration.
  const bool tuned_is_baseline =
      *placement == net::ShardPlacement::kRoundRobin &&
      policy == net::WindowPolicy::kFixed;
  std::vector<EngineConfig> engines;
  engines.push_back({"fast", 1});
  engines.push_back({"sharded", 2, *placement, policy});
  engines.push_back({"sharded", 4, *placement, policy});
  engines.push_back({"sharded", 8, *placement, policy});
  const std::size_t tuned8_index = engines.size() - 1;
  if (!tuned_is_baseline) {
    engines.push_back({"sharded", 8, net::ShardPlacement::kRoundRobin,
                       net::WindowPolicy::kFixed});
  }
  const std::size_t baseline8_index = engines.size() - 1;
  // Each configuration runs in a child process of its own, so every row's
  // peak_rss_bytes is that configuration's footprint alone.
  std::vector<bench::ChildRun<RunResult>> results;
  for (const EngineConfig& engine : engines) {
    const auto run = bench::run_in_child([&] {
      return run_engine(engine, total_pubs, n_clients, n_regions, cohorts);
    });
    if (!run.has_value()) {
      std::fprintf(stderr, "%s engine at %u thread(s) failed\n",
                   engine.label, engine.shards);
      return 1;
    }
    results.push_back(*run);
  }
  const RunResult& fast = results[0].result;

  bench::BenchReport report("dataplane");
  std::printf("%-8s %8s %12s %11s %7s %14s %10s %16s %8s\n", "engine",
              "threads", "placement", "policy", "windows", "win_per_sim_s",
              "seconds", "events_per_sec", "vs_fast");
  bool all_identical = true;
  bool windows_missing = false;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const EngineConfig& engine = engines[i];
    const RunResult& r = results[i].result;
    // Observable identity is pairwise against the fast row; with every
    // configuration proven identical to it, this chains to every pair.
    const bool identical = counters_identical(r, fast);
    all_identical = all_identical && identical;
    if (engine.shards > 1 && r.windows.windows == 0) windows_missing = true;
    const double vs_fast = fast.events_per_sec() > 0.0
                               ? r.events_per_sec() / fast.events_per_sec()
                               : 0.0;
    const std::uint32_t threads = engine.shards;
    const bool sharded = engine.shards > 1;
    const std::string placement_label =
        sharded ? net::shard_placement_name(engine.placement) : "";
    const std::string policy_label =
        sharded ? net::window_policy_name(engine.policy) : "";
    std::printf("%-8s %8u %12s %11s %7llu %14.1f %10.3f %16.0f %7.2fx%s\n",
                engine.label, threads,
                sharded ? placement_label.c_str() : "-",
                sharded ? policy_label.c_str() : "-",
                static_cast<unsigned long long>(r.windows.windows),
                r.windows_per_sim_sec(), r.seconds, r.events_per_sec(),
                vs_fast, identical ? "" : "  COUNTERS DIVERGED");
    report.row(results[i].peak_rss_bytes)
        .str("engine", engine.label)
        .uinteger("threads", threads)
        .str("placement", placement_label)
        .str("window_policy", policy_label)
        .uinteger("publications", actual_pubs)
        .uinteger("clients", n_clients)
        .boolean("cohorts", cohorts)
        .uinteger("regions", n_regions)
        .uinteger("topics", kTopics)
        .uinteger("events", r.events)
        .num("seconds", r.seconds)
        .num("sim_ms", r.sim_ms)
        .num("events_per_sec", r.events_per_sec())
        .num("speedup_vs_fast", vs_fast)
        .boolean("identical", identical)
        .uinteger("windows_executed", r.windows.windows)
        .num("windows_per_sim_sec", r.windows_per_sim_sec())
        .num("window_width_mean_ms", r.windows.width_mean())
        .num("window_width_max_ms", r.windows.width_max)
        .num("events_per_window", r.windows.events_per_window())
        .uinteger("mail_items", r.windows.mail_items)
        .uinteger("barrier_spins", r.windows.barrier_spins)
        .uinteger("barrier_parks", r.windows.barrier_parks);
  }
  const RunResult& tuned8 = results[tuned8_index].result;
  const RunResult& baseline8 = results[baseline8_index].result;
  const double shard8_speedup = tuned8.events_per_sec() / fast.events_per_sec();
  // Window reduction: how many times fewer synchronization rounds the tuned
  // configuration pays per simulated second than the PR 5 recipe. Both
  // counts are deterministic, so this ratio is hardware-independent.
  const double window_reduction =
      tuned8.windows_per_sim_sec() > 0.0
          ? baseline8.windows_per_sim_sec() / tuned8.windows_per_sim_sec()
          : 0.0;
  std::printf("8-thread sharded vs fast %.2fx, window reduction %.2fx, "
              "counters %s\n",
              shard8_speedup, window_reduction,
              all_identical ? "identical" : "DIVERGED");

  if (!report.write()) return 1;

  if (!all_identical) {
    std::fprintf(stderr, "ENGINE DIVERGENCE (see table above)\n");
    return 1;
  }
  if (windows_missing) {
    std::fprintf(stderr,
                 "a sharded row executed zero windows (telemetry broken)\n");
    return 1;
  }
  // The throughput gates only apply to full-size runs; the CI smoke run
  // uses a small count where fixed overheads dominate. The parallel gate
  // additionally needs the hardware to exist: conservative windows cannot
  // speed anything up on a box with fewer cores than shards.
  if (actual_pubs >= 1000000 && hw_threads >= 8 && shard8_speedup < 3.0) {
    std::fprintf(stderr, "8-thread sharded speedup below 3x (%.2fx)\n",
                 shard8_speedup);
    return 1;
  }
  // Deterministic window-count gate (full size, default tuning only): the
  // adaptive+topology plane must pay >= 5x fewer synchronization rounds per
  // simulated second than the PR 5 recipe at K=8.
  if (actual_pubs >= 1000000 && !tuned_is_baseline &&
      *placement == net::ShardPlacement::kTopology &&
      policy == net::WindowPolicy::kAdaptive && window_reduction < 5.0) {
    std::fprintf(stderr, "window reduction below 5x (%.2fx)\n",
                 window_reduction);
    return 1;
  }
  return 0;
}
