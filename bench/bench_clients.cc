// Million-client data-plane benchmark: the per-client subscriber plane
// against the cohort-compressed plane (DESIGN.md §12) across client counts
// from ten thousand to ten million.
//
// One synthetic world (8 regions, 64 distinct network positions), 32 routed
// topics each served by 3 regions. Clients round-robin over the positions
// and each position subscribes to one topic, so N clients fold into 64
// weighted cohorts — the regime the cohort plane is built for. Both planes
// run the identical publication workload on the single-threaded fast path;
// the per-client plane instantiates one handler and one subscription per
// client, the cohort plane one flock per (cohort, topic).
//
// The weighted counter books (sent, broker-delivered, client deliveries,
// per-region billed bytes) must be IDENTICAL between the planes at equal
// scale — compression changes the event count, never the observables. The
// timed region repeats the publication workload until it lasts >= 100 ms
// (the books compare the first pass), and each (plane, N) row runs in a
// forked child whose own peak RSS the row reports. Prints a table and
// writes BENCH_clients.json (one row per (plane, N)).
//
// Exit gates:
//   - weighted counter divergence between the planes at any size fails
//     ALWAYS;
//   - at >= 10^6 clients the cohort plane must clear 10x the per-client
//     plane's weighted deliveries per second;
//   - the largest cohort-only sweep point must stay under 4 GB peak RSS
//     (struct-of-arrays state, not per-client objects, carries the scale);
//   - --verify: a LiveSystem differential run (cohorts on vs off) over
//     replicated subscribers must produce bit-identical delivery times,
//     interval costs and rendered metrics.
//
// Usage: bench_clients [--clients N] [--cohorts on|off|both] [--pubs P]
//                      [--max-per-client N] [--quantize-ms MS] [--verify]
// (default: sweep N in {10k, 100k, 1M, 10M}, both planes, per-client
// capped at --max-per-client, default 1M)
//
// --quantize-ms MS > 0 buckets the latency rows before cohort interning
// (floor(lat/MS)*MS), folding near-identical positions into one cohort.
// That trades the bit-identity guarantee for compression, so the books
// comparison is skipped — the cohort column shrinking as MS grows is the
// observable.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "publication_source.h"
#include "broker/broker.h"
#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "common/rng.h"
#include "core/config.h"
#include "flags.h"
#include "geo/king_synth.h"
#include "geo/synthetic.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "sim/scenario.h"
#include "wire/message.h"

using namespace multipub;

namespace {

constexpr std::size_t kRegions = 8;
constexpr std::size_t kPositionsPerRegion = 8;  // 64 network positions
constexpr std::size_t kPositions = kRegions * kPositionsPerRegion;
constexpr std::size_t kTopics = 32;
constexpr Bytes kPayload = 1024;
constexpr std::uint64_t kWorldSeed = 4242;

/// The timed region repeats the publication workload until it lasts at
/// least this long, so a plane that needs only a few thousand events per
/// pass is still timed over a span the clock resolves.
constexpr double kMinTimedSeconds = 0.1;

/// Weighted counter books after the first publication pass (settle
/// included). They must coincide between the planes at equal N.
struct Books {
  std::uint64_t weighted_deliveries = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::array<Bytes, kRegions> inter_region_bytes{};
  std::array<Bytes, kRegions> internet_bytes{};

  bool operator==(const Books&) const = default;
};

/// Trivially copyable: it crosses the run_in_child pipe as plain bytes.
struct RunResult {
  double seconds = 0.0;     // the whole timed region, every pass
  std::uint64_t passes = 0;
  std::uint64_t events = 0;               // over every pass
  std::uint64_t weighted_deliveries = 0;  // over every pass
  Books books;
  std::size_t cohorts = 0;  // 0 on the per-client plane
  std::size_t flocks = 0;
  std::size_t rows = 0;  // distinct interned latency rows (cohort plane)

  [[nodiscard]] double per_sec(std::uint64_t n) const {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  }
};

geo::RegionSet serving_set(std::size_t topic) {
  geo::RegionSet serving;
  const std::size_t base = topic % kRegions;
  serving.add(RegionId{static_cast<RegionId::underlying_type>(base)});
  serving.add(
      RegionId{static_cast<RegionId::underlying_type>((base + 3) % kRegions)});
  serving.add(
      RegionId{static_cast<RegionId::underlying_type>((base + 5) % kRegions)});
  return serving;
}

/// Runs passes of `pubs_per_topic` publications per topic against
/// `n_clients` subscribers on the chosen plane until the timed region
/// reaches kMinTimedSeconds, and returns the timing and the first pass's
/// books.
RunResult run_plane(bool cohorts, std::size_t n_clients,
                    std::uint64_t pubs_per_topic, double quantize_ms) {
  Rng world_rng(kWorldSeed);
  const auto world = geo::synthesize_world(kRegions, {}, world_rng);
  // The 64 distinct network positions every client maps onto.
  const auto positions = geo::synthesize_population(
      world.catalog, world.backbone, kPositionsPerRegion, {}, world_rng);

  // The transport's client matrix: per-client needs every client's row (a
  // delivery consults the receiver's latency); the cohort plane resolves
  // latencies through the directory's shared rows, so the 64 position rows
  // suffice no matter how many clients enroll — that asymmetry IS the
  // memory story this bench demonstrates.
  geo::ClientLatencyMap client_rows(kRegions);
  const std::size_t mapped = cohorts ? kPositions : n_clients;
  for (std::size_t c = 0; c < mapped; ++c) {
    client_rows.add_client(positions.latencies.row(
        ClientId{static_cast<ClientId::underlying_type>(
            static_cast<std::int64_t>(c % kPositions))}));
  }

  net::Simulator sim;
  net::SimTransport transport(sim, world.catalog, world.backbone, client_rows);

  std::vector<std::unique_ptr<broker::Broker>> brokers;
  for (std::size_t r = 0; r < kRegions; ++r) {
    brokers.push_back(std::make_unique<broker::Broker>(
        RegionId{static_cast<RegionId::underlying_type>(r)}, sim, transport));
  }
  for (std::size_t t = 0; t < kTopics; ++t) {
    const core::TopicConfig config{serving_set(t),
                                   core::DeliveryMode::kRouted};
    for (auto& b : brokers) {
      b->set_topic_config(TopicId{static_cast<TopicId::underlying_type>(t)},
                          config);
    }
  }

  RunResult result;
  std::uint64_t per_client_deliveries = 0;

  // Cohort-plane state; only materialized on that plane.
  std::unique_ptr<Arena> arena;
  std::unique_ptr<client::TopicSetPool> topic_sets;
  std::unique_ptr<client::ClientRegistry> registry;
  std::unique_ptr<client::CohortPool> pool;

  if (cohorts) {
    arena = std::make_unique<Arena>();
    topic_sets = std::make_unique<client::TopicSetPool>(*arena);
    registry = std::make_unique<client::ClientRegistry>(n_clients, kRegions,
                                                        quantize_ms, *arena);
    std::vector<std::int32_t> position_set(kPositions);
    for (std::size_t p = 0; p < kPositions; ++p) {
      const std::array<TopicId, 1> topics{
          TopicId{static_cast<TopicId::underlying_type>(p % kTopics)}};
      position_set[p] = topic_sets->intern(topics);
    }
    pool = std::make_unique<client::CohortPool>(*registry, *topic_sets, sim,
                                                transport);
    transport.set_cohort_directory(pool.get());
    for (std::size_t c = 0; c < n_clients; ++c) {
      const std::size_t p = c % kPositions;
      const ClientId position{static_cast<ClientId::underlying_type>(
          static_cast<std::int64_t>(p))};
      const ClientId id =
          registry->add(positions.home_region[p],
                        positions.latencies.row(position), position_set[p]);
      pool->enroll(id);
    }
    for (std::size_t t = 0; t < kTopics; ++t) {
      pool->deploy(TopicId{static_cast<TopicId::underlying_type>(t)},
                   {serving_set(t), core::DeliveryMode::kRouted});
    }
    result.cohorts = pool->cohort_count();
    result.flocks = pool->flock_count();
    result.rows = registry->row_count();
  } else {
    // One handler and one subscription per client, each attached to the
    // closest serving region of its topic — the same attachment rule the
    // cohort plane applies per flock, so the books coincide.
    for (std::size_t c = 0; c < n_clients; ++c) {
      const ClientId id{static_cast<ClientId::underlying_type>(
          static_cast<std::int64_t>(c))};
      transport.register_handler(
          net::Address::client(id),
          [&per_client_deliveries](const wire::Message&) {
            ++per_client_deliveries;
          });
      const std::size_t p = c % kPositions;
      const TopicId topic{static_cast<TopicId::underlying_type>(p % kTopics)};
      const ClientId position{static_cast<ClientId::underlying_type>(
          static_cast<std::int64_t>(p))};
      const RegionId at = positions.latencies.closest_region(
          position, serving_set(p % kTopics));
      wire::Message msg;
      msg.type = wire::MessageType::kSubscribe;
      msg.topic = topic;
      msg.subscriber = id;
      transport.send(net::Address::client(id), net::Address::region(at), msg);
    }
  }
  sim.run();  // settle the handshakes outside the measurement

  // One source per topic; publisher = position client t (< 64), present in
  // both planes' maps.
  std::vector<std::unique_ptr<bench::PublicationSource>> sources;
  for (std::size_t t = 0; t < kTopics; ++t) {
    sources.push_back(std::make_unique<bench::PublicationSource>(
        &sim, &transport, TopicId{static_cast<TopicId::underlying_type>(t)},
        ClientId{static_cast<ClientId::underlying_type>(
            static_cast<std::int64_t>(t))},
        serving_set(t).first()));
  }
  const auto weighted_deliveries = [&] {
    return cohorts ? pool->total_delivery_weight() : per_client_deliveries;
  };

  // Every pass replays the same workload; sequence numbers run on.
  const std::uint64_t processed_before = sim.processed();
  const auto t0 = std::chrono::steady_clock::now();
  do {
    for (std::size_t t = 0; t < kTopics; ++t) {
      bench::PublicationSource* raw = sources[t].get();
      raw->remaining = pubs_per_topic;
      sim.schedule_at(sim.now() + static_cast<double>(t) * 0.01,
                      [raw] { raw->fire(); });
    }
    sim.run();
    if (++result.passes == 1) {
      Books& books = result.books;
      books.weighted_deliveries = weighted_deliveries();
      books.sent = transport.sent_count();
      books.dropped = transport.dropped_count();
      for (const auto& b : brokers) {
        books.delivered += b->delivered_count();
        books.forwarded += b->forwarded_count();
      }
      const auto& ledger = transport.ledger();
      std::copy(ledger.inter_region_bytes.begin(),
                ledger.inter_region_bytes.end(),
                books.inter_region_bytes.begin());
      std::copy(ledger.internet_bytes.begin(), ledger.internet_bytes.end(),
                books.internet_bytes.begin());
    }
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (result.seconds < kMinTimedSeconds);
  result.events = sim.processed() - processed_before;
  result.weighted_deliveries = weighted_deliveries();
  return result;
}

/// LiveSystem differential: the full middleware (controller, region
/// managers, reconfigurations) over a replicated-subscriber scenario, run
/// once per plane from identical seeds. Bit-identical delivery times, costs
/// and rendered metrics or the bench fails.
int run_verify(std::size_t n_clients) {
  Rng rng(2026);
  sim::WorkloadSpec workload;
  workload.interval_seconds = 10.0;
  workload.ratio = 95.0;
  workload.subscriber_replication = std::max<std::size_t>(1, n_clients / 6);
  const sim::Scenario scenario = sim::make_scenario(
      {{RegionId{0}, 2, 3}, {RegionId{5}, 2, 3}}, workload, rng);

  sim::LiveSystem per_client(scenario);
  sim::LiveSystem cohorts(scenario, {.cohorts = true});
  const core::TopicConfig bootstrap{geo::RegionSet::universe(10),
                                    core::DeliveryMode::kRouted};
  per_client.deploy(bootstrap);
  cohorts.deploy(bootstrap);

  Rng rng_a(99), rng_b(99);
  for (int round = 0; round < 3; ++round) {
    const auto a = per_client.run_interval(10.0, kPayload, 1.0, rng_a);
    const auto b = cohorts.run_interval(10.0, kPayload, 1.0, rng_b);
    if (a.delivery_times != b.delivery_times ||
        a.interval_cost != b.interval_cost) {
      std::fprintf(stderr,
                   "VERIFY FAILED round %d: %zu vs %zu deliveries, "
                   "$%.6f vs $%.6f\n",
                   round, a.delivery_times.size(), b.delivery_times.size(),
                   a.interval_cost, b.interval_cost);
      return 1;
    }
    (void)per_client.control_round();
    (void)cohorts.control_round();
    if (sim::collect_metrics(per_client).render() !=
        sim::collect_metrics(cohorts).render()) {
      std::fprintf(stderr, "VERIFY FAILED round %d: metrics diverged\n",
                   round);
      return 1;
    }
  }
  std::printf("verify: %zu subscribers, 3 rounds, cohort plane bit-identical "
              "to per-client plane\n",
              scenario.topic.subscribers.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "bench_clients — per-client vs cohort-compressed subscriber plane\n"
        "  --clients N          one sweep point instead of the full sweep\n"
        "  --cohorts on|off|both  plane selection (default both)\n"
        "  --pubs P             publications per topic (default 20)\n"
        "  --max-per-client N   largest N the per-client plane runs\n"
        "                       (default 1000000)\n"
        "  --quantize-ms MS     bucket latency rows before cohort interning\n"
        "                       (default 0 = exact; MS > 0 folds near-\n"
        "                       identical positions and skips the books\n"
        "                       comparison)\n"
        "  --verify             LiveSystem bit-identity differential at\n"
        "                       --clients (default 10000) and exit\n");
    return 0;
  }
  flags.allow_only({"help", "clients", "cohorts", "pubs", "max-per-client",
                    "quantize-ms", "verify"});
  const long clients_flag = flags.get_int("clients", 0);
  // nullopt: both planes.
  const std::optional<bool> cohorts_only = flags.get_on_off_both("cohorts");
  const auto pubs_per_topic = static_cast<std::uint64_t>(
      std::max(1L, flags.get_int("pubs", 20)));
  const auto max_per_client = static_cast<std::size_t>(
      std::max(0L, flags.get_int("max-per-client", 1000000)));
  const double quantize_ms = flags.get_double("quantize-ms", 0.0);
  const bool verify = flags.get_bool("verify", false);
  if (quantize_ms > 0.0 && verify) {
    flags.error(
        "--quantize-ms is incompatible with --verify: the differential "
        "asserts bit-identity, which only exact rows provide");
  }
  if (flags.print_errors() || clients_flag < 0 || quantize_ms < 0.0) {
    std::fprintf(stderr, "see --help\n");
    return 2;
  }

  if (verify) {
    return run_verify(clients_flag > 0 ? static_cast<std::size_t>(clients_flag)
                                       : 10000);
  }

  std::vector<std::size_t> counts;
  if (clients_flag > 0) {
    counts.push_back(static_cast<std::size_t>(clients_flag));
  } else {
    counts = {10'000, 100'000, 1'000'000, 10'000'000};
  }

  std::printf("clients bench: %zu regions, %zu positions, %zu routed topics, "
              "%llu pubs/topic\n",
              kRegions, kPositions, kTopics,
              static_cast<unsigned long long>(pubs_per_topic));
  std::printf("%-10s %12s %10s %6s %14s %10s %20s %12s\n", "plane", "clients",
              "cohorts", "rows", "events", "seconds", "weighted_del_per_s",
              "peak_rss_mb");

  bench::BenchReport report("clients");
  bool all_identical = true;
  bool gate_10x_ok = true;
  bool gate_checked = false;
  unsigned long long largest_cohort_rss = 0;
  for (const std::size_t n : counts) {
    RunResult per_client;
    const bool ran_per_client =
        !cohorts_only.value_or(false) && n <= max_per_client;
    const bool ran_cohorts = cohorts_only.value_or(true);
    struct PlaneRow {
      const char* label;
      bool cohorts;
      bool ran;
    };
    const PlaneRow planes[] = {{"per-client", false, ran_per_client},
                               {"cohort", true, ran_cohorts}};
    for (const PlaneRow& plane : planes) {
      if (!plane.ran) continue;
      // One child process per row: its peak RSS is this row's alone.
      const auto run = bench::run_in_child([&] {
        return run_plane(plane.cohorts, n, pubs_per_topic, quantize_ms);
      });
      if (!run.has_value()) {
        std::fprintf(stderr, "%s plane at %zu clients failed\n", plane.label,
                     n);
        return 1;
      }
      const RunResult& r = run->result;
      if (!plane.cohorts) per_client = r;
      // Quantized rows legitimately re-route flocks (a bucketed row may pick
      // a different closest serving region), so the books only have to
      // coincide at bucket 0.
      const bool identical = !plane.cohorts || !ran_per_client ||
                             quantize_ms > 0.0 || r.books == per_client.books;
      all_identical = all_identical && identical;
      if (plane.cohorts && ran_per_client && n >= 1'000'000) {
        gate_checked = true;
        if (r.per_sec(r.weighted_deliveries) <
            10.0 * per_client.per_sec(per_client.weighted_deliveries)) {
          gate_10x_ok = false;
        }
      }
      const unsigned long long rss = run->peak_rss_bytes;
      if (plane.cohorts) largest_cohort_rss = rss;
      std::printf("%-10s %12zu %10zu %6zu %14llu %10.3f %20.0f %12.1f%s\n",
                  plane.label, n, r.cohorts, r.rows,
                  static_cast<unsigned long long>(r.events), r.seconds,
                  r.per_sec(r.weighted_deliveries),
                  static_cast<double>(rss) / 1e6,
                  identical ? "" : "  BOOKS DIVERGED");
      report.row(rss)
          .str("plane", plane.label)
          .uinteger("clients", n)
          .uinteger("cohorts", r.cohorts)
          .uinteger("flocks", r.flocks)
          .uinteger("latency_rows", r.rows)
          .num("quantize_ms", quantize_ms)
          .uinteger("passes", r.passes)
          .uinteger("publications", r.passes * pubs_per_topic * kTopics)
          .uinteger("events", r.events)
          .num("seconds", r.seconds)
          .num("events_per_sec", r.per_sec(r.events))
          .uinteger("weighted_deliveries", r.weighted_deliveries)
          .num("weighted_deliveries_per_sec",
               r.per_sec(r.weighted_deliveries))
          .boolean("identical", identical);
    }
  }

  if (!report.write()) return 1;
  if (!all_identical) {
    std::fprintf(stderr, "PLANE DIVERGENCE (see table above)\n");
    return 1;
  }
  if (gate_checked && !gate_10x_ok) {
    std::fprintf(stderr,
                 "cohort plane below 10x per-client weighted deliveries/s at "
                 ">= 1M clients\n");
    return 1;
  }
  if (largest_cohort_rss > 4ULL * 1000 * 1000 * 1000) {
    std::fprintf(stderr, "peak RSS %.2f GB exceeds the 4 GB bound\n",
                 static_cast<double>(largest_cohort_rss) / 1e9);
    return 1;
  }
  return 0;
}
