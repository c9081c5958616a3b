// Sharded parallel simulator (DESIGN.md §11): conservative time windows
// over per-shard event stores, cross-shard deliveries through sequenced
// mailboxes. The contract under test is bit-identical observables for every
// shard count — the shard count is a performance knob, never a semantic one.
#include "net/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace multipub::net {
namespace {

/// Per-region trace of (hop counter, arrival time). Each sink is written
/// only by the shard owning its region, so the vectors need no locking.
struct RingSink : DeliverySink {
  Simulator* sim = nullptr;
  std::vector<std::pair<std::uint64_t, Millis>> trace;
  Address self;
  Address next;
  Millis next_latency = 0.0;  ///< >= the configured lookahead
  std::uint64_t max_hops = 0;

  void deliver(const DeliveryEvent& event) override {
    trace.emplace_back(event.msg.seq, sim->now());
    if (event.msg.seq < max_hops) {
      wire::Message msg = event.msg;
      ++msg.seq;
      sim->schedule_delivery_after(next_latency, *this, self, next,
                                   sim->share(msg), msg.subscriber,
                                   msg.weight);
    }
  }
};

/// Four regions in a ring, round-robined over `shards` shards; one token
/// per region circles the ring for `hops` hops. Distinct per-edge latencies
/// and staggered starts keep every destination single-source per instant,
/// so the trace is well-defined independently of the shard count.
std::vector<std::vector<std::pair<std::uint64_t, Millis>>> run_ring(
    std::uint32_t shards, std::uint64_t hops,
    WindowPolicy policy = WindowPolicy::kFixed,
    WindowStats* stats = nullptr) {
  constexpr int kRegions = 4;
  Simulator sim;
  if (shards > 1) {
    ShardMap map;
    map.shards = shards;
    for (int r = 0; r < kRegions; ++r) {
      map.region_shard.push_back(static_cast<std::uint32_t>(r) % shards);
    }
    // Every ring edge is >= 10 ms; any cross-shard edge set shares that
    // lower bound, so 10 is a valid conservative window for every K.
    sim.configure_shards(std::move(map), 10.0);
    sim.set_window_policy(policy);
    if (policy == WindowPolicy::kAdaptive) {
      // Per-(src shard, dst shard) lookaheads; 10 ms is a sound bound for
      // every pair, the diagonal is ignored (rebuilt by the closure).
      std::vector<Millis> la(static_cast<std::size_t>(shards) * shards, 10.0);
      sim.set_lookahead_matrix(std::move(la));
    }
  }

  std::vector<RingSink> sinks(kRegions);
  for (int r = 0; r < kRegions; ++r) {
    sinks[r].sim = &sim;
    sinks[r].self = Address::region(RegionId{r});
    sinks[r].next = Address::region(RegionId{(r + 1) % kRegions});
    sinks[r].next_latency = 10.0 + 0.7 * r;
    sinks[r].max_hops = hops;
  }
  wire::Message msg;
  for (int r = 0; r < kRegions; ++r) {
    msg.seq = 0;
    sim.schedule_delivery_at(0.1 * r, sinks[r], sinks[(r + 3) % 4].self,
                             sinks[r].self, sim.share(msg), msg.subscriber,
                             msg.weight);
  }
  sim.run();
  if (stats != nullptr) *stats = sim.window_stats();

  std::vector<std::vector<std::pair<std::uint64_t, Millis>>> traces;
  for (auto& sink : sinks) traces.push_back(std::move(sink.trace));
  return traces;
}

TEST(ShardMapTest, RoutesClientsAndRegionsThroughSeparateTables) {
  ShardMap map;
  map.shards = 3;
  map.region_shard = {0, 1, 2};
  map.client_shard = {2, 2, 0, 1};
  EXPECT_EQ(map.shard_of(Address::region(RegionId{1})), 1u);
  EXPECT_EQ(map.shard_of(Address::region(RegionId{2})), 2u);
  // A client with the same numeric id as a region is a different endpoint.
  EXPECT_EQ(map.shard_of(Address::client(ClientId{1})), 2u);
  EXPECT_EQ(map.shard_of(Address::client(ClientId{3})), 1u);
}

TEST(ShardedSimulator, RingTraceIsBitIdenticalForEveryShardCount) {
  const auto reference = run_ring(1, 40);
  // The tokens actually circled: 4 regions x (40 hops + seeds) arrivals.
  std::size_t total = 0;
  for (const auto& trace : reference) total += trace.size();
  ASSERT_GT(total, 160u);
  for (std::uint32_t shards : {2u, 4u}) {
    const auto traces = run_ring(shards, 40);
    ASSERT_EQ(traces.size(), reference.size());
    for (std::size_t r = 0; r < traces.size(); ++r) {
      // Exact double equality on arrival times: the sharded engine must
      // execute the same arithmetic in the same order, not merely agree
      // approximately.
      EXPECT_EQ(traces[r], reference[r]) << "shards=" << shards
                                         << " region=" << r;
    }
  }
}

TEST(ShardedSimulator, CriticalPathIsPinnedForEveryShardCount) {
  // The critical path — per window, the busiest shard's event count, summed
  // — depends only on virtual time, never on which thread arrives first, so
  // the ring pins it exactly, run after run. It lies between one event per
  // window and every event.
  struct Pin {
    std::uint32_t shards;
    std::uint64_t critical_events;
  };
  for (const Pin pin : {Pin{2, 90}, Pin{4, 48}}) {
    for (int run = 0; run < 3; ++run) {
      WindowStats stats;
      (void)run_ring(pin.shards, 40, WindowPolicy::kFixed, &stats);
      EXPECT_EQ(stats.critical_events, pin.critical_events)
          << "shards=" << pin.shards << " run=" << run;
      EXPECT_GE(stats.critical_events, stats.windows);
      EXPECT_LT(stats.critical_events, stats.events);
    }
  }
}

TEST(ShardedSimulator, AdaptiveWindowsKeepTheTraceAndExecuteFewerWindows) {
  // The adaptive policy (DESIGN.md §14) may only change window STRUCTURE:
  // same arithmetic in the same order, exactly equal traces — while paying
  // fewer synchronization rounds than fixed pacing on the same workload.
  // Only perfbench's twin-sharded workload still runs it.
  const auto reference = run_ring(1, 40);
  for (std::uint32_t shards : {2u, 4u}) {
    WindowStats fixed_stats;
    WindowStats adaptive_stats;
    const auto fixed =
        run_ring(shards, 40, WindowPolicy::kFixed, &fixed_stats);
    const auto adaptive =
        run_ring(shards, 40, WindowPolicy::kAdaptive, &adaptive_stats);
    for (std::size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(fixed[r], reference[r]) << "shards=" << shards;
      EXPECT_EQ(adaptive[r], reference[r]) << "shards=" << shards;
    }
    ASSERT_GT(fixed_stats.windows, 0u);
    ASSERT_GT(adaptive_stats.windows, 0u);
    EXPECT_LE(adaptive_stats.windows, fixed_stats.windows)
        << "shards=" << shards;
    // Both policies process every event; only the grouping differs.
    EXPECT_EQ(adaptive_stats.events, fixed_stats.events);
  }
}

TEST(ShardedSimulator, WindowTelemetryCountsRoundsMailAndWidths) {
  WindowStats stats;
  (void)run_ring(2, 40, WindowPolicy::kFixed, &stats);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_GT(stats.events, 0u);
  // The ring crosses shards constantly, so mailboxes must have carried
  // traffic, and every window is at least the 10 ms stride wide.
  EXPECT_GT(stats.mail_items, 0u);
  EXPECT_GE(stats.width_mean(), 10.0);
  EXPECT_GE(stats.width_max, stats.width_mean());
  EXPECT_GT(stats.events_per_window(), 0.0);

  // An unsharded engine reports all-zero telemetry.
  Simulator plain;
  const WindowStats none = plain.window_stats();
  EXPECT_EQ(none.windows, 0u);
  EXPECT_EQ(none.events, 0u);
  EXPECT_EQ(none.mail_items, 0u);
}

TEST(ShardedSimulator, RepeatedRunsOverTheSameEngineTerminate) {
  // Regression guard for the barrier's publication protocol: every run()
  // re-publishes work to parked workers and ends with an acknowledged
  // end-of-run round. A waiter that misses (or double-consumes) one epoch
  // step deadlocks this loop.
  Simulator sim;
  ShardMap map;
  map.shards = 4;
  map.region_shard = {0, 1, 2, 3};
  sim.configure_shards(std::move(map), 5.0);

  struct CountingSink : DeliverySink {
    int count = 0;
    void deliver(const DeliveryEvent&) override { ++count; }
  };
  CountingSink sink;
  wire::Message msg;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_delivery_after(5.0 + i, sink,
                                Address::region(RegionId{i % 4}),
                                Address::region(RegionId{(i + 1) % 4}),
                                sim.share(msg), msg.subscriber, msg.weight);
    sim.run();
  }
  EXPECT_EQ(sink.count, 50);
  EXPECT_EQ(sim.processed(), 50u);
}

TEST(ShardedSimulator, OwnerHintedActionsRunOnTheOwningShard) {
  Simulator sim;
  ShardMap map;
  map.shards = 2;
  map.region_shard = {0, 1};
  sim.configure_shards(std::move(map), 5.0);
  ASSERT_TRUE(sim.sharded());
  ASSERT_EQ(sim.shards(), 2u);

  std::uint32_t hinted_shard = 99;
  std::uint32_t nested_shard = 99;
  std::uint32_t default_shard = 99;
  bool was_dispatching = false;
  sim.schedule_at(5.0, Address::region(RegionId{1}), [&] {
    hinted_shard = sim.current_shard();
    was_dispatching = sim.dispatching();
    // A follow-up scheduled from inside a window stays on the same shard:
    // entity timers are entity-local.
    sim.schedule_after(1.0, [&] { nested_shard = sim.current_shard(); });
  });
  sim.schedule_at(5.0, [&] { default_shard = sim.current_shard(); });
  sim.run();
  EXPECT_EQ(hinted_shard, 1u);
  EXPECT_EQ(nested_shard, 1u);
  EXPECT_EQ(default_shard, 0u);  // un-hinted outside-window schedule
  EXPECT_TRUE(was_dispatching);
  EXPECT_FALSE(sim.dispatching());
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(ShardedSimulator, RunUntilStopsAtBoundaryAndKeepsTheRemainder) {
  Simulator sim;
  ShardMap map;
  map.shards = 2;
  map.region_shard = {0, 1};
  sim.configure_shards(std::move(map), 5.0);

  struct CountingSink : DeliverySink {
    int count = 0;
    void deliver(const DeliveryEvent&) override { ++count; }
  };
  CountingSink sink;
  wire::Message msg;
  const Address from = Address::region(RegionId{0});
  const Address to = Address::region(RegionId{1});
  for (Millis t : {10.0, 50.0, 90.0}) {
    sim.schedule_delivery_at(t, sink, from, to, sim.share(msg), msg.subscriber,
                             msg.weight);
  }
  sim.run_until(50.0);
  EXPECT_EQ(sink.count, 2);  // boundary event included
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sink.count, 3);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(ShardedSimulator, TinyLookaheadOnFarApartEventsStillTerminates) {
  // A window narrower than one ulp of the event times must not stall: the
  // engine starts each window at the actual next event time, so sparse
  // event sets take one window per occupied instant, however small the
  // lookahead relative to the clock magnitude.
  Simulator sim;
  ShardMap map;
  map.shards = 2;
  map.region_shard = {0, 1};
  sim.configure_shards(std::move(map), 1e-7);

  struct CountingSink : DeliverySink {
    int count = 0;
    void deliver(const DeliveryEvent&) override { ++count; }
  };
  CountingSink sink;
  wire::Message msg;
  sim.schedule_delivery_at(1.0e9, sink, Address::region(RegionId{0}),
                           Address::region(RegionId{1}), sim.share(msg),
                           msg.subscriber, msg.weight);
  sim.schedule_delivery_at(2.0e9, sink, Address::region(RegionId{1}),
                           Address::region(RegionId{0}), sim.share(msg),
                           msg.subscriber, msg.weight);
  sim.run();
  EXPECT_EQ(sink.count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0e9);
}

TEST(ShardedSimulator, ReconfiguringBackToOneShardKeepsTheProcessedCount) {
  Simulator sim;
  ShardMap map;
  map.shards = 2;
  map.region_shard = {0, 1};
  sim.configure_shards(std::move(map), 5.0);
  int fired = 0;
  sim.schedule_at(5.0, Address::region(RegionId{1}), [&] { ++fired; });
  sim.run();
  ASSERT_EQ(sim.processed(), 1u);

  sim.configure_shards(ShardMap{}, 0.0);
  EXPECT_FALSE(sim.sharded());
  EXPECT_EQ(sim.processed(), 1u);  // retired stores fold into the base
  sim.schedule_after(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.processed(), 2u);
}

}  // namespace
}  // namespace multipub::net
