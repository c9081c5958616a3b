#include "net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace multipub::net {

/// White-box view of the single-threaded store: the ladder's shape and the
/// payload slab's share cache.
struct SimulatorPeer {
  struct RungView {
    Millis start;
    Millis width;
    std::size_t count;
    std::size_t cur;
  };
  static std::size_t depth(const Simulator& sim) {
    return sim.stores_[0]->depth_;
  }
  static RungView rung(const Simulator& sim, std::size_t level) {
    const auto& rung = sim.stores_[0]->rungs_[level];
    return {rung.start, rung.width, rung.count, rung.cur};
  }
  /// Payload slot of the fan-out interned last.
  static std::uint32_t share_slot(const Simulator& sim) {
    return sim.stores_[0]->share_slot_;
  }
  // Every pool of the store is a SlotPool, so payload slots, delivery
  // records and actions all stop at its 24-bit limit.
  using Store = Simulator::EventStore;
  static_assert(std::is_same_v<decltype(Store::payloads_),
                               SlotPool<Simulator::SharedPayload>>);
  static_assert(std::is_same_v<decltype(Store::deliveries_),
                               SlotPool<Simulator::DeliveryRecord>>);
  static_assert(
      std::is_same_v<decltype(Store::actions_), SlotPool<Simulator::Action>>);
};

namespace {

/// Records the insertion markers (carried in msg.seq) of typed deliveries.
struct RecordingSink : DeliverySink {
  explicit RecordingSink(std::vector<int>& order) : order(&order) {}
  void deliver(const DeliveryEvent& event) override {
    order->push_back(static_cast<int>(event.msg.seq));
  }
  std::vector<int>* order;
};

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsRunInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesDuringExecution) {
  Simulator sim;
  Millis seen = -1.0;
  sim.schedule_after(42.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.5);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) sim.schedule_after(10.0, hop);
  };
  sim.schedule_after(0.0, hop);
  sim.run();
  EXPECT_EQ(hops, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 40.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<Millis> fired;
  sim.schedule_at(10.0, [&] { fired.push_back(10.0); });
  sim.schedule_at(50.0, [&] { fired.push_back(50.0); });
  sim.schedule_at(90.0, [&] { fired.push_back(90.0); });

  sim.run_until(50.0);
  EXPECT_EQ(fired.size(), 2u);  // boundary event included
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(100.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, ProcessedCountsEveryEvent) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(1.0 * i, [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 7u);
}

TEST(Simulator, TypedDeliveriesInterleaveWithActionsInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  RecordingSink sink(order);
  wire::Message msg;

  // Same timestamp, alternating kinds: dispatch must follow insertion order
  // regardless of the event's representation.
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
    } else {
      msg.seq = static_cast<std::uint64_t>(i);
      sim.schedule_delivery_at(5.0, sink, Address::client(ClientId{0}),
                               Address::client(ClientId{1}), sim.share(msg),
                               msg.subscriber, msg.weight);
    }
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, MixedEventOrderingPropertyRandomized) {
  // Property: for any mix of typed and generic events at clashing
  // timestamps, dispatch order equals a stable sort by time — i.e. the
  // (time, seq) FIFO contract, bit for bit.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Simulator sim;
    std::vector<int> order;
    RecordingSink sink(order);
    std::vector<std::pair<Millis, int>> scheduled;  // (time, marker)

    const int n = 100;
    wire::Message msg;
    for (int i = 0; i < n; ++i) {
      // A handful of distinct instants guarantees plenty of ties.
      const Millis t = 5.0 * static_cast<double>(rng.uniform_int(0, 4));
      scheduled.emplace_back(t, i);
      if (rng.uniform_int(0, 1) == 0) {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
      } else {
        msg.seq = static_cast<std::uint64_t>(i);
        sim.schedule_delivery_at(t, sink, Address::client(ClientId{0}),
                                 Address::client(ClientId{1}),
                                 sim.share(msg), msg.subscriber, msg.weight);
      }
    }
    sim.run();

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(order.size(), scheduled.size());
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
      EXPECT_EQ(order[i], scheduled[i].second) << "trial " << trial;
    }
    EXPECT_EQ(sim.processed(), static_cast<std::uint64_t>(n));
  }
}

TEST(Simulator, DeliveryHandlersCanScheduleFurtherEvents) {
  // Pool-reuse path: a delivery dispatch schedules both another delivery
  // and an action, exercising slot recycling mid-dispatch.
  Simulator sim;
  std::vector<int> order;
  struct ChainSink : DeliverySink {
    Simulator* sim;
    std::vector<int>* order;
    void deliver(const DeliveryEvent& event) override {
      order->push_back(static_cast<int>(event.msg.seq));
      if (event.msg.seq < 3) {
        wire::Message next = event.msg;
        ++next.seq;
        sim->schedule_delivery_after(1.0, *this, event.from, event.to,
                                     sim->share(next), next.subscriber,
                                     next.weight);
        sim->schedule_after(0.5, [this] { order->push_back(-1); });
      }
    }
  };
  ChainSink sink;
  sink.sim = &sim;
  sink.order = &order;
  wire::Message msg;
  msg.seq = 0;
  sim.schedule_delivery_at(0.0, sink, Address::client(ClientId{0}),
                           Address::client(ClientId{1}), sim.share(msg),
                           msg.subscriber, msg.weight);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, -1, 2, -1, 3}));
}

TEST(Simulator, LateScheduleBeforeRungCoverageStaysOrdered) {
  // Regression: run_until can stop with the clock far below the rung's
  // start (the rung was built from far-future events). A later schedule
  // below rung_start_ would produce a negative bucket index; it must go to
  // the near heap, not be cast to an out-of-range size_t.
  Simulator sim;
  std::vector<Millis> fired;
  sim.schedule_at(5000.0, [&] { fired.push_back(5000.0); });
  sim.run_until(1000.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1000.0);
  sim.schedule_at(1100.0, [&] { fired.push_back(1100.0); });
  sim.schedule_at(1050.0, [&] { fired.push_back(1050.0); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Millis>{1050.0, 1100.0, 5000.0}));
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_at(25.0, [&] {
    sim.schedule_after(0.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 25.0); });
  });
  sim.run();
  EXPECT_EQ(sim.processed(), 2u);
}

/// Schedules actions and fan-out deliveries with unique markers and checks
/// that they dispatch in the stable-sort-by-time order of scheduling, with
/// each delivery carrying its own per-target subscriber stamp and weight
/// over the shared payload.
class LadderOrderingHarness : public DeliverySink {
 public:
  explicit LadderOrderingHarness(std::uint64_t seed) : rng(seed) {}

  /// One fan-out: a shared message, one event per time in `times`; about
  /// one in four is an action instead of a delivery.
  void fanout(const std::vector<Millis>& times) {
    message_.seq = ++fanouts_;
    const Simulator::SharedMessage shared = sim.share(message_);
    for (const Millis t : times) {
      const int marker = static_cast<int>(scheduled_.size());
      scheduled_.emplace_back(t, marker);
      fanout_of_.push_back(fanouts_);
      if (rng.uniform_int(0, 3) == 0) {
        weights_.push_back(0);
        sim.schedule_at(t, [this, marker] { order_.push_back(marker); });
        continue;
      }
      const auto weight = static_cast<std::uint32_t>(marker % 7 + 1);
      weights_.push_back(weight);
      sim.schedule_delivery_at(t, *this, Address::region(RegionId{0}),
                               Address::client(ClientId{1}), shared,
                               ClientId{marker}, weight);
    }
  }
  void event(Millis t) { fanout({t}); }

  void deliver(const DeliveryEvent& delivery) override {
    const int marker = delivery.msg.subscriber.value();
    order_.push_back(marker);
    const auto index = static_cast<std::size_t>(marker);
    ASSERT_LT(index, weights_.size());
    EXPECT_EQ(delivery.msg.weight, weights_[index]);
    EXPECT_EQ(delivery.msg.seq, fanout_of_[index]);
  }

  [[nodiscard]] std::size_t scheduled() const { return scheduled_.size(); }

  void expect_stable_order() {
    std::vector<std::pair<Millis, int>> expected = scheduled_;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(order_.size(), expected.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (order_[i] != expected[i].second && ++mismatches <= 5) {
        ADD_FAILURE() << "position " << i << ": got marker " << order_[i]
                      << ", expected " << expected[i].second << " at t="
                      << expected[i].first;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(sim.processed(), static_cast<std::uint64_t>(expected.size()));
    EXPECT_EQ(sim.pending(), 0u);
  }

  Simulator sim;
  Rng rng;

 private:
  wire::Message message_;
  std::uint64_t fanouts_ = 0;
  std::vector<std::pair<Millis, int>> scheduled_;  // (time, marker)
  std::vector<std::uint32_t> weights_;     // by marker; 0 for actions
  std::vector<std::uint64_t> fanout_of_;   // by marker: its message's seq
  std::vector<int> order_;
};

std::int64_t rng_int(Rng& rng, double lo, double hi) {
  return rng.uniform_int(static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi));
}

TEST(Simulator, LadderFanOutOrderingPropertyRandomized) {
  // Property: fan-out bursts piling into an already-built rung spawn child
  // rungs (depth >= 2 and >= 3 here) and the store still pops exactly the
  // (time, seq) order — with heavy ties, ties on bucket boundaries, times
  // one ulp either side of bucket boundaries, mixed actions and
  // deliveries, and run_until stopping inside a child rung's parent bucket
  // followed by schedules below the child's coverage.
  for (const std::uint64_t seed : {7u, 8u}) {
    LadderOrderingHarness h(seed);
    // Random times avoid two gaps, so the runs below can stop inside a
    // bucket with nothing scheduled between the stop and the next event.
    const auto in_gap = [](Millis t) {
      return (t >= 325.0 && t < 345.0) || (t >= 470.0 && t < 500.0);
    };
    // Quarter-ms grid: plenty of exact ties, including on 666.0, the
    // boundary between the first rung's buckets 1 and 2.
    const auto grid_time = [&](Millis lo, Millis hi) {
      for (;;) {
        const Millis t =
            0.25 * static_cast<double>(rng_int(h.rng, lo * 4, hi * 4));
        if (!in_gap(t)) return t;
      }
    };
    const Millis latencies[] = {0.0, 12.5, 12.5, 40.0, 75.25, 150.0};
    const auto burst = [&](Millis lo, Millis hi, int targets) {
      std::vector<Millis> times;
      const Millis base = grid_time(lo, hi);
      for (int k = 0; k < targets; ++k) {
        const Millis t = base + latencies[rng_int(h.rng, 0, 5)];
        times.push_back(in_gap(t) ? base : t);
      }
      h.fanout(times);
    };

    // The first rung: 5k far-future events from 0.0 to 999.0 give three
    // buckets of width exactly 333.
    h.event(0.0);
    h.event(999.0);
    for (int i = 0; i < 5000; ++i) h.event(grid_time(0.0, 998.0));
    h.sim.run_until(1.0);
    ASSERT_EQ(SimulatorPeer::depth(h.sim), 1u);
    ASSERT_EQ(SimulatorPeer::rung(h.sim, 0).width, 333.0);

    // >= 10^5 events into the built rung: 40-target fan-outs, a dense
    // cluster just above 500 (with exact ties inside it), a pile of ties
    // at 600 and at the bucket boundary 666.
    const std::size_t before_burst = h.scheduled();
    while (h.scheduled() - before_burst < 70000) burst(1.0, 849.0, 40);
    for (int i = 0; i < 20000; ++i) {
      h.event(i % 7 == 0 ? 500.005 : h.rng.uniform(500.0, 500.01));
    }
    for (int i = 0; i < 10000; ++i) h.event(600.0);
    for (int i = 0; i < 2000; ++i) h.event(666.0);
    ASSERT_GE(h.scheduled() - before_burst, 100000u);

    // Stop inside bucket 1 ([333, 666)) but below its earliest event: the
    // bucket has just been spread over a child rung starting at >= 345.
    h.sim.run_until(335.0);
    ASSERT_GE(SimulatorPeer::depth(h.sim), 2u);
    const SimulatorPeer::RungView child = SimulatorPeer::rung(h.sim, 1);
    ASSERT_GE(child.start, 345.0);
    for (int i = 0; i < 300; ++i) h.event(h.rng.uniform(335.0, 345.0));
    // `t` and its two floating-point neighbours, outside the gaps.
    const auto with_neighbours = [&](Millis t) {
      constexpr Millis kInf = std::numeric_limits<Millis>::infinity();
      std::vector<Millis> times;
      for (const Millis near :
           {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)}) {
        if (!in_gap(near)) times.push_back(near);
      }
      return times;
    };
    for (std::size_t k = child.cur; k <= child.count; ++k) {
      h.fanout(with_neighbours(child.start +
                               static_cast<double>(k) * child.width));
    }
    h.fanout(with_neighbours(666.0));
    for (int i = 0; i < 100; ++i) burst(335.0, 849.0, 40);

    // Stop just below the cluster: its child bucket has been spread over a
    // grandchild rung starting at >= 500.
    h.sim.run_until(499.99);
    ASSERT_GE(SimulatorPeer::depth(h.sim), 3u);
    const SimulatorPeer::RungView grandchild = SimulatorPeer::rung(h.sim, 2);
    ASSERT_GE(grandchild.start, 500.0);
    for (int i = 0; i < 200; ++i) h.event(h.rng.uniform(499.99, 500.0));
    for (std::size_t k = grandchild.cur; k <= grandchild.count; ++k) {
      h.fanout(with_neighbours(grandchild.start +
                               static_cast<double>(k) * grandchild.width));
    }
    for (int i = 0; i < 500; ++i) h.event(500.005);
    for (int i = 0; i < 50; ++i) burst(500.0, 849.0, 40);

    h.sim.run();
    h.expect_stable_order();
  }
}

/// What a sink saw of one delivery.
struct Seen {
  std::uint64_t seq;
  std::int32_t subscriber;
  std::uint32_t weight;
  Bytes bytes;
  friend bool operator==(const Seen&, const Seen&) = default;
};

TEST(Simulator, HandlerFanOutReusesTheJustReleasedPayloadSlot) {
  // The last delivery of fan-out A releases A's payload slot before its
  // handler runs. The handler opens fan-out B, which takes that very slot
  // (LIFO free list), while it still reads A through its own view; every
  // delivery of B sees B's message with its own stamp and weight.
  struct ReplySink : DeliverySink {
    Simulator* sim = nullptr;
    std::vector<Seen> seen;
    wire::Message reply;
    std::uint32_t slot_a = 0;
    std::uint32_t slot_b = 0;
    void deliver(const DeliveryEvent& event) override {
      seen.push_back({event.msg.seq, event.msg.subscriber.value(),
                      event.msg.weight, event.msg.payload_bytes});
      if (event.msg.seq != 1 || event.msg.subscriber != ClientId{11}) return;
      reply.seq = 2;
      reply.payload_bytes = 222;
      const Simulator::SharedMessage shared = sim->share(reply);
      for (int k = 0; k < 3; ++k) {
        sim->schedule_delivery_after(1.0, *this, event.to, event.from, shared,
                                     ClientId{20 + k},
                                     static_cast<std::uint32_t>(k + 1));
      }
      slot_b = SimulatorPeer::share_slot(*sim);
      EXPECT_EQ(event.msg.seq, 1u);
      EXPECT_EQ(event.msg.payload_bytes, 111u);
    }
  };
  Simulator sim;
  ReplySink sink;
  sink.sim = &sim;
  wire::Message a;
  a.seq = 1;
  a.payload_bytes = 111;
  const Simulator::SharedMessage shared = sim.share(a);
  for (const std::int32_t subscriber : {10, 11}) {
    sim.schedule_delivery_at(1.0, sink, Address::client(ClientId{0}),
                             Address::region(RegionId{0}), shared,
                             ClientId{subscriber}, 5);
  }
  sink.slot_a = SimulatorPeer::share_slot(sim);
  sim.run();

  EXPECT_EQ(sink.slot_b, sink.slot_a);
  EXPECT_EQ(sink.seen, (std::vector<Seen>{{1, 10, 5, 111},
                                          {1, 11, 5, 111},
                                          {2, 20, 1, 222},
                                          {2, 21, 2, 222},
                                          {2, 22, 3, 222}}));
}

TEST(SlotPoolDeathTest, SlotIdsStopAtTheTwentyFourBitLimit) {
  // The store's payload slab, delivery records and actions are all
  // SlotPools (see SimulatorPeer), so this one check bounds every slot id
  // by the 24-bit field of the queue entry.
  SlotPool<std::uint8_t> pool;
  for (std::size_t i = 0; i < SlotPool<std::uint8_t>::kCapacity; ++i) {
    (void)pool.acquire();
  }
  EXPECT_DEATH((void)pool.acquire(), "kCapacity");
  pool.release(5);  // recycled slots stay available at the limit
  EXPECT_EQ(pool.acquire(), 5u);
}

}  // namespace
}  // namespace multipub::net
