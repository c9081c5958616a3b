// The batched socket hot path (DESIGN.md §16) against its contract: the
// encode-once/patch-per-target fan-out stamps exactly what the per-target
// loop stamps, billing and counters are bit-identical to the unbatched
// reference, coalescing provably reduces syscalls, partial vectored writes
// resume mid-frame, and the reconnect backoff follows its schedule
// deterministically. The simulated transport's fan-out, which shares one
// stored message across its targets, is held to the per-target send() loop
// the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::net {
namespace {

wire::Message publication(std::uint64_t seq, Bytes bytes = 512) {
  wire::Message msg;
  msg.type = wire::MessageType::kForward;
  msg.topic = TopicId{2};
  msg.publisher = ClientId{9};
  msg.subscriber = ClientId{55};
  msg.seq = seq;
  msg.payload_bytes = bytes;
  return msg;
}

template <typename Pred>
bool pump(std::vector<SocketTransport*> nodes, Pred pred,
          int budget_ms = 5000) {
  for (int elapsed = 0; elapsed < budget_ms; elapsed += 2) {
    for (SocketTransport* node : nodes) node->poll_once(1);
    if (pred()) return true;
  }
  return pred();
}

/// A connected loopback pair: node 0 sends, node 1 hosts every client,
/// cohort and region 1.
struct Pair {
  SocketTransport a;  // node 0
  SocketTransport b;  // node 1

  explicit Pair(bool batching) {
    a.set_self_node(0);
    b.set_self_node(1);
    a.set_batching(batching);
    b.set_batching(batching);
    const auto resolver = [](Address to) {
      return to.kind == Address::Kind::kRegion ? to.id : 1;
    };
    a.set_address_resolver(resolver);
    b.set_address_resolver(resolver);
    EXPECT_TRUE(b.listen(0));
    a.add_peer(1, b.port());
  }
};

TEST(TransportBatching, FanOutStampsPerTargetLikeThePerTargetLoop) {
  Pair pair(/*batching=*/true);
  std::map<std::int32_t, std::vector<wire::Message>> by_client;
  std::vector<wire::Message> at_cohort;
  for (std::int32_t c = 0; c < 3; ++c) {
    pair.b.register_handler(Address::client(ClientId{c}),
                            [&by_client, c](const wire::Message& m) {
                              by_client[c].push_back(m);
                            });
  }
  pair.b.register_handler(Address::cohort(17),
                          [&at_cohort](const wire::Message& m) {
                            at_cohort.push_back(m);
                          });

  const std::vector<Address> targets = {
      Address::client(ClientId{0}), Address::client(ClientId{1}),
      Address::cohort(17), Address::client(ClientId{2})};
  pair.a.send_batch(Address::region(RegionId{0}), targets, publication(41),
                    wire::MessageType::kDeliver);

  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] {
    return pair.b.delivered_count() == targets.size();
  }));
  for (std::int32_t c = 0; c < 3; ++c) {
    ASSERT_EQ(by_client[c].size(), 1u) << "client " << c;
    // The per-target patch: type stamped, subscriber = the target client.
    EXPECT_EQ(by_client[c][0].type, wire::MessageType::kDeliver);
    EXPECT_EQ(by_client[c][0].subscriber, ClientId{c});
    EXPECT_EQ(by_client[c][0].seq, 41u);
    EXPECT_EQ(by_client[c][0].payload_bytes, 512u);
  }
  // A cohort target keeps the message's own subscriber field (the flock
  // rides in the address, not the subscriber id).
  ASSERT_EQ(at_cohort.size(), 1u);
  EXPECT_EQ(at_cohort[0].type, wire::MessageType::kDeliver);
  EXPECT_EQ(at_cohort[0].subscriber, ClientId{55});
}

/// Drives identical mixed traffic (point-to-point sends, remote fan-out,
/// weighted cohort fan-out) through one pair and returns its aggregates.
struct Aggregates {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Bytes inter_region = 0;
  Bytes internet = 0;
};

Aggregates run_mixed_traffic(bool batching) {
  Pair pair(batching);
  std::uint64_t received = 0;
  const auto count = [&received](const wire::Message&) { ++received; };
  pair.b.register_handler(Address::region(RegionId{1}), count);
  std::vector<Address> targets;
  for (std::int32_t c = 0; c < 8; ++c) {
    targets.push_back(Address::client(ClientId{c}));
    pair.b.register_handler(targets.back(), count);
  }
  targets.push_back(Address::cohort(3));
  pair.b.register_handler(targets.back(), count);

  const Address from = Address::region(RegionId{0});
  std::uint64_t expected = 0;
  for (std::uint64_t round = 0; round < 40; ++round) {
    pair.a.send(from, Address::region(RegionId{1}), publication(round));
    ++expected;
    wire::Message fan = publication(1000 + round, 300);
    fan.weight = round % 4 == 0 ? 5 : 1;  // weighted cohort rounds
    pair.a.send_batch(from, targets, fan, wire::MessageType::kDeliver);
    expected += targets.size();
    if (round % 8 == 0) {
      pair.a.poll_once(0);
      pair.b.poll_once(0);
    }
  }
  EXPECT_TRUE(pump({&pair.a, &pair.b},
                   [&] { return received == expected; }));

  Aggregates out;
  out.sent = pair.a.sent_count();
  out.delivered = pair.b.delivered_count();
  out.inter_region = pair.a.inter_region_bytes(RegionId{0});
  out.internet = pair.a.internet_bytes(RegionId{0});
  return out;
}

TEST(TransportBatching, BillingAndCountersAreBitIdenticalToUnbatched) {
  const Aggregates batched = run_mixed_traffic(true);
  const Aggregates reference = run_mixed_traffic(false);
  EXPECT_EQ(batched.sent, reference.sent);
  EXPECT_EQ(batched.delivered, reference.delivered);
  EXPECT_EQ(batched.inter_region, reference.inter_region);
  EXPECT_EQ(batched.internet, reference.internet);
  EXPECT_GT(batched.inter_region, 0u);
  EXPECT_GT(batched.internet, 0u);
}

TEST(TransportBatching, ARoundOfFramesCoalescesIntoFewFlushSyscalls) {
  Pair pair(/*batching=*/true);
  std::uint64_t received = 0;
  pair.b.register_handler(Address::region(RegionId{1}),
                          [&received](const wire::Message&) { ++received; });
  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                publication(seq));
  }
  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] { return received == kFrames; }));

  const TransportStats& stats = pair.a.stats();
  EXPECT_EQ(stats.frames_sent, kFrames);
  EXPECT_GT(stats.frames_per_flush(), 1.0);
  EXPECT_LT(stats.flush_syscalls(), kFrames / 2)
      << "batched mode should not pay per-frame syscalls";
  // The whole burst fits one pooled segment chain; the histogram must put
  // mass past the 1-frame bucket.
  std::uint64_t beyond_single = 0;
  for (std::size_t bucket = 1; bucket < stats.flush_frames_hist.size();
       ++bucket) {
    beyond_single += stats.flush_frames_hist[bucket];
  }
  EXPECT_GT(beyond_single, 0u);
  EXPECT_GT(stats.pool_high_water, 0u);
}

TEST(TransportBatching, UnbatchedReferencePaysOneWritePerFrame) {
  Pair pair(/*batching=*/false);
  std::uint64_t received = 0;
  pair.b.register_handler(Address::region(RegionId{1}),
                          [&received](const wire::Message&) { ++received; });
  constexpr std::uint64_t kFrames = 64;
  // Prime the link: one frame, pumped until delivered, so the connection
  // is up and uncongested before the measured burst.
  pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
              publication(9999));
  ASSERT_TRUE(pump({&pair.a, &pair.b}, [&] { return received == 1; }));
  const std::uint64_t baseline = pair.a.stats().flush_syscalls();

  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    pair.a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                publication(seq));
  }
  ASSERT_TRUE(
      pump({&pair.a, &pair.b}, [&] { return received == 1 + kFrames; }));
  // The reference path flushes every frame the moment it is queued: one
  // write syscall per frame.
  EXPECT_GE(pair.a.stats().flush_syscalls() - baseline, kFrames);
}

TEST(TransportBatching, TinySendBufferResumesVectoredWritesMidFrame) {
  // Wired by hand (not via Pair) because the tiny socket buffers must be
  // configured BEFORE add_peer creates the outbound socket.
  SocketTransport a;
  SocketTransport b;
  a.set_self_node(0);
  b.set_self_node(1);
  const auto resolver = [](Address to) {
    return to.kind == Address::Kind::kRegion ? to.id : 1;
  };
  a.set_address_resolver(resolver);
  b.set_address_resolver(resolver);
  // Shrink both socket buffers to a fraction of the burst so sendmsg()
  // keeps accepting partial iovec chains, splitting frames at arbitrary
  // byte offsets across flushes.
  a.set_socket_buffer_bytes(4096);
  b.set_socket_buffer_bytes(4096);
  ASSERT_TRUE(b.listen(0));
  a.add_peer(1, b.port());

  std::vector<std::uint64_t> seqs;
  b.register_handler(Address::region(RegionId{1}),
                     [&seqs](const wire::Message& m) {
                       seqs.push_back(m.seq);
                     });
  constexpr std::uint64_t kFrames = 4000;  // ~400 KB >> both buffers
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
           publication(seq, 64));
  }
  ASSERT_TRUE(pump({&a, &b}, [&] { return seqs.size() == kFrames; }, 20000));

  // Backpressure must delay frames, never tear, drop or reorder them.
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    ASSERT_EQ(seqs[seq], seq) << "stream reordered or torn at " << seq;
  }
  EXPECT_GT(a.stats().partial_flushes, 0u)
      << "the burst was supposed to overrun the tiny socket buffer";
  EXPECT_EQ(a.stats().frames_sent, kFrames);
}

TEST(TransportBatching, LocalFanOutNeverTouchesTheWire) {
  SocketTransport transport;
  transport.set_self_node(0);
  transport.set_address_resolver([](Address) { return 0; });
  std::uint64_t received = 0;
  std::vector<Address> targets;
  for (std::int32_t c = 0; c < 4; ++c) {
    targets.push_back(Address::client(ClientId{c}));
    transport.register_handler(
        targets.back(), [&received](const wire::Message&) { ++received; });
  }
  transport.send_batch(Address::region(RegionId{0}), targets, publication(1),
                       wire::MessageType::kDeliver);
  EXPECT_EQ(received, 0u) << "local delivery must be deferred";
  for (int i = 0; i < 50 && received < targets.size(); ++i) {
    transport.poll_once(1);
  }
  EXPECT_EQ(received, targets.size());
  // The codec and the sockets stayed cold.
  EXPECT_EQ(transport.stats().bytes_sent, 0u);
  EXPECT_EQ(transport.stats().flush_syscalls(), 0u);
  EXPECT_EQ(transport.stats().pool_acquires, 0u);
}

TEST(TransportBackoff, DelayDoublesFromBaseUntilTheCap) {
  Rng rng(7);
  double previous_floor = 0.0;
  for (std::uint32_t attempt = 0; attempt < 24; ++attempt) {
    const double floor =
        std::min(SocketTransport::kBackoffCapMs,
                 SocketTransport::kBackoffBaseMs *
                     static_cast<double>(std::uint64_t{1} << attempt));
    const Millis delay = SocketTransport::backoff_delay_ms(attempt, rng);
    EXPECT_GE(delay, floor) << "attempt " << attempt;
    EXPECT_LT(delay, floor * (1.0 + SocketTransport::kBackoffJitter))
        << "attempt " << attempt;
    EXPECT_GE(floor, previous_floor) << "schedule must never shrink";
    previous_floor = floor;
  }
  // Deep attempts are pinned at the cap (plus jitter), not overflowing.
  const Millis deep = SocketTransport::backoff_delay_ms(1000, rng);
  EXPECT_GE(deep, SocketTransport::kBackoffCapMs);
  EXPECT_LT(deep, SocketTransport::kBackoffCapMs *
                      (1.0 + SocketTransport::kBackoffJitter));
}

TEST(TransportBackoff, JitterIsDeterministicInTheSeed) {
  Rng first(42);
  Rng second(42);
  Rng other(43);
  bool any_differs = false;
  for (std::uint32_t attempt = 0; attempt < 16; ++attempt) {
    const Millis lhs = SocketTransport::backoff_delay_ms(attempt, first);
    const Millis rhs = SocketTransport::backoff_delay_ms(attempt, second);
    EXPECT_EQ(lhs, rhs) << "same seed must give the same schedule";
    if (lhs != SocketTransport::backoff_delay_ms(attempt, other)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs) << "different seeds should jitter differently";
}

/// Three flocks of different weights; no fault plan is installed, so the
/// members are never consulted.
class WeightedFlocks : public CohortDirectory {
 public:
  static constexpr std::uint32_t kWeights[] = {3, 1, 250};

  [[nodiscard]] std::uint32_t flock_weight(std::int32_t flock) const override {
    return kWeights[flock];
  }
  [[nodiscard]] std::span<const ClientId> flock_members(
      std::int32_t) const override {
    return {};
  }
  [[nodiscard]] Millis flock_latency(std::int32_t flock,
                                     RegionId) const override {
    return 7.0 + flock;
  }
  [[nodiscard]] RegionId flock_home(std::int32_t) const override {
    return testutil::TinyWorld::kA;
  }
  [[nodiscard]] RegionId flock_attachment(std::int32_t) const override {
    return testutil::TinyWorld::kA;
  }
};

/// One simulated plane recording every arrival as (target, time, message).
struct SimPlane {
  using Arrival = std::tuple<Address, Millis, wire::Message>;

  testutil::TinyWorld world;
  Simulator sim;
  SimTransport transport{sim, world.catalog, world.backbone, world.clients};
  WeightedFlocks flocks;
  std::vector<Arrival> arrivals;

  explicit SimPlane(std::span<const Address> targets) {
    transport.set_cohort_directory(&flocks);
    for (const Address to : targets) {
      transport.register_handler(to, [this, to](const wire::Message& m) {
        arrivals.emplace_back(to, sim.now(), m);
      });
    }
  }
};

TEST(SimTransportBatching, MixedFanOutStampsLikeThePerTargetSendLoop) {
  // One send_batch over client, region and cohort targets (flock weights
  // 3, 1 and 250) delivers to each target exactly the subscriber stamp and
  // weight the per-target send() loop does, though every delivery shares
  // one stored message. kReplayBatch pins the cohort targets down: they
  // must see the caller's (invalid) subscriber, not the stamp of the
  // client target scheduled before them, or they would be taken for
  // member-addressed replays.
  using testutil::TinyWorld;
  const std::vector<Address> targets = {
      Address::client(TinyWorld::kNearA), Address::region(TinyWorld::kB),
      Address::cohort(0),                 Address::client(TinyWorld::kNearB),
      Address::cohort(2),                 Address::region(TinyWorld::kC),
      Address::cohort(1),                 Address::client(TinyWorld::kNearA2)};
  for (const auto stamped :
       {wire::MessageType::kDeliver, wire::MessageType::kReplayBatch}) {
    SimPlane batch(targets);
    SimPlane loop(targets);
    wire::Message msg;
    msg.type = wire::MessageType::kForward;
    msg.topic = TopicId{4};
    msg.publisher = TinyWorld::kNearC;
    msg.seq = 77;
    msg.payload_bytes = 640;
    const Address from = Address::region(TinyWorld::kA);

    batch.transport.send_batch(from, targets, msg, stamped);
    for (const Address to : targets) {
      wire::Message copy = msg;
      copy.type = stamped;
      if (to.kind == Address::Kind::kClient) copy.subscriber = to.as_client();
      if (to.kind == Address::Kind::kCohort) {
        copy.weight = WeightedFlocks::kWeights[to.id];
      }
      loop.transport.send(from, to, copy);
    }
    batch.sim.run();
    loop.sim.run();

    ASSERT_EQ(batch.arrivals.size(), targets.size());
    EXPECT_EQ(batch.arrivals, loop.arrivals);
    for (const auto& [to, time, got] : batch.arrivals) {
      EXPECT_EQ(got.type, stamped);
      EXPECT_EQ(got.seq, 77u);
      EXPECT_EQ(got.payload_bytes, 640u);
      switch (to.kind) {
        case Address::Kind::kClient:
          EXPECT_EQ(got.subscriber, to.as_client());
          EXPECT_EQ(got.weight, 1u);
          break;
        case Address::Kind::kRegion:
          EXPECT_EQ(got.subscriber, ClientId::invalid());
          EXPECT_EQ(got.weight, 1u);
          break;
        case Address::Kind::kCohort:
          EXPECT_EQ(got.subscriber, ClientId{-1});  // whole-flock sentinel
          EXPECT_EQ(got.weight, WeightedFlocks::kWeights[to.id]);
          break;
      }
    }
    EXPECT_EQ(batch.transport.sent_count(), loop.transport.sent_count());
    EXPECT_EQ(batch.transport.delivered_count(), 3u + 2u + 3u + 1u + 250u);
    EXPECT_EQ(batch.transport.ledger().inter_region_bytes,
              loop.transport.ledger().inter_region_bytes);
    EXPECT_EQ(batch.transport.ledger().internet_bytes,
              loop.transport.ledger().internet_bytes);
  }
}

}  // namespace
}  // namespace multipub::net
