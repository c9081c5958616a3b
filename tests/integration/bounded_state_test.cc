// Bounded dedup state (DESIGN.md §12, §15): every receiver's "seen" book is
// a SeqSet of runs, so a long stream costs one run per (topic, publisher)
// plus one per hole — not one entry per delivery. Each holder gets 10^6
// deliveries of one stream that joins mid-way, re-delivers a stretch through
// a handover overlap, loses a stretch in transit and heals it with one
// replayed batch. Duplicate counts are exactly the re-delivered seqs, and
// no book ever holds more than two runs.
//
// The bus is a test double that delivers nothing by itself: the test hands
// each message straight to the receiver's handler, so the run costs only
// the receivers' books.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <unordered_map>
#include <utility>

#include "broker/broker.h"
#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/subscriber.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "net/bus.h"
#include "testutil.h"

namespace multipub {
namespace {

using testutil::TinyWorld;

/// Keeps handlers and drops every send and timer: the receivers' own
/// control traffic (subscribes, replay requests) goes nowhere.
class DirectBus final : public net::Bus, public net::Clock {
 public:
  void register_handler(net::Address address, Handler handler) override {
    handlers_[address] = std::move(handler);
  }
  void unregister_handler(net::Address address) override {
    handlers_.erase(address);
  }
  void send(net::Address, net::Address, wire::Message) override {}
  void send_batch(net::Address, std::span<const net::Address>,
                  const wire::Message&, wire::MessageType) override {}
  void set_cohort_directory(const net::CohortDirectory* directory) override {
    directory_ = directory;
  }
  [[nodiscard]] const net::CohortDirectory* cohort_directory() const override {
    return directory_;
  }
  [[nodiscard]] Millis now() const override { return 0.0; }
  void schedule_after(Millis, std::function<void()>) override {}

  void deliver(net::Address to, const wire::Message& msg) {
    handlers_.at(to)(msg);
  }

 private:
  std::unordered_map<net::Address, Handler, net::AddressHash> handlers_;
  const net::CohortDirectory* directory_ = nullptr;
};

constexpr std::uint64_t kDeliveries = 1'000'000;
constexpr std::uint64_t kJoin = 1'000;         // the stream's first seq
constexpr std::uint64_t kOverlap = 500;        // handover re-delivery
constexpr std::uint64_t kHole = kJoin + 600'000;
constexpr std::uint64_t kLost = 100;           // lost in transit at kHole
constexpr std::uint64_t kReplayedHeld = 50;    // batch starts below the hole
constexpr std::uint64_t kDuplicates = kOverlap + kReplayedHeld;

enum class Route { kServing, kHandoverOverlap, kReplay };

/// The 10^6-delivery schedule every holder receives, in order.
void drive(const std::function<void(std::uint64_t seq, Route)>& deliver) {
  const std::uint64_t fresh = kDeliveries - kDuplicates - kLost;
  const std::uint64_t last = kJoin + fresh + kLost - 1;
  for (std::uint64_t seq = kJoin; seq <= last; ++seq) {
    if (seq >= kHole && seq < kHole + kLost) continue;  // lost in transit
    deliver(seq, Route::kServing);
    if (seq == kJoin + 300'000) {
      // A make-before-break handover: the old region's in-flight copies of
      // the last kOverlap publications land after the new region's.
      for (std::uint64_t old = seq - kOverlap + 1; old <= seq; ++old) {
        deliver(old, Route::kHandoverOverlap);
      }
    }
    if (seq == kHole + 10'000) {
      for (std::uint64_t r = kHole - kReplayedHeld; r < kHole + kLost; ++r) {
        deliver(r, Route::kReplay);
      }
    }
  }
}

/// Distinct seqs and runs of a per-topic, per-publisher book.
template <typename Book>
std::pair<std::uint64_t, std::size_t> size_and_runs(const Book& book) {
  std::pair<std::uint64_t, std::size_t> out{0, 0};
  for (const auto& [topic, by_publisher] : book) {
    for (const auto& [publisher, seqs] : by_publisher) {
      out.first += seqs.size();
      out.second += seqs.run_count();
    }
  }
  return out;
}

wire::Message publication(std::uint64_t seq, Route route) {
  wire::Message msg;
  msg.type = route == Route::kReplay ? wire::MessageType::kReplayBatch
                                     : wire::MessageType::kDeliver;
  msg.topic = TopicId{0};
  msg.publisher = ClientId{7};
  msg.seq = seq;
  return msg;
}

TEST(BoundedState, SubscriberBookStaysAtTwoRuns) {
  TinyWorld world;
  DirectBus bus;
  client::Subscriber sub(TinyWorld::kNearA, bus, bus, world.clients);
  sub.subscribe(TopicId{0}, core::TopicConfig{geo::RegionSet(0b001)});
  std::size_t max_runs = 0;
  drive([&](std::uint64_t seq, Route route) {
    bus.deliver(net::Address::client(TinyWorld::kNearA),
                publication(seq, route));
    max_runs =
        std::max(max_runs, size_and_runs(sub.seen_publications()).second);
  });
  EXPECT_EQ(sub.duplicate_count(), kDuplicates);
  EXPECT_EQ(sub.unique_count(TopicId{0}), kDeliveries - kDuplicates);
  EXPECT_EQ(max_runs, 2u);  // one run, plus the hole until the replay
  EXPECT_EQ(size_and_runs(sub.seen_publications()).second, 1u);
}

TEST(BoundedState, CohortBookFoldsSplitReplaysIntoTheRun) {
  DirectBus bus;
  Arena arena;
  client::TopicSetPool sets(arena);
  client::ClientRegistry registry(4, 3, 0.0, arena);
  client::CohortPool pool(registry, sets, bus, bus);
  const std::int32_t topics = sets.intern(std::array<TopicId, 1>{TopicId{0}});
  const std::array<Millis, 3> row{10, 100, 80};
  std::array<ClientId, 3> members;
  for (ClientId& member : members) {
    member = registry.add(RegionId{0}, row, topics);
    pool.enroll(member);
  }
  bus.set_cohort_directory(&pool);
  pool.deploy(TopicId{0}, core::TopicConfig{geo::RegionSet(0b001)});
  const std::int32_t flock = pool.flock_of(members[0], TopicId{0});
  std::size_t max_runs = 0;
  drive([&](std::uint64_t seq, Route route) {
    wire::Message msg = publication(seq, route);
    if (route == Route::kReplay) {
      // A fault split the replay into per-member copies: the publication
      // is kept apart until the last member holds it, then joins the run.
      for (const ClientId member : members) {
        msg.subscriber = member;
        bus.deliver(net::Address::cohort(flock), msg);
      }
    } else {
      msg.weight = static_cast<std::uint32_t>(members.size());
      bus.deliver(net::Address::cohort(flock), msg);
    }
    max_runs = std::max(max_runs, pool.seen_run_count());
  });
  EXPECT_EQ(pool.duplicate_weight(), kDuplicates * members.size());
  EXPECT_EQ(pool.flock_complete_count(flock), kDeliveries - kDuplicates);
  EXPECT_EQ(max_runs, 2u);
  EXPECT_EQ(pool.seen_run_count(), 1u);
  bus.set_cohort_directory(nullptr);
}

TEST(BoundedState, ReliableBrokerBookStaysAtTwoRuns) {
  DirectBus bus;
  broker::Broker broker(TinyWorld::kA, bus, bus);
  broker.set_reliable(true);
  // Forwards from two peers: the serving one numbers every publication in
  // its ring (so the lost stretch shows as a ring gap, and the replay
  // carries the original positions); during the handover overlap a
  // draining peer forwards too, with its own numbering.
  std::uint64_t overlap_ring_seq = 0;
  std::uint64_t arrivals = 0;
  std::size_t max_runs = 0;
  const auto book = [&] { return size_and_runs(broker.seen_publications()); };
  drive([&](std::uint64_t seq, Route route) {
    wire::Message msg = publication(seq, route);
    const bool draining = route == Route::kHandoverOverlap;
    msg.type = route == Route::kReplay ? wire::MessageType::kReplayBatch
                                       : wire::MessageType::kForward;
    msg.subscriber = ClientId{draining ? TinyWorld::kC.value()
                                       : TinyWorld::kB.value()};
    msg.delivery_seq = draining ? ++overlap_ring_seq : seq - kJoin + 1;
    bus.deliver(net::Address::region(TinyWorld::kA), msg);
    ++arrivals;
    // The book is one topic and one publisher: reading it is O(1).
    max_runs = std::max(max_runs, book().second);
  });
  EXPECT_EQ(arrivals, kDeliveries);
  EXPECT_EQ(book().first, kDeliveries - kDuplicates);
  EXPECT_EQ(max_runs, 2u);
  EXPECT_EQ(book().second, 1u);
}

}  // namespace
}  // namespace multipub
