// Bounded per-topic replay ring (DESIGN.md §15): ring semantics against a
// naive map reference, wrap-around, eviction-past-request behaviour, and
// the weight-carrying flock replay path through a real broker.
#include "broker/replay_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "broker/broker.h"
#include "common/rng.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "testutil.h"

namespace multipub::broker {
namespace {

using testutil::TinyWorld;

wire::Message publication(std::uint64_t seq, std::uint64_t key = 0) {
  wire::Message msg;
  msg.type = wire::MessageType::kPublish;
  msg.topic = TopicId{0};
  msg.publisher = ClientId{1};
  msg.seq = seq;
  msg.payload_bytes = 100;
  msg.key = key;
  return msg;
}

TEST(ReplayRing, AppendStampsStrictlyMonotoneOneBasedSequences) {
  ReplayRing ring(8);
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_EQ(ring.oldest_retained(), 1u);  // empty: head + 1
  EXPECT_EQ(ring.append(publication(10)), 1u);
  EXPECT_EQ(ring.append(publication(11)), 2u);
  EXPECT_EQ(ring.head(), 2u);
  EXPECT_EQ(ring.oldest_retained(), 1u);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(ReplayRing, FindReturnsTheEntryStampedWithItsRingSequence) {
  ReplayRing ring(8);
  ring.append(publication(40));
  ring.append(publication(41));
  const wire::Message* entry = ring.find(2);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->seq, 41u);
  EXPECT_EQ(entry->delivery_seq, 2u);
  EXPECT_EQ(ring.find(0), nullptr);
  EXPECT_EQ(ring.find(3), nullptr);  // never appended
}

TEST(ReplayRing, WrapAroundEvictsOldestAndKeepsTheSuffixIntact) {
  ReplayRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) ring.append(publication(100 + i));

  EXPECT_EQ(ring.head(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.oldest_retained(), 7u);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    EXPECT_EQ(ring.find(seq), nullptr) << "seq " << seq << " should be gone";
  }
  for (std::uint64_t seq = 7; seq <= 10; ++seq) {
    const wire::Message* entry = ring.find(seq);
    ASSERT_NE(entry, nullptr) << "seq " << seq << " should survive";
    EXPECT_EQ(entry->seq, 100 + seq);
    EXPECT_EQ(entry->delivery_seq, seq);
  }
}

TEST(ReplayRing, ClearRestartsTheNumbering) {
  ReplayRing ring(4);
  ring.append(publication(1));
  ring.append(publication(2));
  ring.clear();
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.find(1), nullptr);
  EXPECT_EQ(ring.append(publication(3)), 1u);  // fresh ring, fresh numbering
}

TEST(ReplayRing, RandomizedPublishEvictLookupMatchesNaiveMapReference) {
  // The ring against the obvious implementation: a map from ring sequence
  // to publication, trimmed to the last `capacity` entries. Random
  // interleavings of appends and lookups (in-window, evicted, and future
  // sequences) must agree at every step.
  Rng rng(4096);
  for (const std::size_t capacity : {1u, 3u, 16u, 64u}) {
    ReplayRing ring(capacity);
    std::map<std::uint64_t, wire::Message> reference;
    std::uint64_t reference_head = 0;

    for (int step = 0; step < 500; ++step) {
      if (rng.uniform_int(0, 2) != 0) {  // append twice as often as lookup
        const wire::Message msg =
            publication(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
                        static_cast<std::uint64_t>(rng.uniform_int(0, 7)));
        const std::uint64_t stamped = ring.append(msg);
        reference[++reference_head] = msg;
        if (reference.size() > capacity) reference.erase(reference.begin());
        ASSERT_EQ(stamped, reference_head);
      }
      ASSERT_EQ(ring.head(), reference_head);
      ASSERT_EQ(ring.size(), reference.size());
      ASSERT_EQ(ring.oldest_retained(),
                reference_head - reference.size() + 1);

      // Probe a random sequence around the live window.
      const std::uint64_t probe =
          static_cast<std::uint64_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(reference_head) + 3));
      const wire::Message* got = ring.find(probe);
      const auto ref = reference.find(probe);
      if (ref == reference.end()) {
        ASSERT_EQ(got, nullptr) << "probe " << probe;
      } else {
        ASSERT_NE(got, nullptr) << "probe " << probe;
        ASSERT_EQ(got->seq, ref->second.seq);
        ASSERT_EQ(got->key, ref->second.key);
        ASSERT_EQ(got->delivery_seq, probe);
      }
    }
  }
}

/// Three identical clients near region A, presented as one weight-3 flock.
class OneFlockDirectory : public net::CohortDirectory {
 public:
  [[nodiscard]] std::uint32_t flock_weight(std::int32_t) const override {
    return 3;
  }
  [[nodiscard]] std::span<const ClientId> flock_members(
      std::int32_t) const override {
    return members_;
  }
  [[nodiscard]] Millis flock_latency(std::int32_t,
                                     RegionId) const override {
    return 5.0;
  }
  [[nodiscard]] RegionId flock_home(std::int32_t) const override {
    return TinyWorld::kA;
  }
  [[nodiscard]] RegionId flock_attachment(std::int32_t) const override {
    return TinyWorld::kA;
  }

 private:
  std::vector<ClientId> members_ = {TinyWorld::kNearA, TinyWorld::kNearA2,
                                    TinyWorld::kNearB};
};

/// Broker-level replay service: a reliable broker with the default ring,
/// publications flowing through the normal kPublish path.
class ReplayServiceTest : public ::testing::Test {
 protected:
  static constexpr int kFlock = 3;

  ReplayServiceTest() : broker_(TinyWorld::kA, sim_, transport_) {
    transport_.set_cohort_directory(&directory_);
    broker_.set_reliable(true);
    geo::RegionSet serving;
    serving.add(TinyWorld::kA);
    broker_.set_topic_config(TopicId{0},
                             {serving, core::DeliveryMode::kDirect});
    transport_.register_handler(
        net::Address::client(TinyWorld::kNearA),
        [this](const wire::Message& msg) { client_inbox_.push_back(msg); });
    transport_.register_handler(
        net::Address::cohort(kFlock),
        [this](const wire::Message& msg) { cohort_inbox_.push_back(msg); });
  }

  void subscribe(ClientId subscriber) {
    wire::Message msg;
    msg.type = wire::MessageType::kSubscribe;
    msg.topic = TopicId{0};
    msg.subscriber = subscriber;
    broker_.handle(msg);
  }

  void publish(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      wire::Message msg = publication(next_seq_++);
      msg.published_at = sim_.now();
      broker_.handle(msg);
    }
    sim_.run();
  }

  wire::Message replay_request(std::uint64_t from) {
    wire::Message req;
    req.type = wire::MessageType::kReplayRequest;
    req.topic = TopicId{0};
    req.delivery_seq = from;
    return req;
  }

  TinyWorld world_;
  net::Simulator sim_;
  net::SimTransport transport_{sim_, world_.catalog, world_.backbone,
                               world_.clients};
  OneFlockDirectory directory_;
  Broker broker_;
  std::vector<wire::Message> client_inbox_;
  std::vector<wire::Message> cohort_inbox_;
  std::uint64_t next_seq_ = 0;
};

TEST_F(ReplayServiceTest, RequestPastEvictionServesTheSurvivingSuffix) {
  constexpr std::uint64_t kCapacity = ReplayRing::kDefaultCapacity;
  subscribe(TinyWorld::kNearA);
  publish(kCapacity + 6);  // the ring retains seqs 7..kCapacity + 6
  client_inbox_.clear();

  wire::Message req = replay_request(1);  // asks for evicted history
  req.subscriber = TinyWorld::kNearA;
  broker_.handle(req);
  sim_.run();

  // The documented loss bound: only the retained suffix comes back.
  ASSERT_EQ(client_inbox_.size(), kCapacity);
  for (std::size_t i = 0; i < client_inbox_.size(); ++i) {
    EXPECT_EQ(client_inbox_[i].type, wire::MessageType::kReplayBatch);
    EXPECT_EQ(client_inbox_[i].delivery_seq, 7 + i);
    EXPECT_EQ(client_inbox_[i].weight, 1u);
  }
}

TEST_F(ReplayServiceTest, WholeFlockReplayCarriesTheFlockWeight) {
  subscribe(ClientId{kFlock});  // the cohort plane subscribes under the
                                // flock id
  publish(3);
  cohort_inbox_.clear();

  wire::Message req = replay_request(2);
  req.key = kFlock + 1;  // flock-addressed: key = flock id + 1, subscriber
  req.weight = 3;        // invalid; one weighted batch stands for 3 members
  broker_.handle(req);
  sim_.run();

  ASSERT_EQ(cohort_inbox_.size(), 2u);  // seqs 2 and 3
  for (std::size_t i = 0; i < cohort_inbox_.size(); ++i) {
    EXPECT_EQ(cohort_inbox_[i].type, wire::MessageType::kReplayBatch);
    EXPECT_EQ(cohort_inbox_[i].delivery_seq, 2 + i);
    EXPECT_EQ(cohort_inbox_[i].weight, 3u);
    EXPECT_FALSE(cohort_inbox_[i].subscriber.valid());
  }
}

TEST_F(ReplayServiceTest, MemberStampedFlockReplayIsWeightOne) {
  subscribe(ClientId{kFlock});
  publish(2);
  cohort_inbox_.clear();

  // A member whose cursor diverged from the flock's shared one asks alone:
  // the batches come back stamped for exactly that member at weight 1.
  wire::Message req = replay_request(1);
  req.key = kFlock + 1;
  req.subscriber = ClientId{42};
  req.weight = 1;
  broker_.handle(req);
  sim_.run();

  ASSERT_EQ(cohort_inbox_.size(), 2u);
  for (const wire::Message& batch : cohort_inbox_) {
    EXPECT_EQ(batch.type, wire::MessageType::kReplayBatch);
    EXPECT_EQ(batch.weight, 1u);
    EXPECT_EQ(batch.subscriber, ClientId{42});
  }
}

TEST_F(ReplayServiceTest, ReplayHonoursTheSubscribersContentFilter) {
  wire::Message sub;
  sub.type = wire::MessageType::kSubscribe;
  sub.topic = TopicId{0};
  sub.subscriber = TinyWorld::kNearA;
  sub.filter = wire::KeyFilter{0, 1};  // keys 0 and 1 only
  broker_.handle(sub);

  for (std::uint64_t k = 0; k < 4; ++k) {
    wire::Message msg = publication(next_seq_++, /*key=*/k);
    msg.published_at = sim_.now();
    broker_.handle(msg);
  }
  sim_.run();
  client_inbox_.clear();

  wire::Message req = replay_request(1);
  req.subscriber = TinyWorld::kNearA;
  broker_.handle(req);
  sim_.run();

  // Keys 2 and 3 were never delivered, so they are not replayed either.
  ASSERT_EQ(client_inbox_.size(), 2u);
  EXPECT_EQ(client_inbox_[0].key, 0u);
  EXPECT_EQ(client_inbox_[1].key, 1u);
}

}  // namespace
}  // namespace multipub::broker
