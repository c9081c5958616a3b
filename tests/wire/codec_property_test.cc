// Property test: encode/decode is a bijection on the message domain.
//
// Round-trips every MessageType — including the weighted cohort messages
// and the node-lifecycle protocol — across boundary weights and sequence
// numbers, first through the codec directly and then between two
// SocketTransport nodes over real loopback TCP (the production envelope,
// pooled send segments and StreamDecoder), so a field added to Message but
// forgotten in the codec (the fate of `weight` before v3) fails here
// immediately.
#include <gtest/gtest.h>

#include <vector>

#include "net/socket_transport.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace multipub::wire {
namespace {

constexpr MessageType kAllTypes[] = {
    MessageType::kSubscribe,       MessageType::kUnsubscribe,
    MessageType::kPublish,         MessageType::kForward,
    MessageType::kDeliver,         MessageType::kConfigUpdate,
    MessageType::kPing,            MessageType::kPong,
    MessageType::kLatencyReport,   MessageType::kNodeHello,
    MessageType::kNodeWelcome,     MessageType::kPeerInfo,
    MessageType::kHeartbeat,       MessageType::kPhaseStart,
    MessageType::kPhaseDone,       MessageType::kReportPublisher,
    MessageType::kReportSubscriber, MessageType::kNodeBye,
    MessageType::kReportEnd,       MessageType::kReplayRequest,
    MessageType::kReplayBatch,     MessageType::kStateSnapshot,
    MessageType::kStateDelta,
};

constexpr std::uint32_t kBoundaryWeights[] = {0, 1, 2, 0xFFFFFFFFu};
constexpr std::uint64_t kBoundarySeqs[] = {0, 1, (std::uint64_t{1} << 39) - 1,
                                           ~std::uint64_t{0}};

/// Every combination of type x boundary weight x boundary seq, with the
/// remaining fields varied deterministically so no two messages collide.
std::vector<Message> boundary_messages() {
  std::vector<Message> out;
  int salt = 0;
  for (MessageType type : kAllTypes) {
    for (std::uint32_t weight : kBoundaryWeights) {
      for (std::uint64_t seq : kBoundarySeqs) {
        Message msg;
        msg.type = type;
        msg.topic = TopicId{salt % 7};
        msg.publisher = ClientId{salt % 11};
        msg.subscriber = ClientId{-1 + salt % 3};
        msg.seq = seq;
        msg.published_at = 0.25 * static_cast<double>(salt);
        msg.payload_bytes = static_cast<Bytes>(salt) << 10;
        msg.config_regions = geo::RegionSet(0x5A5A5A5Au ^ salt);
        msg.config_mode = salt % 2 == 0 ? WireMode::kDirect : WireMode::kRouted;
        msg.key = ~static_cast<std::uint64_t>(salt);
        msg.filter = {static_cast<std::uint64_t>(salt),
                      ~std::uint64_t{0} - static_cast<std::uint64_t>(salt)};
        msg.weight = weight;
        // The v4 field: exercised on every kind (the codec carries it
        // unconditionally), with its own boundary sweep below.
        msg.delivery_seq = ~seq + static_cast<std::uint64_t>(salt);
        out.push_back(msg);
        ++salt;
      }
    }
  }
  return out;
}

TEST(CodecProperty, EveryKindAndBoundaryRoundTripsThroughTheCodec) {
  for (const Message& msg : boundary_messages()) {
    const auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value()) << to_string(msg.type);
    EXPECT_EQ(*decoded, msg) << to_string(msg.type) << " weight=" << msg.weight
                             << " seq=" << msg.seq;
  }
}

TEST(CodecProperty, DeliverySeqSurvivesTheWireAtEveryBoundary) {
  // The exact regression codec v4 exists for: the broker's replay-ring
  // stamp must survive the frame on the kinds the reliability protocol
  // rides on.
  for (MessageType type :
       {MessageType::kDeliver, MessageType::kForward,
        MessageType::kReplayRequest, MessageType::kReplayBatch,
        MessageType::kStateSnapshot, MessageType::kStateDelta}) {
    for (std::uint64_t stamp : kBoundarySeqs) {
      Message msg;
      msg.type = type;
      msg.delivery_seq = stamp;
      const auto decoded = decode(encode(msg));
      ASSERT_TRUE(decoded.has_value()) << to_string(type);
      EXPECT_EQ(decoded->delivery_seq, stamp) << to_string(type);
    }
  }
}

TEST(CodecProperty, ReservedWordRejectionSurvivesTheV4Extension) {
  // delivery_seq lives at offset 80, AFTER the reserved word at 76: the v4
  // extension must not have repurposed (or stopped checking) the reserved
  // word. Every single-bit pollution of it must still be rejected.
  Message msg;
  msg.type = MessageType::kReplayBatch;
  msg.delivery_seq = 0x0123456789ABCDEFull;
  auto frame = encode(msg);
  ASSERT_TRUE(decode(frame).has_value());
  for (int bit = 0; bit < 32; ++bit) {
    auto polluted = frame;
    polluted[76 + static_cast<std::size_t>(bit) / 8] |=
        static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(decode(polluted).has_value()) << "bit " << bit;
  }
}

TEST(CodecProperty, WeightSurvivesTheWire) {
  // The exact regression codec v3 exists for: a cohort fan-out message's
  // weight must not silently collapse back to 1.
  Message cohort;
  cohort.type = MessageType::kDeliver;
  cohort.weight = 4096;
  const auto decoded = decode(encode(cohort));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->weight, 4096u);
}

TEST(CodecProperty, EveryKindAndBoundaryRoundTripsThroughALoopbackPair) {
  const std::vector<Message> sent = boundary_messages();

  // Node 0 sends from a client address (never billed) to region 1, which
  // the resolver places on node 1: every message crosses the socket.
  net::SocketTransport sender;
  net::SocketTransport receiver;
  sender.set_self_node(0);
  receiver.set_self_node(1);
  const auto resolver = [](net::Address to) { return to.id; };
  sender.set_address_resolver(resolver);
  receiver.set_address_resolver(resolver);
  ASSERT_TRUE(receiver.listen(0));
  sender.add_peer(1, receiver.port());

  const net::Address to = net::Address::region(RegionId{1});
  std::vector<Message> inbox;
  receiver.register_handler(to, [&](const Message& m) { inbox.push_back(m); });

  for (const Message& msg : sent) {
    sender.send(net::Address::client(ClientId{0}), to, msg);
  }
  for (int round = 0; round < 2000 && inbox.size() < sent.size(); ++round) {
    sender.poll_once(1);
    receiver.poll_once(1);
  }
  ASSERT_EQ(inbox.size(), sent.size());
  EXPECT_EQ(receiver.stats().frames_received, sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(inbox[i], sent[i]) << "index " << i;
  }
}

}  // namespace
}  // namespace multipub::wire
