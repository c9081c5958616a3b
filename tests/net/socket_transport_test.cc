// SocketTransport: the live Bus/Clock implementation, tested in-process by
// running two (or three) transports as pseudo-nodes and pumping both event
// loops from the test thread.
#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

namespace multipub::net {
namespace {

wire::Message publication(std::uint64_t seq, Bytes bytes = 1024) {
  wire::Message msg;
  msg.type = wire::MessageType::kPublish;
  msg.topic = TopicId{1};
  msg.publisher = ClientId{3};
  msg.seq = seq;
  msg.payload_bytes = bytes;
  return msg;
}

/// Pumps every transport until `pred` holds or ~budget_ms of wall time
/// passed.
template <typename Pred>
bool pump(std::vector<SocketTransport*> nodes, Pred pred,
          int budget_ms = 5000) {
  for (int elapsed = 0; elapsed < budget_ms; elapsed += 2) {
    for (SocketTransport* node : nodes) node->poll_once(1);
    if (pred()) return true;
  }
  return pred();
}

/// Raw blocking loopback socket with no framing logic of its own: stands in
/// for a peer that writes whatever bytes it likes.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] bool write(const std::vector<std::byte>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// True once the other end closed the connection (EOF or reset).
  [[nodiscard]] bool closed_by_peer() const {
    char byte = 0;
    const ssize_t n = ::recv(fd_, &byte, 1, MSG_DONTWAIT);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(SocketTransport, WallClockAdvances) {
  SocketTransport transport;
  const Millis start = transport.now();
  EXPECT_GE(start, 0.0);
  transport.poll_once(5);
  EXPECT_GT(transport.now(), start);
}

TEST(SocketTransport, TimersFireInOrderFromPollOnce) {
  SocketTransport transport;
  std::vector<int> order;
  transport.schedule_after(4.0, [&] { order.push_back(2); });
  transport.schedule_after(1.0, [&] { order.push_back(1); });
  transport.schedule_after(1.0, [&] { order.push_back(3); });  // FIFO at tie
  for (int i = 0; i < 100 && order.size() < 3; ++i) transport.poll_once(2);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SocketTransport, LocalDeliveryIsDeferredNeverReentrant) {
  SocketTransport transport;
  transport.set_self_node(0);
  transport.set_address_resolver([](Address) { return 0; });
  bool handled = false;
  transport.register_handler(Address::region(RegionId{0}),
                             [&](const wire::Message&) { handled = true; });
  transport.send(Address::client(ClientId{1}), Address::region(RegionId{0}),
                 publication(1));
  EXPECT_FALSE(handled) << "handler ran inside send()";
  for (int i = 0; i < 100 && !handled; ++i) transport.poll_once(2);
  EXPECT_TRUE(handled);
  EXPECT_EQ(transport.delivered_count(), 1u);
}

TEST(SocketTransport, RoutesBetweenTwoNodesByResolver) {
  SocketTransport a;  // node 0
  SocketTransport b;  // node 1
  a.set_self_node(0);
  b.set_self_node(1);
  const auto resolver = [](Address to) {
    return to.kind == Address::Kind::kRegion ? to.id : 0;
  };
  a.set_address_resolver(resolver);
  b.set_address_resolver(resolver);
  ASSERT_TRUE(a.listen(0));
  ASSERT_TRUE(b.listen(0));
  a.add_peer(1, b.port());
  b.add_peer(0, a.port());

  std::vector<wire::Message> inbox;
  b.register_handler(Address::region(RegionId{1}),
                     [&](const wire::Message& m) { inbox.push_back(m); });

  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
           publication(seq));
  }
  ASSERT_TRUE(pump({&a, &b}, [&] { return inbox.size() == 50; }));
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    EXPECT_EQ(inbox[seq].seq, seq);
  }
}

TEST(SocketTransport, SendBeforePeerIsUpIsQueuedAndFlushedOnConnect) {
  SocketTransport a;
  a.set_self_node(0);
  a.set_address_resolver([](Address) { return 1; });

  // Peer declared at a port nobody listens on yet: the connect fails, the
  // frame must wait in the outbox.
  SocketTransport probe;
  ASSERT_TRUE(probe.listen(0));
  const std::uint16_t port = probe.port();
  probe.close_all();  // free the port; node 1 will claim it later

  a.add_peer(1, port);
  a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
         publication(7));
  for (int i = 0; i < 50; ++i) a.poll_once(2);  // connect attempts fail

  SocketTransport b;
  b.set_self_node(1);
  ASSERT_TRUE(b.listen(port));
  std::vector<wire::Message> inbox;
  b.register_handler(Address::region(RegionId{1}),
                     [&](const wire::Message& m) { inbox.push_back(m); });

  ASSERT_TRUE(pump({&a, &b}, [&] { return inbox.size() == 1; }));
  EXPECT_EQ(inbox[0].seq, 7u);
  EXPECT_GE(a.reconnect_count(), 1u);
}

TEST(SocketTransport, BillsRegionEgressLikeTheSimulator) {
  SocketTransport transport;
  transport.set_self_node(0);
  transport.set_address_resolver([](Address) { return 0; });
  transport.register_handler(Address::region(RegionId{1}),
                             [](const wire::Message&) {});
  transport.register_handler(Address::client(ClientId{5}),
                             [](const wire::Message&) {});

  // Region -> region: inter-region meter; region -> client: internet meter;
  // client -> region: not billed. Weight multiplies, control traffic is
  // free.
  wire::Message publish = publication(1, 1000);
  transport.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                 publish);
  wire::Message deliver = publication(2, 1000);
  deliver.type = wire::MessageType::kDeliver;
  deliver.weight = 3;
  transport.send(Address::region(RegionId{0}), Address::client(ClientId{5}),
                 deliver);
  transport.send(Address::client(ClientId{5}), Address::region(RegionId{0}),
                 publication(3, 1000));
  wire::Message control;
  control.type = wire::MessageType::kHeartbeat;
  transport.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
                 control);

  EXPECT_EQ(transport.inter_region_bytes(RegionId{0}), 1000u);
  EXPECT_EQ(transport.internet_bytes(RegionId{0}), 3000u);
  EXPECT_EQ(transport.inter_region_bytes(RegionId{1}), 0u);

  const geo::RegionCatalog catalog = geo::RegionCatalog::ec2_2016();
  transport.set_catalog(&catalog);
  const geo::Region& region = catalog.at(RegionId{0});
  EXPECT_DOUBLE_EQ(transport.total_cost_dollars(),
                   1000.0 * region.alpha_per_byte() +
                       3000.0 * region.beta_per_byte());
}

TEST(SocketTransport, DrainReportsIdleOnceTrafficStops) {
  SocketTransport a;
  SocketTransport b;
  a.set_self_node(0);
  b.set_self_node(1);
  const auto resolver = [](Address to) { return to.id; };
  a.set_address_resolver(resolver);
  b.set_address_resolver(resolver);
  ASSERT_TRUE(b.listen(0));
  a.add_peer(1, b.port());
  std::uint64_t got = 0;
  b.register_handler(Address::region(RegionId{1}),
                     [&](const wire::Message&) { ++got; });
  a.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
         publication(1));
  ASSERT_TRUE(pump({&a, &b}, [&] { return got == 1; }));
  EXPECT_TRUE(b.drain(/*idle_ms=*/30.0, /*budget_ms=*/2000.0));
}

TEST(SocketTransport, MalformedInboundStreamClosesOnlyThatConnection) {
  SocketTransport good;    // node 0: a well-behaved peer
  SocketTransport server;  // node 1
  good.set_self_node(0);
  server.set_self_node(1);
  const auto resolver = [](Address to) { return to.id; };
  good.set_address_resolver(resolver);
  server.set_address_resolver(resolver);
  ASSERT_TRUE(server.listen(0));
  good.add_peer(1, server.port());

  std::vector<wire::Message> inbox;
  server.register_handler(Address::region(RegionId{1}),
                          [&](const wire::Message& m) { inbox.push_back(m); });
  const auto send_good = [&](std::uint64_t seq) {
    good.send(Address::region(RegionId{0}), Address::region(RegionId{1}),
              publication(seq));
  };
  send_good(0);
  ASSERT_TRUE(pump({&good, &server}, [&] { return inbox.size() == 1; }));

  // One full record's worth of bytes each (12-byte envelope + codec frame):
  // garbage the codec rejects, then a valid frame behind a zeroed envelope.
  constexpr std::size_t kEnvelopeBytes = 12;
  const std::vector<std::byte> garbage(kEnvelopeBytes + wire::kEncodedSize,
                                       std::byte{0xFF});
  std::vector<std::byte> bad_envelope(kEnvelopeBytes, std::byte{0});
  const wire::EncodedMessage frame = wire::encode(publication(99));
  bad_envelope.insert(bad_envelope.end(), frame.begin(), frame.end());

  std::uint64_t seq = 1;
  for (const auto& bytes : {garbage, bad_envelope}) {
    RawPeer raw(server.port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.write(bytes));
    EXPECT_TRUE(pump({&good, &server}, [&] { return raw.closed_by_peer(); }))
        << "malformed connection left open";
    // The same transport keeps serving the well-behaved peer.
    send_good(seq);
    ASSERT_TRUE(
        pump({&good, &server}, [&] { return inbox.size() == seq + 1; }));
    EXPECT_EQ(inbox.back().seq, seq);
    ++seq;
  }
  EXPECT_EQ(server.stats().frames_received, inbox.size());
  EXPECT_EQ(server.delivered_count(), inbox.size());
}

}  // namespace
}  // namespace multipub::net
