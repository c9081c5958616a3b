// Live-transport throughput benchmark: the batched zero-copy socket hot
// path (DESIGN.md §16) against the per-frame-flush reference path, over a
// real loopback node pair in one process.
//
// Two SocketTransports play sender and receiver node; the sender pumps two
// workloads through the wire:
//
//   - publish-heavy: point-to-point kPublish stream, region 0 -> region 1
//     (one frame per send(): the broker-to-broker forwarding shape);
//   - fan-out-heavy: send_batch() of one publication to F client targets
//     homed on the receiver node (the broker-to-subscribers delivery
//     shape, where the batched path encodes once and patches per target).
//
// Both workloads run once per transport mode, freshly constructed; traffic
// is sent in small chunks (256 frames) between event-loop passes so the
// unbatched mode really pays one write syscall per frame instead of hiding
// behind backpressure coalescing. The bench reports messages/s per mode
// plus the syscall/telemetry counters that explain the gap, and writes
// BENCH_transport.json in the shared {"bench", "rows"} shape.
//
// Exit gates:
//   - billed bytes (inter-region and internet meters), sent and delivered
//     counts diverging between the two modes of the same workload fails
//     ALWAYS — batching must be invisible to the billing/counter contract;
//   - a batched row whose frames_per_flush telemetry is not > 1 fails
//     ALWAYS (the telemetry must prove coalescing actually happened);
//   - fan-out batched-over-unbatched speedup below 3x fails on full-size
//     runs (>= 100k fan-out messages; smaller smoke runs publish honest
//     numbers without the gate).
//
// Usage: bench_transport [--publish-msgs N] [--fanout-batches N]
//                        [--fanout F] [--payload BYTES]
//                        [--transport-batching on|off|both]
// (default: 120k publishes, 6000 batches x 32 targets, 200-byte payloads,
// both modes; single-mode runs are for profiling and skip the gates)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "flags.h"
#include "net/address.h"
#include "net/socket_transport.h"
#include "wire/message.h"

using namespace multipub;

namespace {

constexpr std::size_t kChunkFrames = 256;

struct Params {
  std::uint64_t publish_msgs = 120'000;
  std::uint64_t fanout_batches = 6'000;
  std::uint64_t fanout = 32;
  Bytes payload = 200;
};

struct RunResult {
  double wall_ms = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Bytes inter_region_bytes = 0;
  Bytes internet_bytes = 0;
  net::TransportStats stats;

  [[nodiscard]] double msgs_per_sec() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(messages) * 1000.0 / wall_ms;
  }
};

wire::Message publication(const Params& params) {
  wire::Message msg;
  msg.type = wire::MessageType::kPublish;
  msg.topic = TopicId{7};
  msg.publisher = ClientId{1};
  msg.payload_bytes = params.payload;
  return msg;
}

/// One workload run on a fresh loopback pair. `fanout` false = the
/// publish-heavy stream, true = the send_batch fan-out shape.
RunResult run_workload(bool batching, bool fanout, const Params& params) {
  net::SocketTransport sender;   // node 0
  net::SocketTransport receiver; // node 1
  sender.set_self_node(0);
  receiver.set_self_node(1);
  sender.set_batching(batching);
  receiver.set_batching(batching);
  // Regions live on their own node; every client is homed on the receiver.
  const auto resolver = [](net::Address to) {
    return to.kind == net::Address::Kind::kRegion ? to.id : 1;
  };
  sender.set_address_resolver(resolver);
  receiver.set_address_resolver(resolver);
  if (!receiver.listen(0)) {
    std::fprintf(stderr, "cannot listen on loopback\n");
    std::exit(1);
  }
  sender.add_peer(1, receiver.port());

  std::uint64_t received = 0;
  const auto count = [&received](const wire::Message&) { ++received; };
  receiver.register_handler(net::Address::region(RegionId{1}), count);
  std::vector<net::Address> targets;
  for (std::uint64_t c = 0; c < params.fanout; ++c) {
    const net::Address client =
        net::Address::client(ClientId{static_cast<std::int32_t>(c)});
    targets.push_back(client);
    receiver.register_handler(client, count);
  }

  const std::uint64_t expected =
      fanout ? params.fanout_batches * params.fanout : params.publish_msgs;
  const net::Address from = net::Address::region(RegionId{0});
  const net::Address to_region = net::Address::region(RegionId{1});
  wire::Message msg = publication(params);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t produced = 0;
  std::uint64_t seq = 0;
  while (produced < expected) {
    // One chunk of traffic, then one pass of both event loops: small
    // enough that the socket buffer never backpressures the unbatched
    // mode into accidental coalescing.
    std::uint64_t chunk = 0;
    while (produced < expected && chunk < kChunkFrames) {
      msg.seq = seq++;
      if (fanout) {
        sender.send_batch(from, targets, msg, wire::MessageType::kDeliver);
        produced += params.fanout;
        chunk += params.fanout;
      } else {
        sender.send(from, to_region, msg);
        ++produced;
        ++chunk;
      }
    }
    sender.poll_once(0);
    receiver.poll_once(0);
  }
  const auto deadline = start + std::chrono::seconds(120);
  while (received < expected) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "workload stalled: %llu of %llu delivered\n",
                   static_cast<unsigned long long>(received),
                   static_cast<unsigned long long>(expected));
      std::exit(1);
    }
    sender.poll_once(1);
    receiver.poll_once(1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  result.messages = expected;
  result.sent = sender.sent_count();
  result.delivered = receiver.delivered_count();
  result.inter_region_bytes = sender.inter_region_bytes(RegionId{0});
  result.internet_bytes = sender.internet_bytes(RegionId{0});
  result.stats = sender.stats();
  return result;
}

void print_row(const char* workload, bool batching, const RunResult& r) {
  std::printf(
      "%-8s %-9s %9.1f ms %12.0f msg/s  flush_syscalls %9llu  "
      "frames/flush %7.1f\n",
      workload, batching ? "batched" : "unbatched", r.wall_ms,
      r.msgs_per_sec(),
      static_cast<unsigned long long>(r.stats.flush_syscalls()),
      r.stats.frames_per_flush());
}

void add_row(bench::BenchReport& report, const char* workload, bool batching,
             const RunResult& r) {
  report.row()
      .str("workload", workload)
      .boolean("batched", batching)
      .uinteger("messages", r.messages)
      .num("wall_ms", r.wall_ms)
      .num("msgs_per_sec", r.msgs_per_sec())
      .uinteger("sent", r.sent)
      .uinteger("delivered", r.delivered)
      .uinteger("inter_region_bytes", r.inter_region_bytes)
      .uinteger("internet_bytes", r.internet_bytes)
      .uinteger("sendmsg_calls", r.stats.sendmsg_calls)
      .uinteger("send_calls", r.stats.send_calls)
      .uinteger("flush_syscalls", r.stats.flush_syscalls())
      .uinteger("read_calls", r.stats.read_calls)
      .uinteger("bytes_sent", r.stats.bytes_sent)
      .uinteger("frames_sent", r.stats.frames_sent)
      .uinteger("flushes", r.stats.flushes)
      .uinteger("partial_flushes", r.stats.partial_flushes)
      .num("frames_per_flush", r.stats.frames_per_flush())
      .uinteger("pool_acquires", r.stats.pool_acquires)
      .uinteger("pool_high_water", r.stats.pool_high_water)
      .uinteger("syscall_soft_errors", r.stats.syscall_soft_errors);
}

/// The counters batching must not change: the billing/counter contract.
bool identical_contract(const char* workload, const RunResult& on,
                        const RunResult& off) {
  bool ok = true;
  const auto check = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a == b) return;
    std::fprintf(stderr,
                 "FAIL %s: %s diverges between modes (batched %llu, "
                 "unbatched %llu)\n",
                 workload, what, static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };
  check("sent", on.sent, off.sent);
  check("delivered", on.delivered, off.delivered);
  check("inter_region_bytes", on.inter_region_bytes, off.inter_region_bytes);
  check("internet_bytes", on.internet_bytes, off.internet_bytes);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  flags.allow_only({"publish-msgs", "fanout-batches", "fanout", "payload",
                    "transport-batching"});
  Params params;
  const long publish_msgs = flags.get_int(
      "publish-msgs", static_cast<long>(params.publish_msgs));
  const long fanout_batches = flags.get_int(
      "fanout-batches", static_cast<long>(params.fanout_batches));
  const long fanout = flags.get_int("fanout", static_cast<long>(params.fanout));
  const long payload =
      flags.get_int("payload", static_cast<long>(params.payload));
  // nullopt: both modes.
  const std::optional<bool> batching_only =
      flags.get_on_off_both("transport-batching");
  if (fanout < 1 || fanout_batches < 1 || publish_msgs < 1 || payload < 0) {
    flags.error("sizes must be > 0");
  }
  if (flags.print_errors()) return 2;
  params.publish_msgs = static_cast<std::uint64_t>(publish_msgs);
  params.fanout_batches = static_cast<std::uint64_t>(fanout_batches);
  params.fanout = static_cast<std::uint64_t>(fanout);
  params.payload = static_cast<std::uint64_t>(payload);
  const bool run_batched = batching_only.value_or(true);
  const bool run_unbatched = !batching_only.value_or(false);
  const bool both = run_batched && run_unbatched;

  bench::BenchReport report("transport");
  std::printf("bench_transport: loopback node pair, payload %llu B, "
              "fan-out %llu\n",
              static_cast<unsigned long long>(params.payload),
              static_cast<unsigned long long>(params.fanout));

  bool failed = false;
  double fanout_speedup = 0.0;
  for (const bool fanout : {false, true}) {
    const char* workload = fanout ? "fanout" : "publish";
    RunResult on;
    RunResult off;
    if (run_batched) {
      on = run_workload(/*batching=*/true, fanout, params);
      print_row(workload, true, on);
      add_row(report, workload, true, on);
      if (on.stats.frames_per_flush() <= 1.0) {
        std::fprintf(stderr,
                     "FAIL %s: batched frames_per_flush %.2f is not > 1 — "
                     "no coalescing happened\n",
                     workload, on.stats.frames_per_flush());
        failed = true;
      }
    }
    if (run_unbatched) {
      off = run_workload(/*batching=*/false, fanout, params);
      print_row(workload, false, off);
      add_row(report, workload, false, off);
    }
    if (both) {
      if (!identical_contract(workload, on, off)) failed = true;
      const double speedup =
          off.msgs_per_sec() <= 0.0
              ? 0.0
              : on.msgs_per_sec() / off.msgs_per_sec();
      std::printf("%-8s speedup (batched / unbatched): %.2fx\n", workload,
                  speedup);
      if (fanout) fanout_speedup = speedup;
    }
  }

  const bool full_size =
      params.fanout_batches * params.fanout >= 100'000 && both;
  if (full_size && fanout_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL fanout: batched speedup %.2fx below the 3x gate at "
                 "full size\n",
                 fanout_speedup);
    failed = true;
  }

  if (!report.write()) return 1;
  if (failed) return 1;
  std::printf("bench_transport: OK\n");
  return 0;
}
