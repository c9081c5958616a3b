// Shared test fixtures: tiny hand-checkable worlds.
//
// Most unit tests want a latency world small enough that expected delivery
// times and costs can be computed with pencil and paper. TinyWorld provides
// 3 regions and 4 clients with round, distinct numbers.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/topic_state.h"
#include "geo/latency.h"
#include "geo/region.h"
#include "sim/fault_schedule.h"

namespace multipub::testutil {

/// Three regions:
///   A (id 0): alpha $0.02/GB, beta $0.09/GB   (cheap, "us-east")
///   B (id 1): alpha $0.09/GB, beta $0.14/GB   (expensive, "tokyo")
///   C (id 2): alpha $0.16/GB, beta $0.25/GB   (most expensive, "sao-paulo")
/// Backbone one-way latencies: A-B 80, A-C 60, B-C 130.
///
/// Four clients (rows of L, latencies to A, B, C):
///   client 0 ("near A"):  10, 100,  80
///   client 1 ("near A2"): 20, 110,  90
///   client 2 ("near B"): 105,  15, 150
///   client 3 ("near C"):  85, 160,  12
struct TinyWorld {
  geo::RegionCatalog catalog;
  geo::InterRegionLatency backbone;
  geo::ClientLatencyMap clients;

  static constexpr RegionId kA{0};
  static constexpr RegionId kB{1};
  static constexpr RegionId kC{2};

  static constexpr ClientId kNearA{0};
  static constexpr ClientId kNearA2{1};
  static constexpr ClientId kNearB{2};
  static constexpr ClientId kNearC{3};

  TinyWorld() {
    catalog = geo::RegionCatalog({
        {RegionId{}, "region-a", "A", 0.02, 0.09},
        {RegionId{}, "region-b", "B", 0.09, 0.14},
        {RegionId{}, "region-c", "C", 0.16, 0.25},
    });
    backbone = geo::InterRegionLatency(3);
    backbone.set(kA, kB, 80.0);
    backbone.set(kA, kC, 60.0);
    backbone.set(kB, kC, 130.0);

    clients = geo::ClientLatencyMap(3);
    add_client({10, 100, 80});
    add_client({20, 110, 90});
    add_client({105, 15, 150});
    add_client({85, 160, 12});
  }

  ClientId add_client(std::vector<Millis> row) {
    return clients.add_client(row);
  }
};

/// A topic over the TinyWorld: publisher near A sending `msg_count`
/// messages of `msg_bytes`, subscribers near A2, B and C.
[[nodiscard]] inline core::TopicState tiny_topic(
    std::uint64_t msg_count = 10, Bytes msg_bytes = 1000,
    double ratio = 75.0, Millis max_t = kUnreachable) {
  core::TopicState topic;
  topic.topic = TopicId{0};
  topic.constraint = {ratio, max_t};
  topic.publishers = {{TinyWorld::kNearA, msg_count, msg_count * msg_bytes}};
  topic.subscribers = core::unit_subscribers(
      {TinyWorld::kNearA2, TinyWorld::kNearB, TinyWorld::kNearC});
  return topic;
}

/// Reconstructs a fault schedule from the literal the chaos harness prints
/// in its oracle reports ("fault ..." lines). Regression tests paste that
/// string verbatim; aborts the test on parse errors so a stale literal is
/// loud, not silently empty.
[[nodiscard]] inline sim::FaultSchedule chaos_schedule(std::string_view text) {
  std::string error;
  auto schedule = sim::parse_fault_schedule(text, &error);
  if (!schedule) {
    ADD_FAILURE() << "bad chaos schedule literal: " << error;
    return {};
  }
  return *schedule;
}

/// FNV-1a (64-bit) over a canonical byte stream: the golden digests that
/// pin simulation observables. Integers hash as 8 little-endian bytes,
/// doubles by their bit pattern (a 1-ulp change shows), strings byte by
/// byte, and every string and vector behind its length, so no element can
/// slide across a boundary unnoticed.
class Digest {
 public:
  Digest& add(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<unsigned char>(value >> shift));
    }
    return *this;
  }
  Digest& add(double value) {
    return add(std::bit_cast<std::uint64_t>(value));
  }
  Digest& add(std::string_view text) {
    add(std::uint64_t{text.size()});
    for (const char c : text) mix(static_cast<unsigned char>(c));
    return *this;
  }
  template <typename T>
  Digest& add(const std::vector<T>& values) {
    add(std::uint64_t{values.size()});
    for (const T& value : values) add(value);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  void mix(unsigned char byte) {
    state_ = (state_ ^ byte) * 0x100000001b3ULL;
  }

  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// A golden test's failure message: the running digest after every round
/// (the last line is the actual digest). A changed constant is located by
/// running the same test on the parent commit and finding the first round
/// that differs.
[[nodiscard]] inline std::string render_chain(
    const std::vector<std::uint64_t>& chain) {
  std::string out;
  char line[48];
  for (std::size_t round = 0; round < chain.size(); ++round) {
    std::snprintf(line, sizeof line, "round %zu: 0x%016llx\n", round,
                  static_cast<unsigned long long>(chain[round]));
    out += line;
  }
  return out;
}

}  // namespace multipub::testutil
