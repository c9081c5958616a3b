// Quantized latency-row interning (DESIGN.md §12): the compression knob
// behind --quantize-ms.
//
// ClientRegistry interns rows after flooring every entry to the bucket
// (floor(lat / bucket) * bucket), so a wider bucket can only merge rows.
// Along a chain where each bucket is an integer multiple of the previous
// one, every fine bucket is contained in exactly one coarse bucket, which
// makes the folding monotone: distinct rows — and therefore cohorts — never
// increase as the bucket widens. Arbitrary bucket pairs do NOT have that
// containment (values 2 and 3 share a bucket at width 2 but not at width
// 3), so the tests widen along multiple-chains only.
#include "client/client_registry.h"

#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "client/cohort_pool.h"
#include "common/arena.h"
#include "common/rng.h"
#include "sim/live_runner.h"
#include "sim/scenario.h"

namespace multipub {
namespace {

constexpr std::size_t kRegions = 4;

/// Clients scattered around a few base network positions with +-jitter much
/// smaller than the position spacing — the shape quantization is for.
std::vector<std::vector<Millis>> jittered_rows(std::size_t n_clients) {
  Rng rng(1234);
  const std::array<double, 4> bases{20.0, 75.0, 140.0, 260.0};
  std::vector<std::vector<Millis>> rows;
  rows.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    std::vector<Millis> row(kRegions);
    for (std::size_t r = 0; r < kRegions; ++r) {
      row[r] = bases[(c + r) % bases.size()] + rng.uniform(0.0, 3.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::size_t distinct_rows_at(const std::vector<std::vector<Millis>>& rows,
                             Millis bucket) {
  Arena arena;
  client::ClientRegistry registry(rows.size(), kRegions, bucket, arena);
  for (const auto& row : rows) {
    (void)registry.add(RegionId{0}, row, /*topic_set=*/0);
  }
  EXPECT_EQ(registry.size(), rows.size());
  return registry.row_count();
}

TEST(QuantizedFolding, RowFoldingIsMonotoneInTheBucketWidth) {
  const auto rows = jittered_rows(256);

  // 0 (exact) is the finest partition; after it each bucket is a multiple
  // of its predecessor, so the partitions only coarsen.
  const std::array<Millis, 8> buckets{0.0,  0.5,  1.0,   4.0,
                                      8.0, 32.0, 128.0, 1024.0};
  std::vector<std::size_t> counts;
  for (const Millis bucket : buckets) {
    counts.push_back(distinct_rows_at(rows, bucket));
  }

  // Exact interning keeps every jittered row distinct...
  EXPECT_EQ(counts.front(), rows.size());
  // ...folding never reverses as the bucket widens...
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LE(counts[i], counts[i - 1])
        << "bucket " << buckets[i] << "ms grew the row count";
  }
  // ...and a bucket wider than any latency folds the world into one row.
  EXPECT_EQ(counts.back(), 1u);
  // The knob actually bites: somewhere along the chain rows merged.
  EXPECT_LT(counts[3], counts.front());
}

TEST(QuantizedFolding, SubBucketJitterFoldsOntoTheRepresentativeRow) {
  Arena arena;
  client::ClientRegistry registry(3, kRegions, /*row_bucket_ms=*/5.0, arena);
  const std::vector<Millis> first{20.0, 41.0, 62.0, 83.0};
  const std::vector<Millis> near{22.0, 44.0, 61.0, 84.9};   // same buckets
  const std::vector<Millis> far{26.0, 44.0, 61.0, 84.9};    // 26 -> bucket 25
  const ClientId a = registry.add(RegionId{0}, first, 0);
  const ClientId b = registry.add(RegionId{0}, near, 0);
  const ClientId c = registry.add(RegionId{0}, far, 0);
  EXPECT_EQ(registry.row_of(a), registry.row_of(b));
  EXPECT_NE(registry.row_of(a), registry.row_of(c));
  EXPECT_EQ(registry.row_count(), 2u);
  // Members resolve latencies through the first-seen representative row.
  EXPECT_EQ(registry.row_latency(registry.row_of(b), RegionId{0}), 20.0);
}

TEST(QuantizedFolding, LiveCohortCountIsMonotoneInTheBucketWidth) {
  // End-to-end through LiveSystem::set_cohorts: a king-synth population has
  // per-client jitter on every latency row, so exact interning yields one
  // cohort per subscriber and widening buckets fold them.
  const std::array<Millis, 5> buckets{0.0, 2.0, 8.0, 64.0, 512.0};
  std::vector<std::size_t> cohorts;
  std::size_t n_subscribers = 0;
  for (const Millis bucket : buckets) {
    Rng rng(2017);
    sim::WorkloadSpec workload;
    const sim::Scenario scenario = sim::make_scenario(
        {{RegionId{0}, 2, 6}, {RegionId{3}, 1, 6}}, workload, rng);
    n_subscribers = scenario.topic.subscribers.size();
    sim::LiveSystem live(scenario,
                         {.cohorts = true, .row_bucket_ms = bucket});
    ASSERT_NE(live.cohort_pool(), nullptr);
    cohorts.push_back(live.cohort_pool()->cohort_count());
  }
  EXPECT_EQ(cohorts.front(), n_subscribers);  // exact rows: no folding
  for (std::size_t i = 1; i < cohorts.size(); ++i) {
    EXPECT_LE(cohorts[i], cohorts[i - 1])
        << "bucket " << buckets[i] << "ms grew the cohort count";
  }
  EXPECT_LT(cohorts.back(), cohorts.front());  // the knob bites end-to-end
}

}  // namespace
}  // namespace multipub
