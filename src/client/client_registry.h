// Struct-of-arrays client state for the cohort-compressed data plane
// (DESIGN.md §12).
//
// Per-client identity is kept OFF the hot path in parallel arena-backed
// arrays — home region, interned latency-row id, interned topic-set handle,
// liveness, and the client's current cohort slot. The hot path (delivery
// fan-out) never touches any of this; it only sees flock weights. Churn —
// re-subscription, death, a latency change — mutates a handful of int32
// cells and moves the client between cohorts.
//
// Latency rows are hash-consed like topic sets: clients at identical (or,
// with a quantization bucket, near-identical) network positions share one
// stored row, which is both the compression lever (a shared row is a
// necessary condition for sharing a cohort) and the memory lever (ten
// million clients reference a few thousand rows instead of owning one
// each).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/assert.h"
#include "common/types.h"
#include "geo/latency.h"
#include "geo/region_set.h"

namespace multipub::client {

class ClientRegistry {
 public:
  /// Fixed-capacity registry: `capacity` clients over `n_regions` regions.
  /// `row_bucket_ms` > 0 quantizes latency rows to that granularity before
  /// interning (clients within a bucket share the first-seen representative
  /// row); 0 interns exact rows only — the setting the differential tests
  /// rely on for bit-identical per-client equivalence. Borrows the arena.
  ClientRegistry(std::size_t capacity, std::size_t n_regions,
                 Millis row_bucket_ms, Arena& arena);

  ClientRegistry(const ClientRegistry&) = delete;
  ClientRegistry& operator=(const ClientRegistry&) = delete;

  /// Registers the next client (ids are dense, in registration order) with
  /// its home region, latency row (one entry per region, interned), and
  /// topic-set handle. Returns the new client's id.
  ClientId add(RegionId home, std::span<const Millis> latency_row,
               std::int32_t topic_set);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t n_regions() const { return n_regions_; }
  [[nodiscard]] Millis row_bucket_ms() const { return row_bucket_ms_; }

  [[nodiscard]] RegionId home(ClientId c) const {
    return RegionId{home_[check(c)]};
  }
  [[nodiscard]] std::int32_t row_of(ClientId c) const {
    return row_[check(c)];
  }
  [[nodiscard]] std::int32_t topic_set(ClientId c) const {
    return topic_set_[check(c)];
  }
  void set_topic_set(ClientId c, std::int32_t handle) {
    topic_set_[check(c)] = handle;
  }
  [[nodiscard]] bool alive(ClientId c) const { return alive_[check(c)] != 0; }
  void set_alive(ClientId c, bool alive) {
    alive_[check(c)] = alive ? 1 : 0;
  }

  /// Re-homes the client's network position onto a different latency row
  /// (its measured latencies drifted into another bucket). The caller moves
  /// the client between cohorts afterwards.
  [[nodiscard]] std::int32_t intern_row(std::span<const Millis> latency_row);
  void set_row(ClientId c, std::int32_t row) {
    MP_EXPECTS(row >= 0 && static_cast<std::size_t>(row) < rows_.size());
    row_[check(c)] = row;
  }

  /// Cohort membership (slot + position inside the member array); -1 when
  /// the client belongs to no cohort. Maintained by the CohortPool.
  [[nodiscard]] std::int32_t cohort_of(ClientId c) const {
    return cohort_[check(c)];
  }
  [[nodiscard]] std::int32_t index_in_cohort(ClientId c) const {
    return cohort_index_[check(c)];
  }
  void set_cohort(ClientId c, std::int32_t cohort, std::int32_t index) {
    const std::size_t i = check(c);
    cohort_[i] = cohort;
    cohort_index_[i] = index;
  }

  /// Distinct latency rows interned so far.
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  [[nodiscard]] std::span<const Millis> row(std::int32_t row) const {
    MP_EXPECTS(row >= 0 && static_cast<std::size_t>(row) < rows_.size());
    return {rows_[static_cast<std::size_t>(row)], n_regions_};
  }
  [[nodiscard]] Millis row_latency(std::int32_t row, RegionId region) const {
    MP_EXPECTS(region.valid() && region.index() < n_regions_);
    return this->row(row)[region.index()];
  }

  /// geo::closest_region over interned row `row`: a cohort attaches
  /// exactly where each member would have.
  [[nodiscard]] RegionId closest_region(std::int32_t row,
                                        geo::RegionSet candidates) const {
    return geo::closest_region(this->row(row), candidates);
  }

 private:
  [[nodiscard]] std::size_t check(ClientId c) const {
    MP_EXPECTS(c.valid() && c.index() < size_);
    return c.index();
  }

  Arena* arena_;
  std::size_t capacity_;
  std::size_t n_regions_;
  Millis row_bucket_ms_;
  std::size_t size_ = 0;

  // Parallel per-client arrays (arena-backed, length == capacity).
  std::int32_t* home_;
  std::int32_t* row_;
  std::int32_t* topic_set_;
  std::uint8_t* alive_;
  std::int32_t* cohort_;
  std::int32_t* cohort_index_;

  // Interned latency rows: arena storage + hash-cons index over the
  // (quantized) contents.
  std::vector<const Millis*> rows_;
  std::unordered_multimap<std::uint64_t, std::int32_t> row_index_;
  std::vector<Millis> quantize_scratch_;
};

}  // namespace multipub::client
