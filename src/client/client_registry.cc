#include "client/client_registry.h"

#include <cmath>
#include <cstring>

namespace multipub::client {

namespace {

std::uint64_t hash_row(std::span<const Millis> row) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Millis v : row) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ClientRegistry::ClientRegistry(std::size_t capacity, std::size_t n_regions,
                               Millis row_bucket_ms, Arena& arena)
    : arena_(&arena),
      capacity_(capacity),
      n_regions_(n_regions),
      row_bucket_ms_(row_bucket_ms) {
  MP_EXPECTS(capacity >= 1 && n_regions >= 1);
  MP_EXPECTS(row_bucket_ms >= 0.0);
  home_ = arena.make_array<std::int32_t>(capacity);
  row_ = arena.make_array<std::int32_t>(capacity);
  topic_set_ = arena.make_array<std::int32_t>(capacity);
  alive_ = arena.make_array<std::uint8_t>(capacity);
  cohort_ = arena.make_array<std::int32_t>(capacity);
  cohort_index_ = arena.make_array<std::int32_t>(capacity);
}

std::int32_t ClientRegistry::intern_row(std::span<const Millis> latency_row) {
  MP_EXPECTS(latency_row.size() == n_regions_);
  // The hash-cons key is the QUANTIZED row; the stored row is the exact row
  // of the bucket's first member (the representative every later member of
  // the bucket inherits). With bucket 0 the key equals the row itself, so
  // only bit-identical rows merge.
  std::span<const Millis> key = latency_row;
  if (row_bucket_ms_ > 0.0) {
    quantize_scratch_.resize(n_regions_);
    for (std::size_t i = 0; i < n_regions_; ++i) {
      quantize_scratch_[i] =
          std::floor(latency_row[i] / row_bucket_ms_) * row_bucket_ms_;
    }
    key = quantize_scratch_;
  }
  const std::uint64_t h = hash_row(key);
  auto [lo, hi] = row_index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    std::span<const Millis> existing = row(it->second);
    if (row_bucket_ms_ > 0.0) {
      // Compare bucket membership, not stored values: the stored row is the
      // representative's exact row.
      bool same = true;
      for (std::size_t i = 0; i < n_regions_; ++i) {
        if (std::floor(existing[i] / row_bucket_ms_) * row_bucket_ms_ !=
            key[i]) {
          same = false;
          break;
        }
      }
      if (same) return it->second;
    } else if (std::equal(existing.begin(), existing.end(),
                          latency_row.begin())) {
      return it->second;
    }
  }
  Millis* stored = arena_->make_array<Millis>(n_regions_);
  std::copy(latency_row.begin(), latency_row.end(), stored);
  const auto id = static_cast<std::int32_t>(rows_.size());
  rows_.push_back(stored);
  row_index_.emplace(h, id);
  return id;
}

ClientId ClientRegistry::add(RegionId home, std::span<const Millis> latency_row,
                             std::int32_t topic_set) {
  MP_EXPECTS(size_ < capacity_);
  MP_EXPECTS(home.valid() && home.index() < n_regions_);
  const std::size_t i = size_++;
  home_[i] = home.value();
  row_[i] = intern_row(latency_row);
  topic_set_[i] = topic_set;
  alive_[i] = 1;
  cohort_[i] = -1;
  cohort_index_[i] = -1;
  return ClientId{static_cast<ClientId::underlying_type>(i)};
}

}  // namespace multipub::client
