#include "geo/latency.h"

#include <array>

#include "common/assert.h"

namespace multipub::geo {

InterRegionLatency::InterRegionLatency(std::size_t n_regions)
    : n_(n_regions), cells_(n_regions * n_regions, kUnreachable) {
  for (std::size_t i = 0; i < n_; ++i) cells_[i * n_ + i] = 0.0;
}

InterRegionLatency InterRegionLatency::ec2_2016() {
  // One-way latencies (ms) between the ten EC2 regions, paper order
  // R1=us-east-1 .. R10=sa-east-1. Assembled from publicly documented
  // 2016-era inter-region RTTs divided by two. Upper triangle; the matrix
  // is symmetric.
  constexpr std::size_t n = 10;
  constexpr std::array<std::array<double, n>, n> one_way{{
      //  R1    R2    R3    R4    R5    R6    R7    R8    R9   R10
      {{  0,   35,   40,   40,   45,   75,   85,  110,  100,   60}},  // R1
      {{ 35,    0,   10,   75,   83,   55,   65,   85,   70,   95}},  // R2
      {{ 40,   10,    0,   70,   80,   50,   60,   82,   70,   90}},  // R3
      {{ 40,   75,   70,    0,   10,  110,  120,  120,  140,   95}},  // R4
      {{ 45,   83,   80,   10,    0,  120,  130,  115,  150,  100}},  // R5
      {{ 75,   55,   50,  110,  120,    0,   17,   35,   52,  130}},  // R6
      {{ 85,   65,   60,  120,  130,   17,    0,   45,   65,  140}},  // R7
      {{110,   85,   82,  120,  115,   35,   45,    0,   45,  165}},  // R8
      {{100,   70,   70,  140,  150,   52,   65,   45,    0,  160}},  // R9
      {{ 60,   95,   90,   95,  100,  130,  140,  165,  160,    0}},  // R10
  }};
  InterRegionLatency m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(RegionId{static_cast<RegionId::underlying_type>(i)},
            RegionId{static_cast<RegionId::underlying_type>(j)},
            one_way[i][j]);
    }
  }
  MP_ENSURES(m.complete());
  return m;
}

InterRegionLatency InterRegionLatency::prefix(std::size_t n) const {
  MP_EXPECTS(n <= n_);
  InterRegionLatency out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.cells_[i * n + j] = cells_[i * n_ + j];
    }
  }
  return out;
}

void InterRegionLatency::set(RegionId a, RegionId b, Millis one_way) {
  MP_EXPECTS(a.valid() && a.index() < n_);
  MP_EXPECTS(b.valid() && b.index() < n_);
  MP_EXPECTS(a != b);
  MP_EXPECTS(one_way >= 0.0);
  cells_[a.index() * n_ + b.index()] = one_way;
  cells_[b.index() * n_ + a.index()] = one_way;
}

Millis InterRegionLatency::at(RegionId a, RegionId b) const {
  MP_EXPECTS(a.valid() && a.index() < n_);
  MP_EXPECTS(b.valid() && b.index() < n_);
  return cells_[a.index() * n_ + b.index()];
}

bool InterRegionLatency::complete() const {
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i != j && cells_[i * n_ + j] == kUnreachable) return false;
    }
  }
  return true;
}

RegionId closest_region(std::span<const Millis> row, RegionSet candidates) {
  MP_EXPECTS(!candidates.empty());
  RegionId best = RegionId::invalid();
  Millis best_latency = kUnreachable;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const RegionId r{static_cast<RegionId::underlying_type>(i)};
    if (!candidates.contains(r)) continue;
    if (row[i] < best_latency) {
      best_latency = row[i];
      best = r;
    }
  }
  MP_ENSURES(best.valid());
  return best;
}

ClientId ClientLatencyMap::add_client(std::span<const Millis> row) {
  MP_EXPECTS(row.size() == n_regions_);
  cells_.insert(cells_.end(), row.begin(), row.end());
  ++n_clients_;
  return ClientId{static_cast<ClientId::underlying_type>(n_clients_ - 1)};
}

void ClientLatencyMap::ensure_client(ClientId client) {
  MP_EXPECTS(client.valid());
  while (n_clients_ <= client.index()) {
    cells_.insert(cells_.end(), n_regions_, kUnreachable);
    ++n_clients_;
  }
}

void ClientLatencyMap::set(ClientId client, RegionId region, Millis value) {
  MP_EXPECTS(client.valid() && client.index() < n_clients_);
  MP_EXPECTS(region.valid() && region.index() < n_regions_);
  MP_EXPECTS(value >= 0.0);
  cells_[client.index() * n_regions_ + region.index()] = value;
}

std::span<const Millis> ClientLatencyMap::row(ClientId client) const {
  MP_EXPECTS(client.valid() && client.index() < n_clients_);
  return {cells_.data() + client.index() * n_regions_, n_regions_};
}

Millis ClientLatencyMap::closest_latency(ClientId client,
                                         RegionSet candidates) const {
  return at(client, closest_region(client, candidates));
}

}  // namespace multipub::geo
