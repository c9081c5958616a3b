// Latency matrices.
//
// The paper's model rests on two matrices (§III-C):
//  - L^R : one-way latency between each pair of cloud regions, measured by
//          pinging VMs in all 10 EC2 regions (we bake in values assembled
//          from public EC2 inter-region measurements of the same era), and
//  - L   : one-way latency between every client and every region, derived in
//          the paper from the King dataset (we synthesize an equivalent
//          population, see geo/king_synth.h).
#pragma once

#include <span>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "geo/region_set.h"

namespace multipub::geo {

/// Symmetric one-way inter-region latency matrix (the paper's L^R).
class InterRegionLatency {
 public:
  InterRegionLatency() = default;

  /// Builds an n x n matrix with zero diagonal; off-diagonal entries start
  /// as kUnreachable and must be filled with set().
  explicit InterRegionLatency(std::size_t n_regions);

  /// One-way latencies between the ten EC2 regions of RegionCatalog::
  /// ec2_2016(), assembled from publicly documented RTT measurements of
  /// 2016-era EC2, halved (as the paper halves its ping averages).
  [[nodiscard]] static InterRegionLatency ec2_2016();

  /// The top-left n x n block (used when sweeping the region count).
  [[nodiscard]] InterRegionLatency prefix(std::size_t n) const;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Symmetric assignment: sets both (a,b) and (b,a). Pre: a != b.
  void set(RegionId a, RegionId b, Millis one_way);

  [[nodiscard]] Millis at(RegionId a, RegionId b) const;

  /// True when every off-diagonal entry has been filled.
  [[nodiscard]] bool complete() const;

 private:
  std::size_t n_ = 0;
  std::vector<Millis> cells_;  // row-major n x n
};

/// The member of `candidates` with the smallest latency in `row` (one entry
/// per region, in catalog order), ties broken towards the lower region id.
/// Every attachment decision — a client's, and a cohort's on behalf of all
/// its members — is this one scan, so both subscriber planes pick the same
/// region. Pre: candidates non-empty, and some candidate reachable.
[[nodiscard]] RegionId closest_region(std::span<const Millis> row,
                                      RegionSet candidates);

/// Client-to-region one-way latency matrix (the paper's L). Row = client,
/// column = region; clients are dense ids handed out by add_client().
class ClientLatencyMap {
 public:
  ClientLatencyMap() = default;
  explicit ClientLatencyMap(std::size_t n_regions) : n_regions_(n_regions) {}

  /// Appends one client's latency row (one entry per region, in catalog
  /// order) and returns its ClientId. Pre: row.size() == n_regions().
  ClientId add_client(std::span<const Millis> row);

  [[nodiscard]] std::size_t n_clients() const { return n_clients_; }
  [[nodiscard]] std::size_t n_regions() const { return n_regions_; }

  /// Inline and a single indexed load: this sits on the data plane's
  /// per-hop path (every client-bound delivery looks its latency up here).
  [[nodiscard]] Millis at(ClientId client, RegionId region) const {
    MP_EXPECTS(client.valid() && client.index() < n_clients_);
    MP_EXPECTS(region.valid() && region.index() < n_regions_);
    return cells_[client.index() * n_regions_ + region.index()];
  }
  [[nodiscard]] std::span<const Millis> row(ClientId client) const;

  /// Overwrites one cell (used by the controller's latency monitoring,
  /// paper §III-C: L may be "updated over time at an infrequent rate").
  void set(ClientId client, RegionId region, Millis value);

  /// Grows the map so `client` has a row (filled with kUnreachable until
  /// measurements arrive). Supports client churn: a client that joins after
  /// the matrix was built becomes known through its first probe reports.
  void ensure_client(ClientId client);

  /// geo::closest_region over `client`'s row.
  [[nodiscard]] RegionId closest_region(ClientId client,
                                        RegionSet candidates) const {
    return geo::closest_region(row(client), candidates);
  }

  /// Latency from `client` to its closest region among `candidates`.
  [[nodiscard]] Millis closest_latency(ClientId client,
                                       RegionSet candidates) const;

 private:
  std::size_t n_regions_ = 0;
  std::size_t n_clients_ = 0;
  std::vector<Millis> cells_;  // row-major n_clients x n_regions
};

}  // namespace multipub::geo
