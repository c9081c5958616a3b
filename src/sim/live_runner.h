// Live (event-driven) execution of a scenario.
//
// While the figures are produced by the analytic engine (as in the paper),
// LiveSystem instantiates the actual middleware — per-region brokers, region
// managers, the controller, publisher and subscriber endpoints — over the
// discrete-event transport, runs real publication traffic through it, and
// measures delivery times and billed bytes. Property tests assert that the
// measurements coincide with the analytic model (Eq. 1-4), golden digests
// pin every observable of its data plane round by round (DESIGN.md §9),
// and the examples use it to demonstrate transparent reconfiguration.
//
// A run is configured once, by the LiveOptions the constructor takes: the
// control pipeline, the per-client or cohort subscriber plane, the
// reliability layer, and the shard count, placement and window policy.
// The constructor builds them in the one valid order: publishers, then
// Subscribers or the cohort pool, then the shard map (which places the
// flocks), then the reliable wiring (whose first state snapshots are
// traffic, which sharding must not find queued). Nothing reconfigures the
// system afterwards.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "broker/controller.h"
#include "broker/region_manager.h"
#include "client/client_registry.h"
#include "client/cohort_pool.h"
#include "client/publisher.h"
#include "client/subscriber.h"
#include "client/topic_set_pool.h"
#include "common/arena.h"
#include "net/shard_placement.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "sim/scenario.h"

namespace multipub::sim {

/// Measurements from one traffic interval.
struct LiveRunResult {
  /// Every end-to-end delivery time observed by any subscriber.
  std::vector<Millis> delivery_times;
  /// The ratio_T-percentile of delivery_times (the topic's ratio).
  Millis percentile = 0.0;
  /// Billed cost of this interval (ledger delta).
  Dollars interval_cost = 0.0;
  Dollars cost_per_day = 0.0;
  std::uint64_t publications = 0;
  std::uint64_t deliveries = 0;
};

/// How one live run is configured; LiveSystem's constructor builds
/// everything from it once.
struct LiveOptions {
  /// Control plane. On (default): region managers send delta reports and
  /// the controller re-optimizes dirty topics only. Off: full snapshots +
  /// Controller::reconfigure_full every round (the differential reference).
  bool incremental = true;
  /// Data-plane worker threads (DESIGN.md §11); 1 is the single-threaded
  /// plane, K > 1 runs conservative windows (see shard_data_plane) and
  /// needs K <= regions. Observables are bit-identical for every shard
  /// count, placement and window policy.
  std::uint32_t shards = 1;
  /// Region-to-shard placement for K > 1 (DESIGN.md §14): kTopology
  /// clusters nearby regions, widening every window; kRoundRobin is the
  /// reference recipe.
  net::ShardPlacement placement = net::ShardPlacement::kTopology;
  /// Window sizing for K > 1 (DESIGN.md §14): kAdaptive widens windows past
  /// the fixed stride when the busy-shard horizon allows; kFixed is the
  /// reference pacing.
  net::WindowPolicy window_policy = net::WindowPolicy::kAdaptive;
  /// Cohort-compressed subscriber plane (DESIGN.md §12): identical
  /// subscribers fold into weighted cohorts and no per-client Subscriber
  /// exists. With row_bucket_ms == 0, observables are bit-identical to the
  /// per-client plane.
  bool cohorts = false;
  /// Cohort plane only: quantize latency rows to floor(latency / bucket) *
  /// bucket before interning, folding near-identical clients too at the
  /// price of delivery times moving by up to one bucket.
  Millis row_bucket_ms = 0.0;
  /// Reliability layer (DESIGN.md §15): sequenced replay, gap detection and
  /// re-request on either subscriber plane, fault-exempt control traffic,
  /// and state replication from every broker to a standby, its
  /// backbone-nearest peer (lowest id on ties). Off keeps every observable
  /// bit-identical to the pre-reliable system.
  bool reliable = false;
};

/// Unscaled lookaheads of a sharded plane: the scalar window width (the
/// minimum cross-shard latency) and the K*K cross-shard matrix (row-major).
struct ShardLookaheads {
  Millis min = kUnreachable;
  std::vector<Millis> matrix;
};

/// LiveSystem's sharding recipe, shared with harnesses that wire a
/// simulator by hand: regions on options.shards shards by
/// options.placement, every client (by `home_region`) and every flock of
/// `pool` (when not null; its flock universe closes here) on its home
/// region's shard, and windows from the cross-shard lookahead matrix under
/// options.window_policy. Pre: 2 <= shards <= regions, no pending events.
ShardLookaheads shard_data_plane(net::Simulator& sim,
                                 net::SimTransport& transport,
                                 const geo::InterRegionLatency& backbone,
                                 const std::vector<RegionId>& home_region,
                                 client::CohortPool* pool,
                                 const LiveOptions& options);

class LiveSystem {
 public:
  /// Builds brokers for every region of the scenario's catalog, one
  /// endpoint per publisher of its topic, and the subscriber side: one
  /// endpoint per subscriber, or the cohort pool. Then shards the data
  /// plane and arms the reliability layer as `options` ask. Borrows the
  /// scenario; it must outlive the system.
  explicit LiveSystem(const Scenario& scenario,
                      const LiveOptions& options = {});

  /// Bootstraps a configuration everywhere: brokers' assignment rows,
  /// publishers' send targets, subscribers' attachments. Runs the simulator
  /// until the subscription handshakes have settled.
  void deploy(const core::TopicConfig& config);

  /// Publishes `seconds` worth of traffic (each publisher at `rate_hz`,
  /// fixed spacing with a random phase drawn from `rng`), runs the simulator
  /// until every message settles, and returns the measurements.
  [[nodiscard]] LiveRunResult run_interval(double seconds, Bytes payload_bytes,
                                           double rate_hz, Rng& rng);

  /// One control round: region managers report, the controller re-optimizes,
  /// changed configurations are deployed through the region managers (which
  /// notify clients over the network). Runs the simulator until the control
  /// traffic settles. Returns the controller's decisions.
  std::vector<broker::Controller::Decision> control_round(
      const core::OptimizerOptions& options = {});

  /// The options this system was built with.
  [[nodiscard]] const LiveOptions& options() const { return options_; }

  /// The cohort pool on the cohort plane, nullptr on the per-client plane.
  [[nodiscard]] client::CohortPool* cohort_pool() { return pool_.get(); }
  [[nodiscard]] const client::CohortPool* cohort_pool() const {
    return pool_.get();
  }

  /// Same as control_round but does NOT drain the simulator: the
  /// kConfigUpdate traffic is merely scheduled. This is the form a
  /// ControlLoop calls from inside a simulator event, where draining would
  /// swallow all future traffic.
  std::vector<broker::Controller::Decision> reconfigure_now(
      const core::OptimizerOptions& options = {});

  /// How publication instants are spaced within an interval.
  enum class Arrivals {
    kFixedRate,  ///< exact 1/rate spacing with a random phase (default)
    kPoisson,    ///< exponential inter-arrival times with mean 1/rate
  };

  /// Schedules `seconds` of publication traffic starting `start_offset_ms`
  /// after the current simulator time, without running the simulator.
  /// Under kPoisson the per-publisher message count is whatever the process
  /// produced (at least 1), matching real bursty publishers.
  void schedule_traffic(Millis start_offset_ms, double seconds,
                        Bytes payload_bytes, double rate_hz, Rng& rng,
                        Arrivals arrivals = Arrivals::kFixedRate);

  /// TopicState with the *actual* published message counts of the last
  /// interval (for exact analytic cross-checks).
  [[nodiscard]] core::TopicState observed_topic_state() const;

  [[nodiscard]] broker::Controller& controller() { return *controller_; }
  [[nodiscard]] net::SimTransport& transport() { return *transport_; }
  [[nodiscard]] net::Simulator& simulator() { return sim_; }
  [[nodiscard]] const net::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const std::vector<std::unique_ptr<client::Subscriber>>&
  subscribers() const {
    return subscribers_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<client::Publisher>>&
  publishers() const {
    return publishers_;
  }
  [[nodiscard]] broker::RegionManager& region_manager(RegionId region);
  [[nodiscard]] const Scenario& scenario() const { return *scenario_; }

  // ---- Reliable delivery + broker state replication (DESIGN.md §15)

  /// Outage entry point for the chaos/churn paths. Besides the transport's
  /// down flag, in reliable mode a down-transition CRASHES the region's
  /// broker (its in-memory state is lost, and publications no surviving
  /// broker holds are recorded as crash-lost); an up-transition restores
  /// broker state from the standby's replica and reconnects every
  /// subscriber attached to the region (reconnect-and-replay).
  void set_region_down(RegionId region, bool down);

  /// Reliable sync pass: brokers ask peers to replay missed forwards and
  /// heartbeat their standby; then subscribers re-request replay from their
  /// expected next sequence. run_interval() runs one automatically; chaos
  /// rounds call it again after healing faults.
  void sync_reliable();

  /// Publications of `topic` that died with a crashing broker before
  /// reaching any surviving one — unrepairable by replay, so exempt from
  /// the zero-loss oracle (cumulative since construction).
  [[nodiscard]] std::uint64_t crash_lost(TopicId topic) const;

 private:
  /// Drains the simulator, refreshing the sharded window width first (an
  /// active FaultPlan may have gained or lost delay rules since last time).
  void drain();

  /// Counts the crashing region's publications that no surviving broker
  /// holds (called before the crash wipes its state).
  void record_crash_losses(RegionId region);

  // Construction steps, called once each from the constructor in this
  // order.
  void build_cohort_pool();
  void arm_reliable();

  const Scenario* scenario_;
  const LiveOptions options_;
  net::Simulator sim_;
  std::unique_ptr<net::SimTransport> transport_;
  // Cohort plane (null in per-client mode). Declared after the transport:
  // the pool unhooks its handlers and directory on destruction.
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<client::TopicSetPool> topic_sets_;
  std::unique_ptr<client::ClientRegistry> registry_;
  std::unique_ptr<client::CohortPool> pool_;
  std::vector<std::unique_ptr<broker::RegionManager>> managers_;
  std::unique_ptr<broker::Controller> controller_;
  std::vector<std::unique_ptr<client::Publisher>> publishers_;
  std::vector<std::unique_ptr<client::Subscriber>> subscribers_;
  Dollars billed_so_far_ = 0.0;
  std::vector<std::uint64_t> last_interval_counts_;  // per publisher index
  Bytes last_payload_bytes_ = 0;
  /// Rescaled under the installed FaultPlan before every drain.
  ShardLookaheads base_lookaheads_;
  /// Cumulative crash-lost publication counts by topic value.
  std::map<std::int32_t, std::uint64_t> crash_lost_;
};

}  // namespace multipub::sim
