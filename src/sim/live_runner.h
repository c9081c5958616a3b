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

class LiveSystem {
 public:
  /// Builds brokers for every region of the scenario's catalog and one
  /// endpoint per publisher/subscriber of its topic. Borrows the scenario;
  /// it must outlive the system.
  explicit LiveSystem(const Scenario& scenario);

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

  /// Chooses the control-plane pipeline. Incremental (default): region
  /// managers send delta reports and the controller re-optimizes dirty
  /// topics only. Off: full snapshots + Controller::reconfigure_full every
  /// round (the seed's behaviour, kept as the differential reference).
  void set_incremental(bool incremental) { incremental_ = incremental; }
  [[nodiscard]] bool incremental() const { return incremental_; }

  /// Splits the data plane over `shards` worker threads (DESIGN.md §11):
  /// regions are placed by the current shard placement strategy (topology
  /// clustering by default), clients follow their home region, and the
  /// simulator synchronizes on conservative windows derived from the
  /// cross-shard lookahead matrix (rescaled under an installed FaultPlan's
  /// delay rules before every drain). Observables stay bit-identical to the
  /// single-threaded plane for every shard count, placement and window
  /// policy. Requires shards <= regions; call right after construction,
  /// before deploy()/traffic. `shards == 1` is the single-threaded plane.
  void set_shards(std::uint32_t shards);
  [[nodiscard]] std::uint32_t shards() const { return shards_; }

  /// Region-to-shard placement for set_shards. Default kTopology: cluster
  /// nearby regions onto one shard (DESIGN.md §14), maximizing the minimum
  /// cross-shard latency and with it every window. kRoundRobin is the PR 5
  /// reference recipe. Call before set_shards; placement never changes
  /// observables, only window structure and wall-clock.
  void set_shard_placement(net::ShardPlacement placement);
  [[nodiscard]] net::ShardPlacement shard_placement() const {
    return placement_;
  }

  /// Window policy for the sharded plane. Default kAdaptive: windows widen
  /// past the fixed stride whenever the busy-shard horizon allows
  /// (DESIGN.md §14). kFixed is the PR 5 pacing. Call before set_shards;
  /// the policy never changes observables.
  void set_window_policy(net::WindowPolicy policy);
  [[nodiscard]] net::WindowPolicy window_policy() const {
    return window_policy_;
  }

  /// Switches the subscriber side to the cohort-compressed plane
  /// (DESIGN.md §12): identical subscribers fold into weighted cohorts, the
  /// per-client Subscriber endpoints leave the wire, and one weighted
  /// message per flock replaces one per member. With `row_bucket_ms == 0`
  /// (the default) only bit-identical latency rows merge, and observables
  /// (delivery times, costs, weighted counters) stay bit-identical to the
  /// per-client plane. A positive bucket quantizes rows to
  /// floor(latency / bucket) * bucket before interning, so near-identical
  /// clients fold too — more compression, at the price of delivery times
  /// moving by up to one bucket. Call once, before
  /// deploy()/traffic and before set_shards (the flock universe must exist
  /// to be sharded). Disabling after enabling is not supported.
  void set_cohorts(bool on, Millis row_bucket_ms = 0.0);
  [[nodiscard]] bool cohorts() const { return pool_ != nullptr; }
  /// The cohort pool when cohorts are on, nullptr otherwise.
  [[nodiscard]] client::CohortPool* cohort_pool() { return pool_.get(); }
  [[nodiscard]] const client::CohortPool* cohort_pool() const {
    return pool_.get();
  }
  [[nodiscard]] const client::ClientRegistry* client_registry() const {
    return registry_.get();
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

  /// Arms the reliability layer end to end: brokers stamp and retain
  /// publications (sequenced replay), clients detect gaps and re-request,
  /// control traffic becomes fault-exempt on the transport, and every
  /// broker streams its subscription/config state to a standby — the
  /// backbone-nearest peer region (lowest id on ties). Call after
  /// construction, before deploy()/traffic. Off by default: without it,
  /// every observable is bit-identical to the pre-reliable system.
  void set_reliable(bool on);
  [[nodiscard]] bool reliable() const { return reliable_; }

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

  const Scenario* scenario_;
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
  bool incremental_ = true;
  std::uint32_t shards_ = 1;
  net::ShardPlacement placement_ = net::ShardPlacement::kTopology;
  net::WindowPolicy window_policy_ = net::WindowPolicy::kAdaptive;
  Millis base_lookahead_ = kUnreachable;  // min cross-shard latency, unscaled
  /// Unscaled cross-shard lookahead matrix of the current map (K*K,
  /// row-major); rescaled alongside base_lookahead_ before every drain.
  std::vector<Millis> base_lookaheads_;
  bool reliable_ = false;
  /// Cumulative crash-lost publication counts by topic value.
  std::map<std::int32_t, std::uint64_t> crash_lost_;
};

}  // namespace multipub::sim
