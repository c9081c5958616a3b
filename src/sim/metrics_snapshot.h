// Snapshot a live system's operational state into a MetricsRegistry.
//
// Gives operators one flat, renderable view: transport counters and billed
// bytes, per-region broker activity and provisioned servers, client-side
// handover statistics, and the controller's monitoring state.
#pragma once

#include "common/metrics.h"
#include "sim/live_runner.h"

namespace multipub::sim {

/// Collects the registry. Names are stable:
///   transport.messages_sent / .messages_delivered / .messages_dropped /
///             .dropped_unregistered / .dropped_sender_down /
///             .dropped_dead_arrival / .dropped_faulted / .cost_usd
///   region.<name>.inter_region_bytes / .internet_bytes / .delivered /
///                 .forwarded / .drain_forwarded / .filtered / .servers /
///                 .down
///   clients.reconnects / .duplicates / .deliveries
///   controller.latency_observations / .rounds / .topics_tracked /
///             .dirty_last_round / .evaluated_last_round /
///             .skipped_clean_last_round
[[nodiscard]] MetricsRegistry collect_metrics(LiveSystem& live);

/// Window telemetry of the sharded data plane (DESIGN.md §14), DELIBERATELY
/// separate from collect_metrics: that snapshot is byte-compared across
/// shard counts by the differential suites, while these numbers describe the
/// execution engine itself (how the plane was driven, not what it did) and
/// legitimately vary with the shard count. All zeros on an unsharded
/// system. critical_events is the sum over windows of the busiest shard's
/// event count (events / critical_events bounds the K-core speedup).
/// Names:
///   dataplane.windows_executed / .window_width_mean_ms /
///             .window_width_max_ms / .events_per_window / .mail_items /
///             .critical_events / .barrier_spins / .barrier_parks
[[nodiscard]] MetricsRegistry collect_window_metrics(const LiveSystem& live);

}  // namespace multipub::sim
