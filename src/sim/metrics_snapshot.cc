#include "sim/metrics_snapshot.h"

namespace multipub::sim {

MetricsRegistry collect_metrics(LiveSystem& live) {
  MetricsRegistry out;
  const Scenario& scenario = live.scenario();
  net::SimTransport& transport = live.transport();

  out.set("transport.messages_sent",
          static_cast<double>(transport.sent_count()));
  out.set("transport.messages_dropped",
          static_cast<double>(transport.dropped_count()));
  // Silent drops: deliveries that reached an address nobody registered a
  // handler for (misrouted or stale traffic). Down-region drops at least
  // show up in region.<name>.down; these would otherwise be invisible.
  out.set("transport.dropped_unregistered",
          static_cast<double>(transport.dropped_unregistered_count()));
  out.set("transport.messages_delivered",
          static_cast<double>(transport.delivered_count()));
  // Drop taxonomy: sends suppressed at a dead sender (never left), messages
  // discarded on arrival at a region that died mid-flight, and losses
  // injected by an installed FaultPlan (partitions + probabilistic drop).
  out.set("transport.dropped_sender_down",
          static_cast<double>(transport.dropped_sender_down_count()));
  out.set("transport.dropped_dead_arrival",
          static_cast<double>(transport.dropped_dead_arrival_count()));
  out.set("transport.dropped_faulted",
          static_cast<double>(transport.dropped_faulted_count()));
  out.set("transport.cost_usd",
          transport.ledger().total_cost(scenario.catalog));

  for (const auto& region : scenario.catalog.all()) {
    const std::string prefix = "region." + region.name + ".";
    out.set(prefix + "inter_region_bytes",
            static_cast<double>(
                transport.ledger().inter_region_bytes[region.id.index()]));
    out.set(prefix + "internet_bytes",
            static_cast<double>(
                transport.ledger().internet_bytes[region.id.index()]));
    auto& manager = live.region_manager(region.id);
    out.set(prefix + "delivered",
            static_cast<double>(manager.broker().delivered_count()));
    out.set(prefix + "forwarded",
            static_cast<double>(manager.broker().forwarded_count()));
    out.set(prefix + "drain_forwarded",
            static_cast<double>(manager.broker().drain_forwarded_count()));
    out.set(prefix + "filtered",
            static_cast<double>(manager.broker().filtered_count()));
    out.set(prefix + "servers",
            static_cast<double>(manager.provisioned_servers()));
    out.set(prefix + "down", transport.region_down(region.id) ? 1.0 : 0.0);
  }

  double reconnects = 0.0, duplicates = 0.0, deliveries = 0.0;
  if (const client::CohortPool* pool = live.cohort_pool()) {
    // Weighted cohort counters are exactly what the per-client loop below
    // would have summed (DESIGN.md §12).
    reconnects = static_cast<double>(pool->reconnect_weight());
    duplicates = static_cast<double>(pool->duplicate_weight());
    deliveries = static_cast<double>(pool->interval_delivery_weight());
  } else {
    for (const auto& sub : live.subscribers()) {
      reconnects += static_cast<double>(sub->reconnect_count());
      duplicates += static_cast<double>(sub->duplicate_count());
      deliveries += static_cast<double>(sub->deliveries().size());
    }
  }
  out.set("clients.reconnects", reconnects);
  out.set("clients.duplicates", duplicates);
  out.set("clients.deliveries", deliveries);

  out.set("controller.latency_observations",
          static_cast<double>(
              live.controller().latency_estimator().observations()));

  const broker::Controller::RoundStats& stats =
      live.controller().last_round_stats();
  out.set("controller.rounds", static_cast<double>(stats.round));
  out.set("controller.topics_tracked", static_cast<double>(stats.tracked));
  out.set("controller.dirty_last_round", static_cast<double>(stats.dirty));
  out.set("controller.evaluated_last_round",
          static_cast<double>(stats.evaluated));
  out.set("controller.skipped_clean_last_round",
          static_cast<double>(stats.skipped_clean));
  return out;

}

MetricsRegistry collect_window_metrics(const LiveSystem& live) {
  MetricsRegistry out;
  const net::WindowStats stats = live.simulator().window_stats();
  out.set("dataplane.windows_executed", static_cast<double>(stats.windows));
  out.set("dataplane.window_width_mean_ms", stats.width_mean());
  out.set("dataplane.window_width_max_ms", stats.width_max);
  out.set("dataplane.events_per_window", stats.events_per_window());
  out.set("dataplane.mail_items", static_cast<double>(stats.mail_items));
  out.set("dataplane.critical_events",
          static_cast<double>(stats.critical_events));
  out.set("dataplane.barrier_spins",
          static_cast<double>(stats.barrier_spins));
  out.set("dataplane.barrier_parks",
          static_cast<double>(stats.barrier_parks));
  return out;
}

}  // namespace multipub::sim
