// Golden digest of one round of a LiveSystem script: the live data plane's
// observables, folded in a fixed order (DESIGN.md §9).
#pragma once

#include "sim/live_runner.h"
#include "sim/metrics_snapshot.h"
#include "testutil.h"

namespace multipub::testutil {

/// Folds `run` (the round's traffic interval) and the system's state after
/// the round's control round into `digest`: delivery times and interval
/// cost, the deployed assignment matrix, both ledger byte vectors, the
/// transport's sent and dropped counts, the topic's billed cost, the
/// per-region broker counters and the rendered metrics snapshot.
inline void fold_live_round(Digest& digest, sim::LiveSystem& sys,
                            const sim::LiveRunResult& run) {
  net::SimTransport& transport = sys.transport();
  digest.add(run.delivery_times)
      .add(run.interval_cost)
      .add(sys.controller().render_assignment_matrix())
      .add(transport.ledger().inter_region_bytes)
      .add(transport.ledger().internet_bytes)
      .add(transport.sent_count())
      .add(transport.dropped_count())
      .add(transport.topic_cost(sys.scenario().topic.topic));
  for (const auto& region : sys.scenario().catalog.all()) {
    const broker::Broker& broker = sys.region_manager(region.id).broker();
    digest.add(broker.delivered_count())
        .add(broker.forwarded_count())
        .add(broker.drain_forwarded_count())
        .add(broker.filtered_count());
  }
  digest.add(sim::collect_metrics(sys).render());
}

}  // namespace multipub::testutil
