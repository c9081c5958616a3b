// Periodic controller rounds inside the simulation.
//
// The paper's controller "continuously recomputes an optimal configuration"
// from data "collected throughout a collection interval" (§III-A3/A4).
// ControlLoop schedules that cadence as simulator events: every period it
// drains the region managers' reports, re-optimizes, and deploys changed
// configurations — while publication traffic keeps flowing around it. This
// is the faithful in-band version of LiveSystem::control_round (which is a
// test convenience that stops the world).
#pragma once

#include <vector>

#include "sim/live_runner.h"

namespace multipub::sim {

class ControlLoop {
 public:
  /// One executed controller round.
  struct RoundRecord {
    Millis at = 0.0;  ///< virtual time the round fired
    std::vector<broker::Controller::Decision> decisions;
    /// The controller's incremental accounting for this round (how many
    /// topics were dirty / optimized / carried forward).
    broker::Controller::RoundStats stats;
  };

  /// Borrows the live system; it must outlive the loop.
  ControlLoop(LiveSystem& system, Millis period_ms,
              core::OptimizerOptions options = {});

  /// Schedules `count` rounds, the first one period from the current
  /// simulator time. (Bounded so the event queue can drain; schedule more
  /// rounds for longer runs.)
  void schedule_rounds(std::size_t count);

  [[nodiscard]] const std::vector<RoundRecord>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t rounds_executed() const { return history_.size(); }

  /// Number of rounds whose decisions changed at least one topic.
  [[nodiscard]] std::size_t rounds_with_changes() const;

 private:
  void fire(std::size_t remaining);

  LiveSystem* system_;
  Millis period_ms_;
  core::OptimizerOptions options_;
  std::vector<RoundRecord> history_;
};

}  // namespace multipub::sim
