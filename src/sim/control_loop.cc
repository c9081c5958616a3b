#include "sim/control_loop.h"

#include "common/assert.h"

namespace multipub::sim {

ControlLoop::ControlLoop(LiveSystem& system, Millis period_ms,
                         core::OptimizerOptions options)
    : system_(&system), period_ms_(period_ms), options_(options) {
  MP_EXPECTS(period_ms > 0.0);
}

void ControlLoop::schedule_rounds(std::size_t count) {
  if (count == 0) return;
  system_->simulator().schedule_after(period_ms_,
                                      [this, count] { fire(count); });
}

void ControlLoop::fire(std::size_t remaining) {
  RoundRecord record;
  record.at = system_->simulator().now();
  record.decisions = system_->reconfigure_now(options_);
  record.stats = system_->controller().last_round_stats();
  history_.push_back(std::move(record));

  if (remaining > 1) {
    system_->simulator().schedule_after(
        period_ms_, [this, remaining] { fire(remaining - 1); });
  }
}

std::size_t ControlLoop::rounds_with_changes() const {
  std::size_t n = 0;
  for (const auto& record : history_) {
    for (const auto& decision : record.decisions) {
      if (decision.changed) {
        ++n;
        break;
      }
    }
  }
  return n;
}

}  // namespace multipub::sim
