#include "net/fault_plan.h"

#include <algorithm>

#include "common/assert.h"

namespace multipub::net {

bool FaultEndpoint::matches(Address address) const {
  switch (kind) {
    case Kind::kAny:
      return true;
    case Kind::kAnyRegion:
      return address.kind == Address::Kind::kRegion;
    case Kind::kAnyClient:
      return address.kind == Address::Kind::kClient;
    case Kind::kRegion:
      return address.kind == Address::Kind::kRegion && address.id == id;
    case Kind::kClient:
      return address.kind == Address::Kind::kClient && address.id == id;
  }
  return false;
}

int FaultPlan::add(const FaultRule& rule) {
  MP_EXPECTS(rule.start <= rule.end);
  MP_EXPECTS(rule.delay_factor > 0.0);
  MP_EXPECTS(rule.delay_extra_ms >= 0.0);
  MP_EXPECTS(rule.drop_probability >= 0.0 && rule.drop_probability <= 1.0);
  const int id = next_id_++;
  rules_.emplace_back(id, rule);
  return id;
}

void FaultPlan::remove(int id) {
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [id](const auto& entry) {
                                return entry.first == id;
                              }),
               rules_.end());
}

FaultPlan::Outcome FaultPlan::apply(Address from, Address to, Millis now,
                                    Rng& coin) const {
  Outcome outcome;
  for (const auto& [id, rule] : rules_) {
    if (now < rule.start || now >= rule.end) continue;
    if (!rule.from.matches(from) || !rule.to.matches(to)) continue;
    switch (rule.kind) {
      case FaultRule::Kind::kPartition:
        partition_dropped_.fetch_add(1, std::memory_order_relaxed);
        outcome.dropped = true;
        return outcome;
      case FaultRule::Kind::kDrop:
        // One draw per active matching rule until the message is lost. The
        // coin outcomes are themselves deterministic in the seed, so the
        // stream position — and with it every later decision — is too.
        if (coin.uniform(0.0, 1.0) < rule.drop_probability) {
          random_dropped_.fetch_add(1, std::memory_order_relaxed);
          outcome.dropped = true;
          return outcome;
        }
        break;
      case FaultRule::Kind::kDelay:
        outcome.delay_factor *= rule.delay_factor;
        outcome.delay_extra_ms += rule.delay_extra_ms;
        break;
    }
  }
  if (outcome.delay_factor != 1.0 || outcome.delay_extra_ms != 0.0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  return outcome;
}

namespace {
[[nodiscard]] bool pattern_can_match_client(const FaultEndpoint& endpoint) {
  return endpoint.kind == FaultEndpoint::Kind::kAny ||
         endpoint.kind == FaultEndpoint::Kind::kAnyClient ||
         endpoint.kind == FaultEndpoint::Kind::kClient;
}
}  // namespace

bool FaultPlan::may_affect_client_deliveries(Address from, Millis now) const {
  for (const auto& [id, rule] : rules_) {
    if (now < rule.start || now >= rule.end) continue;
    if (rule.from.matches(from) && pattern_can_match_client(rule.to)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::may_affect_client_sends(Address to, Millis now) const {
  for (const auto& [id, rule] : rules_) {
    if (now < rule.start || now >= rule.end) continue;
    if (pattern_can_match_client(rule.from) && rule.to.matches(to)) {
      return true;
    }
  }
  return false;
}

double FaultPlan::lookahead_scale() const {
  double scale = 1.0;
  for (const auto& [id, rule] : rules_) {
    if (rule.kind != FaultRule::Kind::kDelay) continue;
    scale *= std::min(1.0, rule.delay_factor);
  }
  MP_EXPECTS(scale > 0.0);  // add() rejects non-positive factors
  return scale;
}

}  // namespace multipub::net
