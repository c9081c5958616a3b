// The one conversion between a core::TopicConfig and the config_regions /
// config_mode fields that carry it on the wire (kConfigUpdate, kPhaseStart
// and the reliable mode's config entries).
//
// Header-only, so the wire library itself keeps no link dependency on core;
// core never includes wire, so the include edge wire -> core adds no cycle.
#pragma once

#include "core/config.h"
#include "wire/message.h"

namespace multipub::wire {

/// Writes `config` into msg.config_regions and msg.config_mode.
inline void set_config(Message& msg, const core::TopicConfig& config) {
  msg.config_regions = config.regions;
  msg.config_mode = config.mode == core::DeliveryMode::kRouted
                        ? WireMode::kRouted
                        : WireMode::kDirect;
}

/// The configuration msg.config_regions and msg.config_mode carry.
[[nodiscard]] inline core::TopicConfig config_of(const Message& msg) {
  return {msg.config_regions, msg.config_mode == WireMode::kRouted
                                  ? core::DeliveryMode::kRouted
                                  : core::DeliveryMode::kDirect};
}

}  // namespace multipub::wire
