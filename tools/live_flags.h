// The live-run vocabulary shared by multipub-sim and multipub-chaos,
// read into one sim::LiveOptions. Each tool's allow_only() list still
// decides which of these flags it accepts (multipub-chaos has no
// --cohorts).
#pragma once

#include <cstddef>
#include <string>

#include "flags.h"
#include "sim/live_runner.h"

namespace multipub::tools {

/// Reads --incremental, --shards, --cohorts, --quantize-ms and --reliable;
/// absent flags keep the LiveOptions defaults. Invalid values are recorded
/// in flags.errors(); `regions` bounds --shards.
[[nodiscard]] inline sim::LiveOptions read_live_options(Flags& flags,
                                                        std::size_t regions) {
  sim::LiveOptions options;
  options.incremental = flags.get_on_off("incremental", options.incremental);

  const long shards = flags.get_int("shards", 1);
  if (shards < 1) {
    flags.error("--shards must be >= 1");
  } else if (static_cast<std::size_t>(shards) > regions) {
    // Empty shards would still pay every barrier round.
    flags.error("--shards " + std::to_string(shards) + " exceeds the world's " +
                std::to_string(regions) +
                " regions; shards must be <= regions");
  } else {
    options.shards = static_cast<std::uint32_t>(shards);
  }

  options.cohorts = flags.get_on_off("cohorts", options.cohorts);
  const double quantize_ms = flags.get_double("quantize-ms", 0.0);
  if (quantize_ms < 0.0) {
    flags.error("--quantize-ms must be >= 0");
  } else if (flags.has("quantize-ms") && !options.cohorts) {
    flags.error(
        "--quantize-ms only applies to the cohort plane: add --cohorts on");
  } else {
    options.row_bucket_ms = quantize_ms;
  }

  options.reliable = flags.get_on_off("reliable", options.reliable);
  return options;
}

}  // namespace multipub::tools
