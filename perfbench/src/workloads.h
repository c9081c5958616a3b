// The benchmark's workloads. Each is built from public layer APIs (set-up,
// timed by the caller) and then measured for a number of seconds.
#pragma once

#include <memory>

#include "common.h"
#include "trace.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the measured phase for about `seconds` of wall time.
  virtual Measurement measure(double seconds) = 0;

  /// Threads that execute simulator events (1 unless sharded).
  [[nodiscard]] virtual std::uint32_t threads() const { return 1; }
};

/// twin-fanout (shards == 1) and twin-sharded (shards == 2).
std::unique_ptr<Workload> make_twin(const Options& options,
                                    std::uint32_t shards, Tracer* tracer);

/// twin-churn: the cohort plane driven through the control plane.
std::unique_ptr<Workload> make_churn(const Options& options, Tracer* tracer);

/// live-fanout: four SocketTransport nodes polled by one thread.
std::unique_ptr<Workload> make_live(const Options& options, Tracer* tracer);

}  // namespace perfbench
