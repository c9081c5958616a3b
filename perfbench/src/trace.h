// Spans recorded from outside the program, for the traced run.
//
// The benchmark never instruments the program itself. It places a TracingBus
// between the middleware components it builds and the transport, so every
// registered handler and every send/send_batch runs inside a span, and it
// opens spans around the layer calls it makes itself (Simulator::run,
// Controller::ingest/reconfigure, region-manager reports, CohortPool churn,
// the bootstrap optimisation, SocketTransport::poll_once).
//
// Every span updates per-thread totals: calls, duration, and self time —
// the duration minus the part of it that child spans cover. Full span
// records (name, start, end, parent, message id) are kept for one message
// in kSampleEvery, chosen by its (topic, seq), so one publication's hops
// all share an id; of the poll spans one in kSampleEvery is kept, and
// every other span without a message is. Records sit in per-thread
// (per-shard) buffers and are written out at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/bus.h"

namespace perfbench {

using namespace multipub;

enum class Layer : std::uint8_t {
  kSimRun,             ///< net: Simulator::run
  kTransportSend,      ///< net: Bus::send / send_batch
  kBrokerHandler,      ///< broker: inbound message at a region address
  kClientReceive,      ///< client: inbound message at a client address
  kCohortReceive,      ///< client: inbound message at a flock address
  kControllerIngest,   ///< broker: Controller::ingest
  kControllerRound,    ///< broker: Controller::reconfigure
  kRegionReport,       ///< broker: RegionManager::collect_reports
  kDeploy,             ///< broker: RegionManager::apply_config
  kCohortChurn,        ///< client: CohortPool subscribe/unsubscribe_client
  kCohortEnrol,        ///< client: CohortPool::enroll / deploy
  kOptimizerBootstrap, ///< core: the bootstrap optimisation of every topic
  kSocketPoll,         ///< net: SocketTransport::poll_once
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer);

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  using LayerTotals = std::array<Totals, static_cast<std::size_t>(Layer::kCount)>;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; closes at scope exit.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, const wire::Message* msg);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Opens a span; a null tracer makes it a no-op.
  [[nodiscard]] static Scope span(Tracer* tracer, Layer layer,
                                  const wire::Message* msg = nullptr) {
    return Scope(tracer, layer, msg);
  }

  /// Counts one subscription-table mutation seen at a broker address.
  void count_sub_mutation();

  /// Totals merged over every thread that recorded spans. Call only while
  /// no span is open on another thread.
  [[nodiscard]] LayerTotals totals() const;
  [[nodiscard]] std::uint64_t sub_mutations() const;
  [[nodiscard]] std::uint64_t recorded_spans() const;

  /// Writes every buffered span as tab-separated lines to `path`
  /// (thread, id, name, start_ns, end_ns, parent, topic, seq). Returns false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t record;  ///< index into ThreadState::spans, -1 = unrecorded
  };
  struct SpanRecord {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
    std::int32_t topic;
    std::uint64_t seq;
  };
  struct ThreadState {
    std::vector<Frame> stack;
    LayerTotals totals{};
    std::uint64_t sub_mutations = 0;
    std::uint64_t polls = 0;
    std::vector<SpanRecord> spans;
  };

  ThreadState& local();
  void open(Layer layer, const wire::Message* msg);
  void close();

  static constexpr std::size_t kMaxSpansPerThread = 1 << 20;
  static constexpr std::uint32_t kSampleEvery = 64;

  std::uint64_t id_;  ///< distinguishes tracers in the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// Decorating Bus/Clock: forwards everything to the wrapped transport and
/// clock, timing each handler invocation under the layer its address
/// belongs to and each send under the transport layer.
class TracingBus final : public net::Bus, public net::Clock {
 public:
  TracingBus(net::Bus& bus, net::Clock& clock, Tracer& tracer)
      : bus_(&bus), clock_(&clock), tracer_(&tracer) {}

  [[nodiscard]] Millis now() const override { return clock_->now(); }
  void schedule_after(Millis delay, std::function<void()> action) override {
    clock_->schedule_after(delay, std::move(action));
  }

  void register_handler(net::Address address, Handler handler) override;
  void unregister_handler(net::Address address) override {
    bus_->unregister_handler(address);
  }
  void send(net::Address from, net::Address to, wire::Message msg) override;
  void send_batch(net::Address from, std::span<const net::Address> targets,
                  const wire::Message& msg,
                  wire::MessageType stamped_type) override;
  void set_cohort_directory(const net::CohortDirectory* directory) override {
    bus_->set_cohort_directory(directory);
  }
  [[nodiscard]] const net::CohortDirectory* cohort_directory() const override {
    return bus_->cohort_directory();
  }

 private:
  net::Bus* bus_;
  net::Clock* clock_;
  Tracer* tracer_;
};

}  // namespace perfbench
