#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

struct ThreadCache {
  std::uint64_t tracer_id = 0;
  void* state = nullptr;
};
thread_local ThreadCache t_cache;

/// Same publication, same decision, on every hop and every thread.
bool sampled(const wire::Message& msg, std::uint32_t every) {
  std::uint64_t h = static_cast<std::uint32_t>(msg.topic.value());
  h = (h * 0x9e3779b97f4a7c15ULL) ^ msg.seq;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h % every == 0;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimRun: return "net.sim.run";
    case Layer::kTransportSend: return "net.transport.send";
    case Layer::kBrokerHandler: return "broker.handler";
    case Layer::kClientReceive: return "client.receive";
    case Layer::kCohortReceive: return "client.cohort.receive";
    case Layer::kControllerIngest: return "broker.controller.ingest";
    case Layer::kControllerRound: return "broker.controller.reconfigure";
    case Layer::kRegionReport: return "broker.region_manager.report";
    case Layer::kDeploy: return "broker.region_manager.apply_config";
    case Layer::kCohortChurn: return "client.cohort.churn";
    case Layer::kCohortEnrol: return "client.cohort.enrol";
    case Layer::kOptimizerBootstrap: return "core.optimizer.bootstrap";
    case Layer::kSocketPoll: return "net.socket.poll_once";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::ThreadState& Tracer::local() {
  if (t_cache.tracer_id != id_) {
    auto state = std::make_unique<ThreadState>();
    ThreadState* raw = state.get();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::move(state));
    }
    t_cache.tracer_id = id_;
    t_cache.state = raw;
  }
  return *static_cast<ThreadState*>(t_cache.state);
}

void Tracer::open(Layer layer, const wire::Message* msg) {
  ThreadState& t = local();
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  // Poll spans repeat millions of times without a message: keep one in
  // kSampleEvery of them, like message spans.
  const bool keep = msg != nullptr ? sampled(*msg, kSampleEvery)
                    : layer == Layer::kSocketPoll
                        ? ++t.polls % kSampleEvery == 0
                        : true;
  std::int64_t record = -1;
  if (keep && t.spans.size() < kMaxSpansPerThread) {
    record = static_cast<std::int64_t>(t.spans.size());
    t.spans.push_back({layer, now, now,
                       t.stack.empty() ? -1 : t.stack.back().record,
                       msg != nullptr ? msg->topic.value() : -1,
                       msg != nullptr ? msg->seq : 0});
  }
  t.stack.push_back({layer, now, 0, record});
}

void Tracer::close() {
  ThreadState& t = local();
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  const Frame frame = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t duration = now - frame.start_ns;
  Totals& totals = t.totals[static_cast<std::size_t>(frame.layer)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration > frame.child_ns ? duration - frame.child_ns : 0;
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (frame.record >= 0) {
    t.spans[static_cast<std::size_t>(frame.record)].end_ns = now;
  }
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, const wire::Message* msg)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(layer, msg);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

void Tracer::count_sub_mutation() { ++local().sub_mutations; }

Tracer::LayerTotals Tracer::totals() const {
  LayerTotals merged{};
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      merged[i].calls += t->totals[i].calls;
      merged[i].total_ns += t->totals[i].total_ns;
      merged[i].self_ns += t->totals[i].self_ns;
    }
  }
  return merged;
}

std::uint64_t Tracer::sub_mutations() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) total += t->sub_mutations;
  return total;
}

std::uint64_t Tracer::recorded_spans() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) total += t->spans.size();
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tid\tname\tstart_ns\tend_ns\tparent\ttopic\tseq\n");
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t thread = 0; thread < threads_.size(); ++thread) {
    const auto& spans = threads_[thread]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(out, "%zu\t%zu\t%s\t%llu\t%llu\t%lld\t%d\t%llu\n", thread,
                   i, layer_name(s.layer),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<long long>(s.parent), s.topic,
                   static_cast<unsigned long long>(s.seq));
    }
  }
  return std::fclose(out) == 0;
}

void TracingBus::register_handler(net::Address address, Handler handler) {
  Layer layer = Layer::kClientReceive;
  if (address.kind == net::Address::Kind::kRegion) {
    layer = Layer::kBrokerHandler;
  } else if (address.kind == net::Address::Kind::kCohort) {
    layer = Layer::kCohortReceive;
  }
  bus_->register_handler(
      address, [tracer = tracer_, layer,
                handler = std::move(handler)](const wire::Message& msg) {
        if (layer == Layer::kBrokerHandler &&
            (msg.type == wire::MessageType::kSubscribe ||
             msg.type == wire::MessageType::kUnsubscribe)) {
          tracer->count_sub_mutation();
        }
        auto span = Tracer::span(tracer, layer, &msg);
        handler(msg);
      });
}

void TracingBus::send(net::Address from, net::Address to, wire::Message msg) {
  auto span = Tracer::span(tracer_, Layer::kTransportSend, &msg);
  bus_->send(from, to, std::move(msg));
}

void TracingBus::send_batch(net::Address from,
                            std::span<const net::Address> targets,
                            const wire::Message& msg,
                            wire::MessageType stamped_type) {
  auto span = Tracer::span(tracer_, Layer::kTransportSend, &msg);
  bus_->send_batch(from, targets, msg, stamped_type);
}

}  // namespace perfbench
