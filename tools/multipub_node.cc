// multipub-node — one live MultiPub process (DESIGN.md §13).
//
// Runs either the controller or one region's broker as a real OS process
// over TCP sockets, driven by the same scenario files the simulator reads.
// A deployment is one controller plus one broker per region the scenario
// places clients in:
//
//   multipub-node --role controller --scenario exp.scn --listen 0
//                 --port-file ctrl.port --metrics-out ctrl.metrics
//   multipub-node --role broker --region ap-northeast-1 --scenario exp.scn
//                 --controller-port $(cat ctrl.port) --metrics-out b0.metrics
//
// Every process builds the same restricted world from the scenario file
// (node/world.h), so they agree on region ids, the synthesized population
// and the optimizer's choices; the controller sequences the run through the
// lock-step phase machine of node/protocol.h.
#include <cstdio>
#include <fstream>
#include <string>

#include "node/broker_node.h"
#include "node/controller_node.h"
#include "node/world.h"
#include "sim/scenario_file.h"
#include "flags.h"

using namespace multipub;

namespace {

void usage() {
  std::printf(R"(multipub-node — one live MultiPub process

  --role controller|broker   which node this process runs (required)
  --scenario FILE            scenario file (required; same file everywhere)
  --seed S                   override the scenario's population seed
                             (must match across all processes)
  --listen PORT              listening port (default 0 = ephemeral)
  --deadline-ms MS           give up after this much wall time (default 120000)
  --metrics-out FILE         write final counters here (includes the
                             net.transport.* hot-path telemetry)
  --transport-batching on|off
                             coalesced vectored socket flushes and
                             encode-once fan-out (default on); off keeps the
                             per-frame-flush reference path — billing and
                             delivery are identical either way

controller only:
  --port-file FILE           write the bound port here once listening

broker only:
  --region NAME              the region this broker serves (required)
  --controller-port PORT     the controller's port (required)
  --time-scale X             compress the traffic interval X-fold (default 1)
  --reliable on|off          arm the in-process reliability layer: sequenced
                             delivery stamps, bounded replay ring, client
                             gap detection (DESIGN.md §15; default off)
)");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  flags.allow_only({
      "help", "role", "scenario", "seed", "listen", "deadline-ms",
      "metrics-out", "port-file", "region", "controller-port", "time-scale",
      "reliable", "transport-batching",
  });

  const std::string role = flags.get("role", "");
  const std::string scenario_path = flags.get("scenario", "");
  const long listen = flags.get_int("listen", 0);
  const double deadline_ms = flags.get_double("deadline-ms", 120000.0);
  const double time_scale = flags.get_double("time-scale", 1.0);
  const long controller_port = flags.get_int("controller-port", 0);
  const bool reliable = flags.get_on_off("reliable", false);
  const bool batching = flags.get_on_off("transport-batching", true);
  if (role != "controller" && role != "broker") {
    flags.error("--role must be 'controller' or 'broker'");
  }
  if (scenario_path.empty()) flags.error("--scenario is required");
  if (time_scale <= 0.0) flags.error("--time-scale must be > 0");
  if (flags.print_errors()) return 2;

  const auto content = tools::read_file(scenario_path, "scenario");
  if (!content) return 1;
  std::string error;
  auto spec = sim::parse_scenario_spec(*content, &error);
  if (!spec) {
    std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(), error.c_str());
    return 1;
  }
  if (flags.has("seed")) {
    spec->seed = static_cast<std::uint64_t>(flags.get_int("seed", 2017));
  }
  const auto scenario = node::build_live_world(*spec, &error);
  if (!scenario) {
    std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(), error.c_str());
    return 1;
  }

  if (role == "controller") {
    node::ControllerNodeOptions options;
    options.listen_port = static_cast<std::uint16_t>(listen);
    options.metrics_path = flags.get("metrics-out", "");
    options.seed = spec->seed;
    options.transport_batching = batching;
    node::ControllerNode controller(*scenario, options);
    if (!controller.start()) {
      std::fprintf(stderr, "cannot listen on port %ld\n", listen);
      return 1;
    }
    if (const std::string port_file = flags.get("port-file", "");
        !port_file.empty()) {
      std::ofstream out(port_file);
      out << controller.port() << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", port_file.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "controller listening on %u (%zu brokers)\n",
                 controller.port(), scenario->catalog.size());
    if (!controller.run(deadline_ms)) {
      std::fprintf(stderr, "controller timed out after %.0f ms\n",
                   deadline_ms);
      return 1;
    }
    return 0;
  }

  const std::string region_name = flags.get("region", "");
  const RegionId region = scenario->catalog.find(region_name);
  if (!region.valid()) {
    flags.error("--region '" + region_name +
                "' is not one of the scenario's placement regions");
  }
  if (controller_port <= 0) {
    flags.error("--controller-port is required for brokers");
  }
  if (flags.print_errors()) return 2;
  node::BrokerNodeOptions options;
  options.listen_port = static_cast<std::uint16_t>(listen);
  options.controller_port = static_cast<std::uint16_t>(controller_port);
  options.metrics_path = flags.get("metrics-out", "");
  options.time_scale = time_scale;
  options.reliable = reliable;
  options.transport_batching = batching;
  node::BrokerNode broker(*scenario, region, options);
  if (!broker.start()) {
    std::fprintf(stderr, "cannot listen on port %ld\n", listen);
    return 1;
  }
  std::fprintf(stderr, "broker %s (region %d) listening on %u\n",
               region_name.c_str(), region.value(), broker.port());
  if (!broker.run(deadline_ms)) {
    std::fprintf(stderr, "broker %s timed out after %.0f ms\n",
                 region_name.c_str(), deadline_ms);
    return 1;
  }
  return 0;
}
