// Shared world construction for live nodes and their digital twin.
//
// A live deployment runs one broker process per region, so the world is
// RESTRICTED to the regions the scenario actually places clients in: the
// EC2-2016 catalog rows of those regions (densely re-numbered in order of
// first appearance) and the matching backbone submatrix. Every process —
// controller, each broker, and the in-process twin a convergence test runs
// — builds the world through this one function from the same ScenarioSpec,
// so they agree on region ids, the synthesized population (seeded), the
// optimizer's candidate set, and therefore the chosen configuration.
#pragma once

#include <optional>
#include <string>

#include "core/optimizer.h"
#include "net/socket_transport.h"
#include "sim/scenario_file.h"

namespace multipub::node {

/// Materializes `spec` over the restricted EC2-2016 world. On failure
/// returns nullopt and explains in `error`.
[[nodiscard]] std::optional<sim::Scenario> build_live_world(
    const sim::ScenarioSpec& spec, std::string* error);

/// The bootstrap configuration every process deploys in the attach phase:
/// the optimizer's choice for the scenario's expected topic state. Pure
/// function of the scenario, so controller and twin compute the same one.
[[nodiscard]] core::TopicConfig choose_bootstrap_config(
    const sim::Scenario& scenario);

/// The controller's address. The controller has no region, so it listens
/// one past the client id space: Address::client(population size). Every
/// process builds the same world from the same spec, so the id agrees
/// across processes.
[[nodiscard]] net::Address controller_address(const sim::Scenario& scenario);

/// Which node an address lives on: a region on its broker node, a client of
/// the population on its home region's node, anything else (cohort
/// addresses, controller_address()) on the controller. `scenario` must
/// outlive the resolver.
[[nodiscard]] net::SocketTransport::AddressResolver address_resolver(
    const sim::Scenario& scenario);

}  // namespace multipub::node
