#include "node/world.h"

#include <vector>

#include "geo/latency.h"
#include "geo/region.h"

namespace multipub::node {

std::optional<sim::Scenario> build_live_world(const sim::ScenarioSpec& spec,
                                              std::string* error) {
  const geo::RegionCatalog full_catalog = geo::RegionCatalog::ec2_2016();
  const geo::InterRegionLatency full_backbone =
      geo::InterRegionLatency::ec2_2016();

  // Placement regions in order of first appearance -> dense live RegionIds.
  std::vector<RegionId> picked;  // live index -> full-catalog id
  for (const auto& placement : spec.placements) {
    const RegionId id = full_catalog.find(placement.region);
    if (!id.valid()) {
      if (error != nullptr) *error = "unknown region: " + placement.region;
      return std::nullopt;
    }
    bool seen = false;
    for (RegionId existing : picked) seen = seen || existing == id;
    if (!seen) picked.push_back(id);
  }
  if (picked.empty()) {
    if (error != nullptr) *error = "scenario has no placements";
    return std::nullopt;
  }

  std::vector<geo::Region> regions;
  regions.reserve(picked.size());
  for (std::size_t i = 0; i < picked.size(); ++i) {
    geo::Region region = full_catalog.at(picked[i]);
    region.id = RegionId{static_cast<RegionId::underlying_type>(i)};
    regions.push_back(std::move(region));
  }
  geo::RegionCatalog catalog(std::move(regions));

  geo::InterRegionLatency backbone(picked.size());
  for (std::size_t a = 0; a < picked.size(); ++a) {
    for (std::size_t b = a + 1; b < picked.size(); ++b) {
      backbone.set(RegionId{static_cast<RegionId::underlying_type>(a)},
                   RegionId{static_cast<RegionId::underlying_type>(b)},
                   full_backbone.at(picked[a], picked[b]));
    }
  }

  return sim::build_scenario(spec, catalog, backbone, error);
}

core::TopicConfig choose_bootstrap_config(const sim::Scenario& scenario) {
  const core::Optimizer optimizer = scenario.make_optimizer();
  return optimizer.optimize(scenario.topic).config;
}

net::Address controller_address(const sim::Scenario& scenario) {
  return net::Address::client(
      ClientId{static_cast<std::int32_t>(scenario.population.size())});
}

net::SocketTransport::AddressResolver address_resolver(
    const sim::Scenario& scenario) {
  const sim::Scenario* world = &scenario;
  return [world](net::Address to) -> std::int32_t {
    switch (to.kind) {
      case net::Address::Kind::kRegion:
        return to.id;
      case net::Address::Kind::kClient:
        if (to.id >= 0 &&
            static_cast<std::size_t>(to.id) < world->population.size()) {
          return world->population.home_region[static_cast<std::size_t>(
              to.id)].value();
        }
        return net::SocketTransport::kControllerNode;
      case net::Address::Kind::kCohort:
        return net::SocketTransport::kControllerNode;
    }
    return net::SocketTransport::kControllerNode;
  };
}

}  // namespace multipub::node
