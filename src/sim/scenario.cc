#include "sim/scenario.h"

#include <cmath>

#include "common/assert.h"

namespace multipub::sim {

std::uint64_t messages_per_interval(const WorkloadSpec& workload) {
  MP_EXPECTS(workload.publish_rate_hz > 0.0);
  MP_EXPECTS(workload.interval_seconds > 0.0);
  const double n =
      std::round(workload.publish_rate_hz * workload.interval_seconds);
  return n < 1.0 ? 1 : static_cast<std::uint64_t>(n);
}

Scenario make_scenario(const std::vector<PlacementSpec>& placements,
                       const WorkloadSpec& workload, Rng& rng,
                       const geo::KingSynthParams& synth) {
  return make_scenario(geo::RegionCatalog::ec2_2016(),
                       geo::InterRegionLatency::ec2_2016(), placements,
                       workload, rng, synth);
}

Scenario make_scenario(const geo::RegionCatalog& catalog,
                       const geo::InterRegionLatency& backbone,
                       const std::vector<PlacementSpec>& placements,
                       const WorkloadSpec& workload, Rng& rng,
                       const geo::KingSynthParams& synth) {
  Scenario s;
  s.catalog = catalog;
  s.backbone = backbone;
  s.interval_seconds = workload.interval_seconds;

  s.population.latencies = geo::ClientLatencyMap(s.catalog.size());

  std::vector<ClientId> publisher_ids;
  std::vector<ClientId> subscriber_ids;
  for (const auto& place : placements) {
    MP_EXPECTS(place.region.valid() && place.region.index() < s.catalog.size());
    const std::size_t count = place.publishers + place.subscribers;
    auto local = geo::synthesize_local_population(
        s.catalog, s.backbone, place.region, count, synth, rng);
    // Re-home the freshly synthesized rows into the scenario population so
    // ids stay dense across placements.
    MP_EXPECTS(workload.subscriber_replication >= 1);
    for (std::size_t i = 0; i < count; ++i) {
      const ClientId local_id{static_cast<ClientId::underlying_type>(i)};
      const auto row = local.latencies.row(local_id);
      if (i < place.publishers) {
        publisher_ids.push_back(s.population.latencies.add_client(row));
        s.population.home_region.push_back(place.region);
      } else {
        // Each subscriber position materializes `subscriber_replication`
        // distinct clients on the same exact row.
        for (std::size_t rep = 0; rep < workload.subscriber_replication;
             ++rep) {
          subscriber_ids.push_back(s.population.latencies.add_client(row));
          s.population.home_region.push_back(place.region);
        }
      }
    }
  }

  s.topic.topic = TopicId{0};
  s.topic.constraint = {workload.ratio, workload.max_t};
  const std::uint64_t msgs = messages_per_interval(workload);
  s.topic.publishers =
      core::uniform_publishers(publisher_ids, msgs, workload.message_bytes);
  s.topic.subscribers = core::unit_subscribers(subscriber_ids);
  return s;
}

Scenario make_experiment1_scenario(Rng& rng) {
  // "100 globally-distributed publishers and subscribers, where always 10
  // publishers and 10 subscribers are located close to one of the EC2
  // regions. Each publisher publishes on average once per second (message
  // size of 1 KByte)." Ratio 75 %.
  std::vector<PlacementSpec> placements;
  for (int r = 0; r < 10; ++r) {
    placements.push_back({RegionId{r}, 10, 10});
  }
  WorkloadSpec workload;
  workload.ratio = 75.0;
  return make_scenario(placements, workload, rng);
}

Scenario make_experiment2_scenario(Rng& rng) {
  // "100 publishers and 25 subscribers in Asia, and 25 subscribers in the
  // USA." Publishers spread over the four Asia-Pacific regions; Asian
  // subscribers near Tokyo, US subscribers near N. Virginia. Ratio 75 %.
  const auto catalog = geo::RegionCatalog::ec2_2016();
  const RegionId tokyo = catalog.find("ap-northeast-1");
  const RegionId seoul = catalog.find("ap-northeast-2");
  const RegionId singapore = catalog.find("ap-southeast-1");
  const RegionId sydney = catalog.find("ap-southeast-2");
  const RegionId virginia = catalog.find("us-east-1");

  std::vector<PlacementSpec> placements{
      {tokyo, 25, 25},
      {seoul, 25, 0},
      {singapore, 25, 0},
      {sydney, 25, 0},
      {virginia, 0, 25},
  };
  WorkloadSpec workload;
  workload.ratio = 75.0;
  return make_scenario(placements, workload, rng);
}

Scenario make_experiment3_scenario(RegionId home, Rng& rng) {
  // "100 publishers and 100 subscribers were selected so that they were
  // closest from a latency point of view to region R." Ratio 95 %.
  std::vector<PlacementSpec> placements{{home, 100, 100}};
  WorkloadSpec workload;
  workload.ratio = 95.0;
  return make_scenario(placements, workload, rng);
}

}  // namespace multipub::sim
