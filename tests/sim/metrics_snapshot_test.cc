#include "sim/metrics_snapshot.h"

#include <gtest/gtest.h>

namespace multipub::sim {
namespace {

class MetricsSnapshotTest : public ::testing::Test {
 protected:
  MetricsSnapshotTest() : rng_(151) {
    WorkloadSpec workload;
    workload.interval_seconds = 10.0;
    workload.ratio = 75.0;
    scenario_ = make_scenario({{RegionId{0}, 2, 3}}, workload, rng_);
  }

  Rng rng_;
  Scenario scenario_;
};

TEST_F(MetricsSnapshotTest, CountsMatchObservableActivity) {
  LiveSystem live(scenario_);
  live.deploy({geo::RegionSet::single(RegionId{0}),
               core::DeliveryMode::kDirect});
  const auto run = live.run_interval(10.0, 1024, 1.0, rng_);

  auto metrics = collect_metrics(live);
  EXPECT_DOUBLE_EQ(metrics.value("clients.deliveries"),
                   static_cast<double>(run.deliveries));
  EXPECT_DOUBLE_EQ(metrics.value("clients.reconnects"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("clients.duplicates"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("transport.messages_dropped"), 0.0);
  EXPECT_TRUE(metrics.contains("transport.dropped_unregistered"));
  EXPECT_DOUBLE_EQ(metrics.value("transport.dropped_unregistered"), 0.0);
  EXPECT_GT(metrics.value("transport.messages_sent"), 0.0);
  EXPECT_NEAR(metrics.value("transport.cost_usd"), run.interval_cost, 1e-12);
  // Only us-east-1 serves: it delivered and billed; Tokyo is idle.
  EXPECT_DOUBLE_EQ(metrics.value("region.us-east-1.delivered"),
                   static_cast<double>(run.deliveries));
  EXPECT_DOUBLE_EQ(metrics.value("region.ap-northeast-1.internet_bytes"),
                   0.0);
  EXPECT_DOUBLE_EQ(metrics.value("region.us-east-1.down"), 0.0);
}

TEST_F(MetricsSnapshotTest, OutageAndServersAreVisible) {
  LiveSystem live(scenario_);
  live.deploy({geo::RegionSet::single(RegionId{0}),
               core::DeliveryMode::kDirect});
  live.transport().set_region_down(RegionId{5}, true);
  (void)live.run_interval(10.0, 1024, 1.0, rng_);
  (void)live.control_round();  // scaler runs during report collection

  auto metrics = collect_metrics(live);
  EXPECT_DOUBLE_EQ(metrics.value("region.ap-northeast-1.down"), 1.0);
  EXPECT_GE(metrics.value("region.us-east-1.servers"), 1.0);
}

TEST_F(MetricsSnapshotTest, ControlPlaneCountersAreExposed) {
  LiveSystem live(scenario_);
  live.deploy({geo::RegionSet::single(RegionId{0}),
               core::DeliveryMode::kDirect});
  (void)live.run_interval(10.0, 1024, 1.0, rng_);
  (void)live.control_round();

  auto metrics = collect_metrics(live);
  EXPECT_DOUBLE_EQ(metrics.value("controller.rounds"), 1.0);
  EXPECT_GE(metrics.value("controller.topics_tracked"), 1.0);
  // First sighting of the topic: it was dirty and got evaluated.
  EXPECT_GE(metrics.value("controller.evaluated_last_round"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("region.us-east-1.drain_forwarded"), 0.0);
}

TEST_F(MetricsSnapshotTest, RenderContainsEveryRegion) {
  LiveSystem live(scenario_);
  auto metrics = collect_metrics(live);
  const std::string text = metrics.render();
  for (const auto& region : scenario_.catalog.all()) {
    EXPECT_NE(text.find("region." + region.name + "."), std::string::npos)
        << region.name;
  }
}

TEST_F(MetricsSnapshotTest, WindowMetricsLiveInTheirOwnRegistry) {
  // The window telemetry (DESIGN.md §14) describes the execution engine and
  // varies with the shard count — it must NEVER leak into collect_metrics,
  // whose render is byte-compared across shard counts by the differential
  // suites.
  LiveSystem live(scenario_, {.shards = 4});
  live.deploy({geo::RegionSet::single(RegionId{0}),
               core::DeliveryMode::kDirect});
  (void)live.run_interval(10.0, 1024, 1.0, rng_);

  EXPECT_EQ(collect_metrics(live).render().find("dataplane."),
            std::string::npos);

  auto windows = collect_window_metrics(live);
  EXPECT_GT(windows.value("dataplane.windows_executed"), 0.0);
  EXPECT_GT(windows.value("dataplane.events_per_window"), 0.0);
  EXPECT_GT(windows.value("dataplane.window_width_mean_ms"), 0.0);
  EXPECT_GE(windows.value("dataplane.window_width_max_ms"),
            windows.value("dataplane.window_width_mean_ms"));
  EXPECT_TRUE(windows.contains("dataplane.barrier_spins"));
  EXPECT_TRUE(windows.contains("dataplane.barrier_parks"));
  EXPECT_TRUE(windows.contains("dataplane.mail_items"));
}

TEST_F(MetricsSnapshotTest, WindowMetricsAreAllZeroUnsharded) {
  LiveSystem live(scenario_);
  live.deploy({geo::RegionSet::single(RegionId{0}),
               core::DeliveryMode::kDirect});
  (void)live.run_interval(10.0, 1024, 1.0, rng_);
  auto windows = collect_window_metrics(live);
  EXPECT_DOUBLE_EQ(windows.value("dataplane.windows_executed"), 0.0);
  EXPECT_DOUBLE_EQ(windows.value("dataplane.mail_items"), 0.0);
  EXPECT_DOUBLE_EQ(windows.value("dataplane.barrier_parks"), 0.0);
}

}  // namespace
}  // namespace multipub::sim
