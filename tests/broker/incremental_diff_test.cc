// Randomized differential test: the incremental reconfiguration pipeline
// (delta ingest + dirty-topic-only optimization) must produce a deployed
// assignment matrix bit-identical to the full-scan reference under traffic
// churn, membership churn, constraint updates, latency drift, and a region
// outage with recovery.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "broker/controller.h"
#include "common/rng.h"
#include "geo/king_synth.h"
#include "geo/synthetic.h"

namespace multipub::broker {
namespace {

constexpr std::size_t kRegions = 8;
constexpr std::size_t kClientsPerRegion = 4;
constexpr int kTopics = 20;
constexpr int kRounds = 14;
constexpr int kOutageRound = 5;
constexpr int kRecoveryRound = 8;
constexpr int kRefreshRound = 10;

/// Ground truth of the simulated world: what every region would report for
/// every topic if asked for a full snapshot.
struct WorldState {
  // topic -> region -> (publishers, subscribers); absent = no activity.
  struct RegionActivity {
    std::vector<core::PublisherStats> publishers;
    std::vector<ClientId> subscribers;

    friend bool operator==(const RegionActivity& a, const RegionActivity& b) {
      if (a.subscribers != b.subscribers ||
          a.publishers.size() != b.publishers.size()) {
        return false;
      }
      for (std::size_t i = 0; i < a.publishers.size(); ++i) {
        if (a.publishers[i].client != b.publishers[i].client ||
            a.publishers[i].msg_count != b.publishers[i].msg_count ||
            a.publishers[i].total_bytes != b.publishers[i].total_bytes) {
          return false;
        }
      }
      return true;
    }
  };
  std::map<TopicId, std::map<RegionId, RegionActivity>> activity;
};

class IncrementalDiffTest : public ::testing::Test {
 protected:
  IncrementalDiffTest()
      : rng_(4242),
        world_(geo::synthesize_world(kRegions, {}, rng_)),
        population_(geo::synthesize_population(world_.catalog, world_.backbone,
                                               kClientsPerRegion, {}, rng_)),
        incremental_(world_.catalog, world_.backbone, population_.latencies),
        full_(world_.catalog, world_.backbone, population_.latencies) {
    incremental_.set_solver(Controller::Solver::kHeuristic);
    full_.set_solver(Controller::Solver::kHeuristic);
  }

  ClientId random_client() {
    return ClientId{static_cast<ClientId::underlying_type>(
        rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1))};
  }

  RegionId home_of(ClientId client) {
    return population_.home_region[static_cast<std::size_t>(client.value())];
  }

  /// Seeds every topic with a couple of publishers and subscribers.
  void seed_world() {
    for (int t = 0; t < kTopics; ++t) {
      const TopicId topic{static_cast<TopicId::underlying_type>(t)};
      for (int p = 0; p < 2; ++p) {
        const ClientId pub = random_client();
        auto& at_home = truth_.activity[topic][home_of(pub)];
        at_home.publishers.push_back(
            {pub, static_cast<std::uint64_t>(rng_.uniform_int(5, 50)),
             static_cast<Bytes>(rng_.uniform_int(5, 50) * 1024)});
      }
      for (int s = 0; s < 3; ++s) {
        const ClientId sub = random_client();
        truth_.activity[topic][home_of(sub)].subscribers.push_back(sub);
      }
      normalize(topic);
      const auto constraint = core::DeliveryConstraint{
          90.0, rng_.uniform(120.0, 400.0)};
      incremental_.set_constraint(topic, constraint);
      full_.set_constraint(topic, constraint);
    }
  }

  /// Deduplicates + sorts a topic's truth (the report builders assume it).
  void normalize(TopicId topic) {
    for (auto& [region, act] : truth_.activity[topic]) {
      std::map<ClientId, core::PublisherStats> pubs;
      for (const auto& p : act.publishers) pubs[p.client] = p;
      act.publishers.clear();
      for (const auto& [c, p] : pubs) act.publishers.push_back(p);
      std::set<ClientId> subs(act.subscribers.begin(), act.subscribers.end());
      act.subscribers.assign(subs.begin(), subs.end());
    }
  }

  /// One round of random churn against the ground truth.
  void churn() {
    for (int i = 0; i < 6; ++i) {
      const TopicId topic{
          static_cast<TopicId::underlying_type>(rng_.uniform_int(0, kTopics - 1))};
      switch (rng_.uniform_int(0, 3)) {
        case 0: {  // traffic change (possibly drop to zero)
          auto& regions = truth_.activity[topic];
          if (regions.empty()) break;
          auto it = regions.begin();
          std::advance(it, rng_.uniform_int(
                               0, static_cast<std::int64_t>(regions.size()) - 1));
          if (!it->second.publishers.empty()) {
            auto& pub = it->second.publishers.front();
            if (rng_.uniform(0.0, 1.0) < 0.2) {
              it->second.publishers.erase(it->second.publishers.begin());
            } else {
              pub.msg_count =
                  static_cast<std::uint64_t>(rng_.uniform_int(1, 80));
              pub.total_bytes = pub.msg_count * 1024;
            }
          }
          break;
        }
        case 1: {  // subscriber join
          const ClientId sub = random_client();
          truth_.activity[topic][home_of(sub)].subscribers.push_back(sub);
          break;
        }
        case 2: {  // subscriber leave
          auto& regions = truth_.activity[topic];
          for (auto& [region, act] : regions) {
            if (!act.subscribers.empty()) {
              act.subscribers.erase(act.subscribers.begin());
              break;
            }
          }
          break;
        }
        case 3: {  // constraint update
          const auto constraint = core::DeliveryConstraint{
              90.0, rng_.uniform(120.0, 400.0)};
          incremental_.set_constraint(topic, constraint);
          full_.set_constraint(topic, constraint);
          break;
        }
      }
      normalize(topic);
    }
  }

  /// Builds this round's per-region report stream (deltas against what was
  /// last reported, or complete snapshots on `full_snapshot` rounds) and
  /// feeds the identical stream to BOTH controllers.
  void ingest_round(bool full_snapshot) {
    for (std::size_t r = 0; r < kRegions; ++r) {
      const RegionId region{static_cast<RegionId::underlying_type>(r)};
      std::vector<TopicReport> reports;
      for (int t = 0; t < kTopics; ++t) {
        const TopicId topic{static_cast<TopicId::underlying_type>(t)};
        const auto& regions = truth_.activity[topic];
        const auto now_it = regions.find(region);
        const bool active = now_it != regions.end() &&
                            (!now_it->second.publishers.empty() ||
                             !now_it->second.subscribers.empty());
        const auto& last = last_reported_.activity[topic][region];
        const WorldState::RegionActivity current =
            active ? now_it->second : WorldState::RegionActivity{};
        if (full_snapshot) {
          if (!active) continue;  // snapshots list only live topics
        } else if (current == last) {
          continue;  // unchanged: not part of the delta
        }
        reports.push_back({topic, current.publishers, current.subscribers});
        last_reported_.activity[topic][region] = current;
      }
      incremental_.ingest(region, reports, full_snapshot);
      full_.ingest(region, reports, full_snapshot);
    }
  }

  /// Feeds a few identical latency observations to both controllers.
  void observe_latencies() {
    const RegionId region{
        static_cast<RegionId::underlying_type>(rng_.uniform_int(0, kRegions - 1))};
    std::vector<LatencyReport> reports;
    for (int i = 0; i < 3; ++i) {
      reports.push_back({random_client(), rng_.uniform(10.0, 200.0)});
    }
    incremental_.observe_latencies(region, reports);
    full_.observe_latencies(region, reports);
  }

  Rng rng_;
  geo::SyntheticWorld world_;
  geo::ClientPopulation population_;
  Controller incremental_;
  Controller full_;
  WorldState truth_;
  WorldState last_reported_;
};

TEST_F(IncrementalDiffTest, MatrixBitIdenticalAcrossChurnOutageAndRecovery) {
  seed_world();

  bool saw_skipped_round = false;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) churn();
    if (round % 3 == 1) observe_latencies();
    if (round == kOutageRound) {
      const RegionId down{2};
      incremental_.set_region_available(down, false);
      full_.set_region_available(down, false);
    }
    if (round == kRecoveryRound) {
      const RegionId down{2};
      incremental_.set_region_available(down, true);
      full_.set_region_available(down, true);
    }

    ingest_round(/*full_snapshot=*/round == 0 || round == kRefreshRound);
    (void)incremental_.reconfigure();
    (void)full_.reconfigure_full();

    ASSERT_EQ(incremental_.render_assignment_matrix(),
              full_.render_assignment_matrix())
        << "round " << round;

    const auto& stats = incremental_.last_round_stats();
    EXPECT_FALSE(stats.full_scan);
    EXPECT_TRUE(full_.last_round_stats().full_scan);
    EXPECT_EQ(stats.evaluated + stats.skipped_clean + stats.skipped_empty,
              stats.tracked)
        << "round " << round;
    if (round > 0 && stats.skipped_clean > 0) saw_skipped_round = true;
  }
  // The whole point: churn of ~6 events per round against 20 topics must
  // leave some topics clean (otherwise the incremental path optimizes
  // everything and the test proves nothing).
  EXPECT_TRUE(saw_skipped_round);
}

TEST_F(IncrementalDiffTest, TrafficThresholdKeepsPathsIdentical) {
  // Traffic drift on every topic dirties every topic each round: the
  // incremental path then optimizes what the full scan does, and the
  // matrices must still match.
  seed_world();

  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      // Small drift (within 10%) on every publisher of every topic.
      for (int t = 0; t < kTopics; ++t) {
        const TopicId topic{static_cast<TopicId::underlying_type>(t)};
        for (auto& [region, act] : truth_.activity[topic]) {
          for (auto& pub : act.publishers) {
            const double factor = rng_.uniform(0.9, 1.1);
            pub.msg_count = static_cast<std::uint64_t>(
                static_cast<double>(pub.msg_count) * factor) + 1;
            pub.total_bytes = pub.msg_count * 1024;
          }
        }
        normalize(topic);
      }
    }
    ingest_round(/*full_snapshot=*/round == 0);
    (void)incremental_.reconfigure();
    (void)full_.reconfigure_full();
    ASSERT_EQ(incremental_.render_assignment_matrix(),
              full_.render_assignment_matrix())
        << "round " << round;
  }
}

}  // namespace
}  // namespace multipub::broker
