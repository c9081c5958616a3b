// Differential test: the batched EvaluationEngine must reproduce the seed's
// config-by-config reference path EXACTLY — same chosen configuration, same
// percentile and cost doubles, same feasibility — across randomized worlds
// that deliberately provoke every tie-break (equal latencies, equal tariffs,
// infeasible fallbacks, pruned candidate sets, all three mode policies).
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluation_engine.h"
#include "core/optimizer.h"
#include "geo/latency.h"
#include "geo/region.h"
#include "geo/region_set.h"

namespace multipub::core {
namespace {

struct RandomWorld {
  geo::RegionCatalog catalog;
  geo::InterRegionLatency backbone;
  geo::ClientLatencyMap clients;
  std::vector<ClientId> client_ids;
};

// Latencies snap to multiples of 5 ms and tariffs draw from a small discrete
// menu so exact ties (equal latency, equal cost) occur constantly — the
// regime where an incorrect tie-break order would diverge from the reference.
RandomWorld make_world(Rng& rng, std::size_t n_regions,
                       std::size_t n_clients) {
  RandomWorld world;
  static const double kAlphaMenu[] = {0.02, 0.02, 0.09, 0.16};
  static const double kBetaMenu[] = {0.09, 0.09, 0.14, 0.25};
  std::vector<geo::Region> regions;
  for (std::size_t i = 0; i < n_regions; ++i) {
    geo::Region r;
    r.name = "r" + std::to_string(i);
    r.location = r.name;
    r.inter_region_cost_per_gb = kAlphaMenu[rng.uniform_int(0, 3)];
    r.internet_cost_per_gb = kBetaMenu[rng.uniform_int(0, 3)];
    regions.push_back(r);
  }
  world.catalog = geo::RegionCatalog(std::move(regions));

  world.backbone = geo::InterRegionLatency(n_regions);
  for (std::size_t a = 0; a < n_regions; ++a) {
    for (std::size_t b = a + 1; b < n_regions; ++b) {
      world.backbone.set(RegionId{static_cast<std::int32_t>(a)},
                         RegionId{static_cast<std::int32_t>(b)},
                         5.0 * static_cast<double>(rng.uniform_int(2, 30)));
    }
  }

  world.clients = geo::ClientLatencyMap(n_regions);
  for (std::size_t c = 0; c < n_clients; ++c) {
    std::vector<Millis> row(n_regions);
    for (std::size_t j = 0; j < n_regions; ++j) {
      row[j] = 5.0 * static_cast<double>(rng.uniform_int(1, 40));
    }
    world.client_ids.push_back(world.clients.add_client(row));
  }
  return world;
}

TopicState make_topic(Rng& rng, const RandomWorld& world) {
  TopicState topic;
  topic.topic = TopicId{0};

  static const double kRatios[] = {50.0, 75.0, 90.0, 95.0, 99.0, 100.0};
  topic.constraint.ratio = kRatios[rng.uniform_int(0, 5)];
  // Mix of regimes: mostly-feasible, borderline (forces the cost/percentile
  // tie-breaks among a narrow feasible set), and impossible (fallback path).
  switch (rng.uniform_int(0, 3)) {
    case 0: topic.constraint.max = kUnreachable; break;
    case 1: topic.constraint.max = 5.0 * rng.uniform_int(20, 80); break;
    case 2: topic.constraint.max = 5.0 * rng.uniform_int(6, 30); break;
    default: topic.constraint.max = 1.0; break;  // nothing feasible
  }

  const auto pick_client = [&] {
    return world.client_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(world.client_ids.size()) - 1))];
  };

  const std::int64_t n_pubs = rng.uniform_int(1, 4);
  for (std::int64_t p = 0; p < n_pubs; ++p) {
    PublisherStats pub;
    pub.client = pick_client();
    // Occasional silent publisher: contributes no samples and no bytes.
    pub.msg_count = rng.uniform_int(0, 4) == 0
                        ? 0
                        : static_cast<std::uint64_t>(rng.uniform_int(1, 50));
    pub.total_bytes = pub.msg_count * static_cast<Bytes>(rng.uniform_int(100, 2000));
    topic.publishers.push_back(pub);
  }
  if (topic.total_messages() == 0) topic.publishers[0].msg_count = 7;

  const std::int64_t n_subs = rng.uniform_int(1, 8);
  for (std::int64_t s = 0; s < n_subs; ++s) {
    SubscriberStats sub;
    sub.client = pick_client();
    sub.weight = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    sub.selectivity = rng.uniform_int(0, 2) == 0 ? 1.0 : rng.uniform(0.1, 1.0);
    topic.subscribers.push_back(sub);
  }
  if (topic.total_subscriber_weight() == 0) topic.subscribers[0].weight = 3;
  return topic;
}

OptimizerOptions make_options(Rng& rng, std::size_t n_regions) {
  OptimizerOptions options;
  switch (rng.uniform_int(0, 3)) {
    case 0: options.mode_policy = ModePolicy::kDirectOnly; break;
    case 1: options.mode_policy = ModePolicy::kRoutedOnly; break;
    default: options.mode_policy = ModePolicy::kBoth; break;
  }
  if (rng.uniform_int(0, 2) == 0) {  // pruned candidate set
    geo::RegionSet candidates;
    for (std::size_t j = 0; j < n_regions; ++j) {
      if (rng.uniform_int(0, 1) == 0) {
        candidates.add(RegionId{static_cast<std::int32_t>(j)});
      }
    }
    if (candidates.empty()) {
      candidates.add(RegionId{static_cast<std::int32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_regions) - 1))});
    }
    options.candidates = candidates;
  }
  return options;
}

TEST(EngineDiffTest, MatchesReferenceAcrossRandomizedTopics) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n_regions = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto n_clients = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const RandomWorld world = make_world(rng, n_regions, n_clients);
    const Optimizer optimizer(world.catalog, world.backbone, world.clients);
    const TopicState topic = make_topic(rng, world);
    const OptimizerOptions options = make_options(rng, n_regions);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const OptimizerResult ref = optimizer.optimize_reference(topic, options);
    const OptimizerResult got = optimizer.optimize(topic, options);

    EXPECT_EQ(got.config, ref.config)
        << "engine " << got.config.to_string() << " vs reference "
        << ref.config.to_string();
    // Bit-identical doubles, not approximate: the engine mirrors the
    // reference accumulation orders exactly.
    EXPECT_EQ(got.percentile, ref.percentile);
    EXPECT_EQ(got.cost, ref.cost);
    EXPECT_EQ(got.constraint_met, ref.constraint_met);
    EXPECT_EQ(got.configs_evaluated, ref.configs_evaluated);
  }
}

TEST(EngineDiffTest, EvaluateAllMatchesReferenceRowForRow) {
  Rng rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n_regions = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto n_clients = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const RandomWorld world = make_world(rng, n_regions, n_clients);
    const Optimizer optimizer(world.catalog, world.backbone, world.clients);
    const TopicState topic = make_topic(rng, world);
    const OptimizerOptions options = make_options(rng, n_regions);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const auto ref = optimizer.evaluate_all_reference(topic, options);
    const auto got = optimizer.evaluate_all(topic, options);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i) + " " +
                   ref[i].config.to_string());
      EXPECT_EQ(got[i].config, ref[i].config);
      EXPECT_EQ(got[i].percentile, ref[i].percentile);
      EXPECT_EQ(got[i].cost, ref[i].cost);
      EXPECT_EQ(got[i].feasible, ref[i].feasible);
    }
  }
}

// A reused engine must not leak state between topics: interleave wildly
// different topics through ONE engine instance (the optimize_topics worker
// pattern) and compare against fresh reference runs.
TEST(EngineDiffTest, ReusedEngineCarriesNoStateBetweenTopics) {
  Rng rng(777);
  const RandomWorld world = make_world(rng, 5, 10);
  const Optimizer optimizer(world.catalog, world.backbone, world.clients);
  EvaluationEngine engine(optimizer);
  for (int trial = 0; trial < 60; ++trial) {
    const TopicState topic = make_topic(rng, world);
    const OptimizerOptions options = make_options(rng, 5);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const OptimizerResult ref = optimizer.optimize_reference(topic, options);
    const OptimizerResult got = engine.optimize(topic, options);

    EXPECT_EQ(got.config, ref.config);
    EXPECT_EQ(got.percentile, ref.percentile);
    EXPECT_EQ(got.cost, ref.cost);
    EXPECT_EQ(got.constraint_met, ref.constraint_met);
  }
}

// Cohort-shaped topics: every subscriber copies one of a few archetype rows,
// the way a cohort plane's clients share a latency row. Some copies differ
// from their archetype only outside the candidate set (they fold over a
// pruned set), a few differ inside it (they must not fold), and weights
// include 0.
struct CohortCase {
  RandomWorld world;
  TopicState topic;
  OptimizerOptions options;
  std::size_t distinct_rows = 0;  ///< distinct full rows among subscribers
};

CohortCase make_cohort_case(Rng& rng, bool one_filtered, ModePolicy policy) {
  CohortCase out;
  const auto n_regions = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto n_archetypes = static_cast<std::size_t>(rng.uniform_int(1, 4));
  out.world = make_world(rng, n_regions, n_archetypes);
  out.topic = make_topic(rng, out.world);

  out.options.mode_policy = policy;
  geo::RegionSet candidates = geo::RegionSet::universe(n_regions);
  if (rng.uniform_int(0, 1) == 0) {
    candidates = {};
    for (std::size_t j = 0; j < n_regions; ++j) {
      if (rng.uniform_int(0, 1) == 0) {
        candidates.add(RegionId{static_cast<std::int32_t>(j)});
      }
    }
    if (candidates.empty()) candidates.add(RegionId{0});
    out.options.candidates = candidates;
  }

  std::set<std::vector<Millis>> rows;
  out.topic.subscribers.clear();
  const std::int64_t n_subs = rng.uniform_int(8, 60);
  for (std::int64_t s = 0; s < n_subs; ++s) {
    const ClientId archetype = out.world.client_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_archetypes) - 1))];
    const auto base = out.world.clients.row(archetype);
    std::vector<Millis> row(base.begin(), base.end());
    const auto column = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_regions) - 1));
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1:
      case 2:  // equal only over the candidates when the column is pruned
        if (!candidates.contains(RegionId{column})) row[column] += 5.0;
        break;
      case 3:  // a genuinely different row
        row[column] += 5.0;
        break;
      default:
        break;
    }
    rows.insert(row);
    SubscriberStats sub;
    sub.client = out.world.clients.add_client(row);
    sub.weight = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    out.topic.subscribers.push_back(sub);
  }
  if (out.topic.total_subscriber_weight() == 0) {
    out.topic.subscribers[0].weight = 2;
  }
  if (one_filtered) {
    out.topic.subscribers[static_cast<std::size_t>(
                              rng.uniform_int(0, n_subs - 1))]
        .selectivity = rng.uniform(0.1, 0.9);
  }
  out.distinct_rows = rows.size();
  return out;
}

// The engine folds subscribers with bitwise-equal rows over the candidates
// into weighted classes; the result must stay bit-identical to the
// per-subscriber reference for optimize and evaluate_all, under every mode
// policy, and folding must really happen (also over pruned-only equality)
// unless a subscriber is filtered.
TEST(EngineDiffTest, LatencyClassesMatchReference) {
  Rng rng(20261019);
  std::size_t unfiltered_subs = 0;
  std::size_t unfiltered_classes = 0;
  std::size_t folded_past_full_rows = 0;
  for (int trial = 0; trial < 60; ++trial) {
    for (const bool one_filtered : {false, true}) {
      for (const ModePolicy policy :
           {ModePolicy::kDirectOnly, ModePolicy::kRoutedOnly,
            ModePolicy::kBoth}) {
        const CohortCase c = make_cohort_case(rng, one_filtered, policy);
        const Optimizer optimizer(c.world.catalog, c.world.backbone,
                                  c.world.clients);
        EvaluationEngine engine(optimizer);
        SCOPED_TRACE("trial " + std::to_string(trial) + " filtered " +
                     std::to_string(one_filtered) + " policy " +
                     std::to_string(static_cast<int>(policy)));

        const OptimizerResult ref =
            optimizer.optimize_reference(c.topic, c.options);
        const OptimizerResult got = engine.optimize(c.topic, c.options);
        EXPECT_EQ(got.config, ref.config);
        EXPECT_EQ(got.percentile, ref.percentile);
        EXPECT_EQ(got.cost, ref.cost);
        EXPECT_EQ(got.constraint_met, ref.constraint_met);
        EXPECT_EQ(got.configs_evaluated, ref.configs_evaluated);

        const std::size_t subs = c.topic.subscribers.size();
        if (one_filtered) {
          EXPECT_EQ(engine.class_count(), subs);
        } else {
          EXPECT_LE(engine.class_count(), c.distinct_rows);
          unfiltered_subs += subs;
          unfiltered_classes += engine.class_count();
          if (engine.class_count() < c.distinct_rows) ++folded_past_full_rows;
        }

        const auto ref_rows =
            optimizer.evaluate_all_reference(c.topic, c.options);
        const auto got_rows = engine.evaluate_all(c.topic, c.options);
        ASSERT_EQ(got_rows.size(), ref_rows.size());
        for (std::size_t i = 0; i < ref_rows.size(); ++i) {
          SCOPED_TRACE("row " + ref_rows[i].config.to_string());
          EXPECT_EQ(got_rows[i].config, ref_rows[i].config);
          EXPECT_EQ(got_rows[i].percentile, ref_rows[i].percentile);
          EXPECT_EQ(got_rows[i].cost, ref_rows[i].cost);
          EXPECT_EQ(got_rows[i].feasible, ref_rows[i].feasible);
        }
      }
    }
  }
  EXPECT_LT(unfiltered_classes * 2, unfiltered_subs);
  EXPECT_GT(folded_past_full_rows, 0u);
}

}  // namespace
}  // namespace multipub::core
