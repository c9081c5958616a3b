#include "common/seq_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"

namespace multipub {
namespace {

constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();

/// The maximal runs of an ordered set: the canonical form SeqSet must hold.
std::vector<SeqSet::Run> runs_of(const std::set<std::uint64_t>& seqs) {
  std::vector<SeqSet::Run> runs;
  for (const std::uint64_t s : seqs) {
    if (!runs.empty() && runs.back().last != kMaxSeq &&
        runs.back().last + 1 == s) {
      runs.back().last = s;
    } else {
      runs.push_back({s, s});
    }
  }
  return runs;
}

std::vector<SeqSet::Run> runs_of(const SeqSet& set) {
  return {set.runs().begin(), set.runs().end()};
}

/// The cumulative-ack cursor as first written, over an ordered set of
/// parked receipts: the reference the run-backed SeqTracker must match.
class SetBackedTracker {
 public:
  void record(std::uint64_t s) {
    if (s < next_) return;
    if (s == next_) {
      ++next_;
      while (!pending_.empty() && *pending_.begin() == next_) {
        pending_.erase(pending_.begin());
        ++next_;
      }
    } else {
      pending_.insert(s);
    }
    if (s > high_) high_ = s;
  }
  [[nodiscard]] bool opens_gap(std::uint64_t s) const {
    return s > high_ + 1 && s > next_;
  }
  [[nodiscard]] std::uint64_t next() const { return next_; }
  [[nodiscard]] std::uint64_t high() const { return high_; }
  [[nodiscard]] bool contiguous() const { return next_ == high_ + 1; }
  void reset() {
    next_ = 1;
    high_ = 0;
    pending_.clear();
  }
  friend bool operator==(const SetBackedTracker& a,
                         const SetBackedTracker& b) {
    return a.next_ == b.next_ && a.high_ == b.high_ &&
           a.pending_ == b.pending_;
  }

 private:
  std::uint64_t next_ = 1;
  std::uint64_t high_ = 0;
  std::set<std::uint64_t> pending_;
};

TEST(SeqSet, HoldsZeroAndTheLargestSeqAsOrdinaryMembers) {
  SeqSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.insert(kMaxSeq));
  EXPECT_TRUE(set.insert(kMaxSeq - 1));
  EXPECT_FALSE(set.insert(kMaxSeq));
  EXPECT_TRUE(set.contains(kMaxSeq));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(runs_of(set), (std::vector<SeqSet::Run>{{0, 0},
                                                    {kMaxSeq - 1, kMaxSeq}}));
}

TEST(SeqSet, MergesAdjacentRunsAndKeepsHolesApart) {
  SeqSet set;
  for (const std::uint64_t s : {10u, 11u, 12u}) EXPECT_TRUE(set.insert(s));
  EXPECT_EQ(set.run_count(), 1u);  // a stream joined mid-way: one run
  EXPECT_TRUE(set.insert(14));      // a hole at 13
  EXPECT_TRUE(set.insert(5));       // below the first run
  EXPECT_TRUE(set.insert(1000000));  // far above the last
  EXPECT_EQ(runs_of(set), (std::vector<SeqSet::Run>{
                              {5, 5}, {10, 12}, {14, 14}, {1000000, 1000000}}));
  EXPECT_TRUE(set.insert(13));  // fills the hole: two runs become one
  EXPECT_TRUE(set.insert(9));   // extends a run downwards
  EXPECT_TRUE(set.insert(6));   // extends a run upwards
  EXPECT_EQ(runs_of(set), (std::vector<SeqSet::Run>{
                              {5, 6}, {9, 14}, {1000000, 1000000}}));
  EXPECT_FALSE(set.insert(12));  // a replayed duplicate changes nothing
  EXPECT_EQ(set.size(), 9u);
  set.clear();
  EXPECT_EQ(set, SeqSet{});
}

TEST(SeqSet, MatchesAnOrderedSetOracleAtRandom) {
  Rng rng(20261019);
  for (int trial = 0; trial < 200; ++trial) {
    // Dense trials exercise merges; sparse ones jump far above and below.
    const bool dense = trial % 2 == 0;
    const std::int64_t span = dense ? 48 : 1 << 20;
    const std::uint64_t base =
        trial % 5 == 0 ? 0
                       : static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    SeqSet set;
    std::set<std::uint64_t> oracle;
    for (int step = 0; step < 120; ++step) {
      std::uint64_t s = base + static_cast<std::uint64_t>(
                                   rng.uniform_int(0, span));
      if (step % 40 == 39) s = kMaxSeq - static_cast<std::uint64_t>(step % 3);
      ASSERT_EQ(set.insert(s), oracle.insert(s).second) << s;
      ASSERT_EQ(set.size(), oracle.size());
      const std::uint64_t probe =
          base + static_cast<std::uint64_t>(rng.uniform_int(0, span + 2));
      for (const std::uint64_t p : {probe, s - 1, s + 1}) {
        ASSERT_EQ(set.contains(p), oracle.count(p) != 0) << p;
      }
    }
    ASSERT_EQ(runs_of(set), runs_of(oracle));
  }
}

TEST(SeqTracker, MatchesTheSetBackedReferenceAtRandom) {
  Rng rng(20261020);
  for (int trial = 0; trial < 100; ++trial) {
    SeqTracker a;
    SeqTracker b;
    SetBackedTracker ref_a;
    SetBackedTracker ref_b;
    for (int step = 0; step < 200; ++step) {
      // Mostly near the frontier (in-order, small gaps, replays of holes),
      // sometimes 0 (unstamped) or a reset (a re-attach).
      const std::int64_t op = rng.uniform_int(0, 99);
      SeqTracker& t = op % 2 == 0 ? a : b;
      SetBackedTracker& ref = op % 2 == 0 ? ref_a : ref_b;
      if (op < 2) {
        t.reset();
        ref.reset();
        continue;
      }
      const std::uint64_t s =
          op < 5 ? 0
                 : static_cast<std::uint64_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(ref.high()) + 4));
      ASSERT_EQ(t.opens_gap(s), ref.opens_gap(s)) << s;
      if (step % 2 == 1) {
        t.record(s);
        ref.record(s);
      } else {
        // arrive() is the opens_gap / record / next sequence in one call,
        // silent for a replayed copy.
        const bool replayed = step % 4 == 0;
        const bool fresh_gap = !replayed && ref.opens_gap(s);
        const std::optional<std::uint64_t> from = t.arrive(s, replayed);
        ref.record(s);
        ASSERT_EQ(from, fresh_gap ? std::optional(ref.next()) : std::nullopt)
            << s;
      }
      ASSERT_EQ(t.next(), ref.next());
      ASSERT_EQ(t.high(), ref.high());
      ASSERT_EQ(t.contiguous(), ref.contiguous());
      ASSERT_EQ(a == b, ref_a == ref_b);
    }
  }
}

TEST(SeqTracker, StartsAtOriginAndAdvancesContiguously) {
  SeqTracker t;
  EXPECT_EQ(t.next(), 1u);
  EXPECT_EQ(t.high(), 0u);
  EXPECT_TRUE(t.contiguous());

  t.record(1);
  t.record(2);
  EXPECT_EQ(t.next(), 3u);
  EXPECT_EQ(t.high(), 2u);
  EXPECT_TRUE(t.contiguous());
}

TEST(SeqTracker, OutOfOrderReceiptsParkUntilTheGapFills) {
  SeqTracker t;
  t.record(1);
  t.record(4);  // 2 and 3 missing
  EXPECT_EQ(t.next(), 2u);
  EXPECT_EQ(t.high(), 4u);
  EXPECT_FALSE(t.contiguous());

  t.record(3);
  EXPECT_EQ(t.next(), 2u);  // still blocked on 2

  t.record(2);  // drains the parked 3 and 4 in one step
  EXPECT_EQ(t.next(), 5u);
  EXPECT_TRUE(t.contiguous());
}

TEST(SeqTracker, OpensGapFiresOncePerNewGap) {
  SeqTracker t;
  t.record(1);
  // 3 skips 2: a NEW gap.
  EXPECT_TRUE(t.opens_gap(3));
  t.record(3);
  // 4 extends the known frontier contiguously — the gap at 2 is old news,
  // the periodic sync pass re-requests it, not the arrival path.
  EXPECT_FALSE(t.opens_gap(4));
  t.record(4);
  // 7 skips 5 and 6: another new gap.
  EXPECT_TRUE(t.opens_gap(7));
  // A duplicate or late copy below the cursor never opens anything.
  EXPECT_FALSE(t.opens_gap(1));
}

TEST(SeqTracker, StaleAndDuplicateRecordsAreIgnored) {
  SeqTracker t;
  for (std::uint64_t s = 1; s <= 5; ++s) t.record(s);
  t.record(3);  // replayed duplicate
  t.record(5);
  EXPECT_EQ(t.next(), 6u);
  EXPECT_EQ(t.high(), 5u);
  EXPECT_TRUE(t.contiguous());
}

TEST(SeqTracker, NextNamesTheOldestMissingEntry) {
  // The cumulative-ack property the replay protocol leans on: however the
  // receipts interleave, next() is always the oldest entry never recorded,
  // so a re-request from next() can heal any lost replay batch.
  SeqTracker t;
  t.record(2);
  t.record(5);
  t.record(6);
  EXPECT_EQ(t.next(), 1u);
  t.record(1);
  EXPECT_EQ(t.next(), 3u);
  t.record(4);
  EXPECT_EQ(t.next(), 3u);
  t.record(3);
  EXPECT_EQ(t.next(), 7u);
}

TEST(SeqTracker, ResetRestartsAtOrigin) {
  SeqTracker t;
  t.record(1);
  t.record(9);
  t.reset();
  EXPECT_EQ(t.next(), 1u);
  EXPECT_EQ(t.high(), 0u);
  EXPECT_TRUE(t.contiguous());
  EXPECT_EQ(t, SeqTracker{});
}

TEST(SeqTracker, EqualityComparesTheWholeCursorState) {
  SeqTracker a;
  SeqTracker b;
  a.record(1);
  b.record(1);
  EXPECT_EQ(a, b);
  b.record(3);  // b parked an out-of-order receipt
  EXPECT_FALSE(a == b);
  a.record(3);
  EXPECT_EQ(a, b);
}

TEST(SeqTracker, RandomizedPermutationsConvergeRegardlessOfOrder) {
  Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t n =
        static_cast<std::uint64_t>(rng.uniform_int(1, 40));
    std::vector<std::uint64_t> order;
    for (std::uint64_t s = 1; s <= n; ++s) order.push_back(s);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }

    SeqTracker t;
    std::set<std::uint64_t> reference;
    for (const std::uint64_t s : order) {
      t.record(s);
      reference.insert(s);
      // Invariant: next() - 1 is the longest contiguous prefix received.
      std::uint64_t prefix = 0;
      while (reference.count(prefix + 1) != 0) ++prefix;
      EXPECT_EQ(t.next(), prefix + 1);
      EXPECT_EQ(t.high(), *reference.rbegin());
    }
    EXPECT_EQ(t.next(), n + 1);
    EXPECT_TRUE(t.contiguous());
  }
}

}  // namespace
}  // namespace multipub
