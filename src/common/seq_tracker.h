// Sequence-number books: which seqs a receiver holds, and where a dense
// stream's cumulative ack stands.
//
// SeqSet is the one "seen" representation in the codebase (DESIGN.md §12,
// §15). Make-before-break handover and reliable replay re-deliver
// publications, so every receiver — a Subscriber, a cohort, a reliable
// broker — must recognise a seq it already holds, for as long as a replay
// could bring it back. A set of individual seqs grows with every delivery;
// SeqSet stores the maximal runs of consecutive seqs instead, so a stream
// that is received without holes costs one run however long it runs and
// wherever it starts. Memory grows only with holes: losses not yet repaired,
// or publications a content filter withholds.
//
// SeqTracker is the cumulative-ack cursor of the reliability layer
// (DESIGN.md §15) over a dense 1-based stream. Receivers must be able to say
// "replay everything from X" such that repeated requests eventually heal ANY
// loss pattern — including the loss of a replay batch itself. A high-water
// cursor cannot: once it advances past a gap, the missing entries are never
// asked for again. The tracker's `next` advances only contiguously
// (TCP-style cumulative ack) over a SeqSet of the receipts, so `next` always
// names the oldest entry still missing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace multipub {

class SeqSet {
 public:
  /// Consecutive seqs [first, last], both inclusive (so every uint64 value,
  /// the largest included, is an ordinary member).
  struct Run {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Adds `s`; true when it was not yet a member.
  bool insert(std::uint64_t s) {
    // In-order streams extend (or start) the last run.
    if (runs_.empty() || s > runs_.back().last) {
      if (!runs_.empty() && s == runs_.back().last + 1) {
        ++runs_.back().last;
      } else {
        runs_.push_back({s, s});
      }
      ++size_;
      return true;
    }
    const auto it = runs_.begin() + static_cast<std::ptrdiff_t>(
                                         first_run_ending_at_or_after(s));
    if (it->first <= s) return false;
    // s sits in the hole just below *it.
    const bool joins_next = s + 1 == it->first;
    const bool joins_prev = it != runs_.begin() && (it - 1)->last + 1 == s;
    if (joins_prev && joins_next) {
      (it - 1)->last = it->last;
      runs_.erase(it);
    } else if (joins_prev) {
      ++(it - 1)->last;
    } else if (joins_next) {
      --it->first;
    } else {
      runs_.insert(it, {s, s});
    }
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t s) const {
    if (runs_.empty() || s > runs_.back().last) return false;
    return runs_[first_run_ending_at_or_after(s)].first <= s;
  }

  /// Distinct seqs held.
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return runs_.empty(); }
  /// Maximal runs, ascending and separated by at least one missing seq.
  [[nodiscard]] std::span<const Run> runs() const { return runs_; }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }

  void clear() {
    runs_.clear();
    size_ = 0;
  }

  friend bool operator==(const SeqSet& a, const SeqSet& b) {
    return a.runs_ == b.runs_;
  }

 private:
  /// Index of the first run whose last >= s (runs_.size() when none).
  [[nodiscard]] std::size_t first_run_ending_at_or_after(
      std::uint64_t s) const {
    return static_cast<std::size_t>(
        std::lower_bound(
            runs_.begin(), runs_.end(), s,
            [](const Run& run, std::uint64_t v) { return run.last < v; }) -
        runs_.begin());
  }

  std::vector<Run> runs_;
  std::uint64_t size_ = 0;
};

class SeqTracker {
 public:
  /// Records receipt of sequence `s`. Idempotent; `s == 0` (an unstamped
  /// message) is ignored.
  void record(std::uint64_t s) {
    if (s != 0) received_.insert(s);
  }

  /// True when `s` would open a NEW gap: it lands beyond everything seen so
  /// far AND beyond the contiguous point.
  [[nodiscard]] bool opens_gap(std::uint64_t s) const {
    return s > high() + 1 && s > next();
  }

  /// The reliability layer's one gap rule: records `s` and returns the
  /// `from` of a replay request exactly when a live arrival opens a new
  /// gap. A stalled gap (its replay batch was itself lost) is re-requested
  /// by the periodic sync pass from next(), which — being cumulative —
  /// still names the oldest missing entry; a replayed copy never asks (a
  /// truncated ring would loop forever).
  [[nodiscard]] std::optional<std::uint64_t> arrive(std::uint64_t s,
                                                    bool replayed) {
    const bool fresh_gap = !replayed && opens_gap(s);
    record(s);
    if (!fresh_gap) return std::nullopt;
    return next();
  }

  /// Oldest sequence not yet received — the `from` of a replay request.
  [[nodiscard]] std::uint64_t next() const {
    const auto runs = received_.runs();
    return runs.empty() || runs.front().first != 1 ? 1
                                                   : runs.front().last + 1;
  }
  /// Highest sequence received (0 = nothing yet).
  [[nodiscard]] std::uint64_t high() const {
    return received_.empty() ? 0 : received_.runs().back().last;
  }
  /// True when everything in [1, high] arrived.
  [[nodiscard]] bool contiguous() const { return next() == high() + 1; }

  /// Back to the stream origin (a (re)attach faces fresh ring numbering).
  void reset() { received_.clear(); }

  friend bool operator==(const SeqTracker& a, const SeqTracker& b) {
    return a.received_ == b.received_;
  }

 private:
  SeqSet received_;
};

}  // namespace multipub
