// Shared machine-readable output for the bench_* report generators.
//
// Every bench emits, next to its human-readable table, one JSON document of
// the same fixed shape so scripts and CI trend-tracking can consume any
// bench without per-binary parsers:
//
//   {"bench": "<name>", "rows": [{...}, {...}, ...]}
//
// Rows are flat objects of strings, numbers and booleans; heterogeneous
// rows (e.g. two sub-studies in one bench) disambiguate themselves with a
// discriminator field. The writer is deliberately tiny — ordered fields,
// no nesting — because the benches only ever produce tables.
//
// (The three google-benchmark binaries keep the library's native
// --benchmark_format=json instead; this header is for the report benches.)
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace multipub::bench {

/// Peak resident set size of this process in bytes (ru_maxrss). The
/// high-water mark is process-wide and monotone, so a row records the peak
/// up to its creation — a sweep's rows show where memory actually grew.
inline unsigned long long peak_rss_bytes() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<unsigned long long>(usage.ru_maxrss) * 1024;
}

/// A result measured in a forked child, with that child's own peak RSS.
template <class Result>
struct ChildRun {
  Result result;
  unsigned long long peak_rss_bytes = 0;
};

/// Runs `work()` in a forked child, reads its (trivially copyable) result
/// back over a pipe, and reports the child's own peak RSS (ru_maxrss from
/// wait4): the footprint of that work alone, not the process-wide
/// high-water mark of everything run before it. Call from a
/// single-threaded parent. nullopt when the child failed.
template <class Work>
auto run_in_child(Work&& work) -> std::optional<ChildRun<decltype(work())>> {
  using Result = decltype(work());
  // One write of at most PIPE_BUF bytes is atomic: the parent reads it whole.
  static_assert(std::is_trivially_copyable_v<Result> &&
                sizeof(Result) <= PIPE_BUF);
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);  // the child must not re-emit buffered output
  const pid_t pid = ::fork();
  if (pid == 0) {
    const Result result = work();
    ::_exit(::write(fds[1], &result, sizeof result) == ssize_t{sizeof result}
                ? 0
                : 1);
  }
  ::close(fds[1]);
  ChildRun<Result> run{};
  const ssize_t received = ::read(fds[0], &run.result, sizeof run.result);
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid || status != 0 ||
      received != ssize_t{sizeof run.result}) {
    return std::nullopt;
  }
  run.peak_rss_bytes = static_cast<unsigned long long>(usage.ru_maxrss) * 1024;
  return run;
}

/// One output row; fields render in insertion order.
class JsonRow {
 public:
  JsonRow& num(const std::string& key, double value) {
    char buf[64];
    // %.17g round-trips every finite double; non-finite values have no JSON
    // literal, so they degrade to null rather than corrupt the document.
    if (value != value || value > 1.7e308 || value < -1.7e308) {
      return raw(key, "null");
    }
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }

  JsonRow& integer(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }

  JsonRow& uinteger(const std::string& key, unsigned long long value) {
    return raw(key, std::to_string(value));
  }

  JsonRow& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  JsonRow& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }

 private:
  friend class BenchReport;

  JsonRow& raw(const std::string& key, std::string literal) {
    fields_.emplace_back(key, std::move(literal));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects rows and writes `{"bench": name, "rows": [...]}`.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Every row leads with peak_rss_bytes and the host's
  /// hardware_concurrency, so all benches publish their memory footprint
  /// and the machine they ran on without per-binary plumbing. row() records
  /// this process's peak at row creation; row(bytes) a peak measured
  /// elsewhere, such as a run_in_child() child's.
  JsonRow& row() { return row(peak_rss_bytes()); }

  JsonRow& row(unsigned long long peak_rss) {
    rows_.emplace_back();
    rows_.back()
        .uinteger("peak_rss_bytes", peak_rss)
        .uinteger("hardware_concurrency", std::thread::hardware_concurrency());
    return rows_.back();
  }

  /// Writes to BENCH_<name>.json in the working directory (the benches run
  /// from the repo root, so curated results land next to the sources).
  bool write() const { return write_to("BENCH_" + name_ + ".json"); }

  bool write_to(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out, "    {");
      const auto& fields = rows_[i].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        std::fprintf(out, "\"%s\": %s%s", fields[f].first.c_str(),
                     fields[f].second.c_str(),
                     f + 1 < fields.size() ? ", " : "");
      }
      std::fprintf(out, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  std::string name_;
  std::vector<JsonRow> rows_;
};

}  // namespace multipub::bench
