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

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace multipub::bench {

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), 0 where the proc filesystem is unavailable. The
/// high-water mark is process-wide and monotone, so a row records the peak
/// up to its creation — a sweep's rows show where memory actually grew.
inline unsigned long long peak_rss_bytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) break;
  }
  std::fclose(status);
  return kb * 1024ULL;
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

  /// Every row leads with peak_rss_bytes, captured at row creation, and the
  /// host's hardware_concurrency, so all benches publish their memory
  /// footprint and the machine they ran on without per-binary plumbing.
  JsonRow& row() {
    rows_.emplace_back();
    rows_.back()
        .uinteger("peak_rss_bytes", peak_rss_bytes())
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
