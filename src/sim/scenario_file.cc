#include "sim/scenario_file.h"

#include <charconv>
#include <sstream>
#include <vector>

#include "geo/king_synth.h"

namespace multipub::sim {
namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) out.push_back(token);
  return out;
}

bool parse_double(const std::string& token, double* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

bool parse_size(const std::string& token, std::size_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

std::string at_line(int line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario_spec(std::string_view content,
                                                std::string* error) {
  ScenarioSpec spec;
  std::istringstream stream{std::string(content)};
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];

    auto want = [&](std::size_t n) {
      if (tokens.size() == n + 1) return true;
      if (error) {
        *error = at_line(line_no, "'" + key + "' expects " +
                                      std::to_string(n) + " argument(s)");
      }
      return false;
    };

    if (key == "placement") {
      if (!want(3)) return std::nullopt;
      ScenarioSpec::Placement place;
      place.region = tokens[1];
      if (!parse_size(tokens[2], &place.publishers) ||
          !parse_size(tokens[3], &place.subscribers)) {
        if (error) *error = at_line(line_no, "bad placement counts");
        return std::nullopt;
      }
      spec.placements.push_back(std::move(place));
    } else if (key == "rate") {
      if (!want(1) || !parse_double(tokens[1], &spec.workload.publish_rate_hz)) {
        if (error && error->empty()) *error = at_line(line_no, "bad rate");
        return std::nullopt;
      }
    } else if (key == "size") {
      std::size_t bytes = 0;
      if (!want(1) || !parse_size(tokens[1], &bytes)) {
        if (error && error->empty()) *error = at_line(line_no, "bad size");
        return std::nullopt;
      }
      spec.workload.message_bytes = bytes;
    } else if (key == "interval") {
      if (!want(1) ||
          !parse_double(tokens[1], &spec.workload.interval_seconds)) {
        if (error && error->empty()) *error = at_line(line_no, "bad interval");
        return std::nullopt;
      }
    } else if (key == "ratio") {
      if (!want(1) || !parse_double(tokens[1], &spec.workload.ratio)) {
        if (error && error->empty()) *error = at_line(line_no, "bad ratio");
        return std::nullopt;
      }
    } else if (key == "max_t") {
      if (!want(1)) return std::nullopt;
      if (tokens[1] == "inf") {
        spec.workload.max_t = kUnreachable;
      } else if (!parse_double(tokens[1], &spec.workload.max_t)) {
        if (error) *error = at_line(line_no, "bad max_t");
        return std::nullopt;
      }
    } else if (key == "fault") {
      std::string detail;
      auto event = parse_fault_tokens(
          std::vector<std::string>(tokens.begin() + 1, tokens.end()), &detail);
      if (!event) {
        if (error) *error = at_line(line_no, detail);
        return std::nullopt;
      }
      spec.faults.push_back(std::move(*event));
    } else if (key == "seed") {
      std::size_t seed = 0;
      if (!want(1) || !parse_size(tokens[1], &seed)) {
        if (error && error->empty()) *error = at_line(line_no, "bad seed");
        return std::nullopt;
      }
      spec.seed = seed;
    } else {
      if (error) *error = at_line(line_no, "unknown key '" + key + "'");
      return std::nullopt;
    }
  }

  if (spec.placements.empty()) {
    if (error) *error = "no placement lines";
    return std::nullopt;
  }
  if (spec.workload.ratio <= 0.0 || spec.workload.ratio > 100.0) {
    if (error) *error = "ratio must be in (0, 100]";
    return std::nullopt;
  }
  return spec;
}

std::optional<Scenario> build_scenario(const ScenarioSpec& spec,
                                       const geo::RegionCatalog& catalog,
                                       const geo::InterRegionLatency& backbone,
                                       std::string* error) {
  std::vector<PlacementSpec> placements;
  for (const auto& place : spec.placements) {
    const RegionId region = catalog.find(place.region);
    if (!region.valid()) {
      if (error) *error = "unknown region '" + place.region + "'";
      return std::nullopt;
    }
    placements.push_back({region, place.publishers, place.subscribers});
  }
  Rng rng(spec.seed);
  Scenario scenario =
      make_scenario(catalog, backbone, placements, spec.workload, rng);
  if (scenario.topic.publishers.empty() || scenario.topic.subscribers.empty()) {
    if (error) *error = "scenario needs at least one publisher and one subscriber";
    return std::nullopt;
  }

  // Fault endpoints stay name-based in the schedule, but reject names the
  // catalog can't resolve now so the error carries the scenario's context.
  for (const auto& event : spec.faults) {
    for (const auto* endpoint : {&event.from, &event.to}) {
      if (endpoint->kind == FaultEndpointSpec::Kind::kRegion &&
          !catalog.find(endpoint->region).valid()) {
        if (error) {
          *error = "fault references unknown region '" + endpoint->region + "'";
        }
        return std::nullopt;
      }
    }
  }
  scenario.faults = spec.faults;
  return scenario;
}

}  // namespace multipub::sim
