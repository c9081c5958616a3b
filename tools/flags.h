// Minimal command-line flag parsing (and file input) for the tools.
//
// Supports --name=value and --name value forms plus boolean --name. No
// external dependency; errors collect into a list the tool prints with its
// usage text. Tools declare their complete vocabulary with allow_only() so
// an unrecognized flag is an error rather than silently ignored — a typo
// like --shard=4 must not run the single-threaded default as if nothing
// happened.
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace multipub::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        errors_.push_back("unexpected positional argument: " +
                          std::string(arg));
        continue;
      }
      arg.remove_prefix(2);
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        values_[std::string(arg.substr(0, eq))] =
            std::string(arg.substr(eq + 1));
        continue;
      }
      // --name value (when the next token is not a flag) or boolean --name.
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        values_[std::string(arg)] = argv[++i];
      } else {
        values_[std::string(arg)] = "true";
      }
    }
  }

  /// Declares the tool's complete flag vocabulary: every parsed flag
  /// outside `known` becomes an error (in flag-name order, so the output is
  /// deterministic). Call once, right after construction and before the
  /// errors() check.
  void allow_only(std::initializer_list<std::string_view> known) {
    for (const auto& [name, value] : values_) {
      bool found = false;
      for (const std::string_view k : known) found = found || k == name;
      if (!found) {
        errors_.push_back("unknown flag --" + name + " (see --help)");
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) > 0;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      errors_.push_back("flag --" + name + " expects a number, got '" +
                        it->second + "'");
      return fallback;
    }
    return v;
  }

  [[nodiscard]] long get_int(const std::string& name, long fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      errors_.push_back("flag --" + name + " expects an integer, got '" +
                        it->second + "'");
      return fallback;
    }
    return v;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  /// Strict on|off flag: "on" is true, "off" false, absent the fallback.
  /// Anything else (including a bare --name) records
  /// "--name must be 'on' or 'off'" and yields the fallback.
  [[nodiscard]] bool get_on_off(const std::string& name, bool fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (it->second == "on") return true;
    if (it->second == "off") return false;
    error("--" + name + " must be 'on' or 'off'");
    return fallback;
  }

  /// on|off|both flag: true, false, or nullopt for "both" (also when
  /// absent). Anything else records "--name must be 'on', 'off' or 'both'".
  [[nodiscard]] std::optional<bool> get_on_off_both(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end() || it->second == "both") return std::nullopt;
    if (it->second == "on") return true;
    if (it->second == "off") return false;
    error("--" + name + " must be 'on', 'off' or 'both'");
    return std::nullopt;
  }

  /// "a:b:c" triple of doubles (sweep ranges).
  [[nodiscard]] std::optional<std::array<double, 3>> get_range(
      const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    std::array<double, 3> out{};
    std::size_t pos = 0;
    const std::string& s = it->second;
    for (int k = 0; k < 3; ++k) {
      const std::size_t next = k < 2 ? s.find(':', pos) : s.size();
      if (next == std::string::npos) {
        errors_.push_back("flag --" + name + " expects from:to:step");
        return std::nullopt;
      }
      out[static_cast<std::size_t>(k)] =
          std::strtod(s.substr(pos, next - pos).c_str(), nullptr);
      pos = next + 1;
    }
    return out;
  }

  /// Records a validation error the tool found itself.
  void error(std::string message) { errors_.push_back(std::move(message)); }

  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// Prints every recorded error to stderr as "error: ..." and returns
  /// whether there was any.
  [[nodiscard]] bool print_errors() const {
    for (const auto& message : errors_) {
      std::fprintf(stderr, "error: %s\n", message.c_str());
    }
    return !errors_.empty();
  }

 private:
  // Ordered so allow_only() reports unknown flags deterministically.
  std::map<std::string, std::string> values_;
  std::vector<std::string> errors_;
};

/// The whole content of the `what` file at `path` (e.g. what = "scenario").
/// When it cannot be opened, prints "cannot open <what> file '<path>'" to
/// stderr and returns nullopt.
[[nodiscard]] inline std::optional<std::string> read_file(
    const std::string& path, const char* what) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s file '%s'\n", what, path.c_str());
    return std::nullopt;
  }
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

}  // namespace multipub::tools
