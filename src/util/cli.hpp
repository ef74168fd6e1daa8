/// \file cli.hpp
/// Shared argv parsing for the bench drivers and the serving tools
/// (dominod / domino_cli).  table1/table2 used to carry duplicated strtol
/// blocks with no ERANGE handling; every driver flag goes through these
/// helpers instead.

#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace dominosyn::cli {

/// Parses a whole decimal integer in [min_value, max_value].  Rejects null /
/// empty strings, trailing junk, and out-of-range values (both the strtol
/// ERANGE overflow and the caller's bounds).
inline std::optional<long> parse_long(const char* text, long min_value,
                                      long max_value =
                                          std::numeric_limits<long>::max()) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (value < min_value || value > max_value) return std::nullopt;
  return value;
}

/// Parses a finite decimal floating-point value in [min_value, max_value].
inline std::optional<double> parse_double(
    const char* text, double min_value = std::numeric_limits<double>::lowest(),
    double max_value = std::numeric_limits<double>::max()) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (!(value >= min_value && value <= max_value)) return std::nullopt;
  return value;
}

/// argv[index] as parse_long, with a fallback when the argument is absent.
/// std::nullopt means the argument was present but invalid.
inline std::optional<long> parse_long_arg(int argc, char** argv, int index,
                                          long fallback, long min_value,
                                          long max_value =
                                              std::numeric_limits<long>::max()) {
  if (argc <= index) return fallback;
  return parse_long(argv[index], min_value, max_value);
}

/// Parses argv[index] as a worker-thread count (>= 0; 0 = one per hardware
/// thread), printing a uniform usage error on bad input.  The cap matches
/// ThreadPool::resolve_threads' nonsense bound.
inline std::optional<unsigned> parse_threads(int argc, char** argv, int index,
                                             const char* program,
                                             long fallback = 1) {
  const auto value = parse_long_arg(argc, argv, index, fallback, 0, 1024);
  if (!value) {
    std::cerr << program
              << ": num_threads must be an integer in [0, 1024] "
                 "(0 = one per hardware thread)\n";
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

/// `--name value` flag parsing for the serving tools.  Collects every
/// `--flag value` pair (and bare `--flag` as an empty-valued switch when it
/// is the last token or followed by another flag); rejects positional junk.
class FlagSet {
 public:
  /// Returns std::nullopt (with a message on stderr) on malformed argv.
  static std::optional<FlagSet> parse(int argc, char** argv) {
    FlagSet flags;
    flags.program_ = argc > 0 ? argv[0] : "?";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
        std::cerr << flags.program_ << ": unexpected argument '" << arg
                  << "' (flags are --name value)\n";
        return std::nullopt;
      }
      const std::string name = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values_[name] = argv[++i];
      } else {
        flags.values_[name] = "";  // bare switch
      }
      flags.order_.push_back(name);
    }
    return flags;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  [[nodiscard]] std::string get(const std::string& name,
                                std::string fallback = "") const {
    const auto found = values_.find(name);
    return found == values_.end() ? std::move(fallback) : found->second;
  }

  /// The flag as a bounded integer; `fallback` when absent, std::nullopt
  /// (with a message on stderr) when present but invalid.
  [[nodiscard]] std::optional<long> get_long(const std::string& name,
                                             long fallback, long min_value,
                                             long max_value) const {
    const auto found = values_.find(name);
    if (found == values_.end()) return fallback;
    const auto value = parse_long(found->second.c_str(), min_value, max_value);
    if (!value)
      std::cerr << program_ << ": --" << name << " must be an integer in ["
                << min_value << ", " << max_value << "]\n";
    return value;
  }

  /// True when every provided flag name is in `known`; otherwise prints the
  /// offenders (catches typos like --worker for --workers).
  [[nodiscard]] bool only(std::initializer_list<const char*> known) const {
    bool ok = true;
    for (const std::string& name : order_) {
      bool found = false;
      for (const char* candidate : known)
        if (name == candidate) { found = true; break; }
      if (!found) {
        std::cerr << program_ << ": unknown flag --" << name << "\n";
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace dominosyn::cli
