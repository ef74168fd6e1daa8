/// \file fault.cpp
/// Fault-site registry implementation (see fault.hpp for the spec grammar).

#ifndef DOMINOSYN_NO_FAULTS

#include "util/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "util/codec.hpp"
#include "util/rng.hpp"

namespace dominosyn::fault {

namespace {

/// 64-bit FNV-1a of the site name: the default per-site PRNG seed, so
/// `prob:` sites are deterministic without an explicit `seed:` item.
std::uint64_t hash_name(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Policy {
  enum class Trigger : std::uint8_t { kAlways, kNth, kEvery, kFirst, kProb };
  Trigger trigger = Trigger::kAlways;
  std::uint64_t n = 0;          ///< nth / every / first parameter
  double prob = 0.0;            ///< prob parameter
  std::uint32_t delay_ms = 0;   ///< extra sleep when fired
  Rng rng{0};
  std::uint64_t evaluated = 0;
  std::uint64_t injected = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Policy, std::less<>> sites;
  std::string spec;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

// Armed flag outside the mutex: the common (disarmed) case must not touch it.
std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_total_injected{0};

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

[[noreturn]] void bad_spec(std::string_view clause, const char* why) {
  throw std::invalid_argument("bad fault spec clause \"" + std::string(clause) +
                              "\": " + why);
}

/// A whole-token count no larger than `max` (no wrap past 2^64).
std::uint64_t parse_u64(std::string_view clause, std::string_view text,
                        std::uint64_t max = ~std::uint64_t{0}) {
  const auto value = codec::parse_u64(text);
  if (!value || *value > max)
    bad_spec(clause, "expected a non-negative integer that fits");
  return *value;
}

/// Parses one `site=item,item,...` clause into (site, policy).  A policy of
/// std::nullopt-like "off" is signalled by returning an empty site name.
void parse_clause(std::string_view clause,
                  std::map<std::string, Policy, std::less<>>& out) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos || eq == 0)
    bad_spec(clause, "expected site=policy");
  const std::string_view site = trim(clause.substr(0, eq));
  const std::string_view items = clause.substr(eq + 1);

  // A typo'd site name would arm nothing and fail silently — reject any
  // site outside the compiled-in catalogue (fault.hpp).
  bool known = false;
  for (const char* catalogued : kSiteCatalogue)
    if (site == catalogued) {
      known = true;
      break;
    }
  if (!known) bad_spec(clause, "unknown fault site (see fault::sites())");

  Policy policy;
  policy.rng.reseed(hash_name(site));
  bool off = false;
  bool trigger_set = false;
  for (std::string_view item : codec::split_tokens(items, ",")) {
    item = trim(item);
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    const std::string_view key = item.substr(0, colon);
    const std::string_view value =
        colon == std::string_view::npos ? std::string_view{}
                                        : item.substr(colon + 1);
    if (key == "always") {
      policy.trigger = Policy::Trigger::kAlways;
      trigger_set = true;
    } else if (key == "off") {
      off = true;
    } else if (key == "nth" || key == "every" || key == "first") {
      policy.n = parse_u64(clause, value);
      if (policy.n == 0) bad_spec(clause, "count must be >= 1");
      policy.trigger = key == "nth"     ? Policy::Trigger::kNth
                       : key == "every" ? Policy::Trigger::kEvery
                                        : Policy::Trigger::kFirst;
      trigger_set = true;
    } else if (key == "prob") {
      const auto prob = codec::parse_double(value);
      if (!prob || !(*prob >= 0.0 && *prob <= 1.0))
        bad_spec(clause, "prob wants a probability in [0,1]");
      policy.prob = *prob;
      policy.trigger = Policy::Trigger::kProb;
      trigger_set = true;
    } else if (key == "seed") {
      policy.rng.reseed(parse_u64(clause, value));
    } else if (key == "delay_ms") {
      policy.delay_ms = static_cast<std::uint32_t>(
          parse_u64(clause, value, std::numeric_limits<std::uint32_t>::max()));
      // delay_ms alone arms the site as always-fire (latency-only sites).
      trigger_set = true;
    } else {
      bad_spec(clause, "unknown item");
    }
  }
  if (!trigger_set && !off) bad_spec(clause, "empty policy");
  // Later clauses win: a repeated site replaces the earlier policy, and
  // `off` removes it (so a CLI spec can mask part of an env spec).
  if (off)
    out.erase(std::string(site));
  else
    out.insert_or_assign(std::string(site), policy);
}

std::map<std::string, Policy, std::less<>> parse_spec(
    const std::string& spec) {
  std::map<std::string, Policy, std::less<>> sites;
  for (const std::string_view clause : codec::split_tokens(spec, ";"))
    if (!trim(clause).empty()) parse_clause(trim(clause), sites);
  return sites;
}

// Process-start env pickup: exported DOMINOSYN_FAULT_SPEC arms every binary
// (tests under the CI chaos job, daemons, workers) without code changes.
// A malformed env spec must not abort static init — warn and stay disarmed.
const bool g_env_initialized = [] {
  try {
    configure_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dominosyn: ignoring DOMINOSYN_FAULT_SPEC: %s\n",
                 e.what());
  }
  return true;
}();

}  // namespace

bool point(const char* site) noexcept {
  if (!g_active.load(std::memory_order_relaxed)) return false;
  bool fire = false;
  std::uint32_t delay_ms = 0;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.sites.find(std::string_view(site));
    if (it == reg.sites.end()) return false;
    Policy& policy = it->second;
    const std::uint64_t k = ++policy.evaluated;
    switch (policy.trigger) {
      case Policy::Trigger::kAlways:
        fire = true;
        break;
      case Policy::Trigger::kNth:
        fire = k == policy.n;
        break;
      case Policy::Trigger::kEvery:
        fire = k % policy.n == 0;
        break;
      case Policy::Trigger::kFirst:
        fire = k <= policy.n;
        break;
      case Policy::Trigger::kProb:
        fire = policy.rng.bernoulli(policy.prob);
        break;
    }
    if (fire) {
      ++policy.injected;
      delay_ms = policy.delay_ms;
      g_total_injected.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (delay_ms != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  return fire;
}

void configure(const std::string& spec) {
  auto sites = parse_spec(spec);  // throws before any state changes
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.sites = std::move(sites);
  reg.spec = reg.sites.empty() ? std::string() : spec;
  g_total_injected.store(0, std::memory_order_relaxed);
  g_active.store(!reg.sites.empty(), std::memory_order_relaxed);
}

bool configure_from_env() {
  const char* spec = std::getenv("DOMINOSYN_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') return false;
  configure(spec);
  return active();
}

void clear() noexcept {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.sites.clear();
  reg.spec.clear();
  g_total_injected.store(0, std::memory_order_relaxed);
  g_active.store(false, std::memory_order_relaxed);
}

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

std::string spec() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.spec;
}

std::vector<std::pair<std::string, SiteCounters>> counters() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::pair<std::string, SiteCounters>> out;
  out.reserve(reg.sites.size());
  for (const auto& [site, policy] : reg.sites)
    out.emplace_back(site, SiteCounters{policy.evaluated, policy.injected});
  return out;
}

std::uint64_t injected(const std::string& site) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.injected;
}

std::uint64_t total_injected() noexcept {
  return g_total_injected.load(std::memory_order_relaxed);
}

}  // namespace dominosyn::fault

#endif  // DOMINOSYN_NO_FAULTS
