/// \file ops.cpp
/// ITE-based Boolean operations, cofactors, probability evaluation and
/// structural queries.

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "util/hash.hpp"

namespace dominosyn {

namespace {

void check_same_manager(const Bdd& a, const Bdd& b) {
  if (a.manager() == nullptr || a.manager() != b.manager())
    throw std::runtime_error("BDD operands from different managers");
}

}  // namespace

BddIndex BddManager::ite_rec(BddIndex f, BddIndex g, BddIndex h) {
  // Terminal cases.
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  // One unit of work per non-terminal call, cache hits included, so the
  // count bounds every step of the recursion and an intractable build stops
  // after bounded time.
  if (++steps_ > budget_) throw BddLimitExceeded{};

  const std::size_t slot =
      static_cast<std::size_t>(hash3(f, g, h)) & (ite_cache_.size() - 1);
  {
    const CacheEntry& entry = ite_cache_[slot];
    if (entry.f == f && entry.g == g && entry.h == h) return entry.result;
  }

  const std::uint32_t v =
      std::min({top_var(f), top_var(g), top_var(h)});
  const auto cofactor = [this, v](BddIndex n, bool positive) -> BddIndex {
    if (is_terminal(n) || var_[n] != v) return n;
    return positive ? high_[n] : low_[n];
  };
  const BddIndex lo = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const BddIndex hi = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const BddIndex result = mk(v, lo, hi);

  ite_cache_[slot] = CacheEntry{f, g, h, result};
  return result;
}

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  check_same_manager(f, g);
  check_same_manager(g, h);
  return Bdd(this, ite_rec(f.index(), g.index(), h.index()));
}

Bdd BddManager::bdd_and(const Bdd& f, const Bdd& g) {
  check_same_manager(f, g);
  return Bdd(this, ite_rec(f.index(), g.index(), kBddFalse));
}

Bdd BddManager::bdd_or(const Bdd& f, const Bdd& g) {
  check_same_manager(f, g);
  return Bdd(this, ite_rec(f.index(), kBddTrue, g.index()));
}

Bdd BddManager::bdd_xor(const Bdd& f, const Bdd& g) {
  check_same_manager(f, g);
  const BddIndex not_g = ite_rec(g.index(), kBddFalse, kBddTrue);
  return Bdd(this, ite_rec(f.index(), not_g, g.index()));
}

Bdd BddManager::bdd_not(const Bdd& f) {
  if (f.manager() != this) throw std::runtime_error("BDD operand from different manager");
  return Bdd(this, ite_rec(f.index(), kBddFalse, kBddTrue));
}

Bdd BddManager::restrict_var(const Bdd& f, std::uint32_t v, bool value) {
  if (f.manager() != this) throw std::runtime_error("BDD operand from different manager");
  // Restriction via ITE would disturb sharing; do a direct recursive rebuild
  // with a local memo instead.
  std::unordered_map<BddIndex, BddIndex> memo;
  const std::function<BddIndex(BddIndex)> rec = [&](BddIndex n) -> BddIndex {
    if (is_terminal(n) || var_[n] > v) return n;
    if (const auto it = memo.find(n); it != memo.end()) return it->second;
    BddIndex result;
    if (var_[n] == v) {
      result = value ? high_[n] : low_[n];
    } else {
      result = mk(var_[n], rec(low_[n]), rec(high_[n]));
    }
    memo.emplace(n, result);
    return result;
  };
  return Bdd(this, rec(f.index()));
}

// ---- probability ---------------------------------------------------------------

double BddManager::prob_rec(BddIndex f, std::span<const double> var_probs,
                            std::vector<double>& memo) {
  if (f == kBddFalse) return 0.0;
  if (f == kBddTrue) return 1.0;
  if (memo[f] >= 0.0) return memo[f];
  const double p = var_probs[var_[f]];
  const double result = p * prob_rec(high_[f], var_probs, memo) +
                        (1.0 - p) * prob_rec(low_[f], var_probs, memo);
  memo[f] = result;
  return result;
}

double BddManager::prob(const Bdd& f, std::span<const double> var_probs) {
  if (var_probs.size() < num_vars_)
    throw std::runtime_error("BddManager::prob: probability vector too short");
  std::vector<double> memo(var_.size(), -1.0);
  return prob_rec(f.index(), var_probs, memo);
}

std::vector<double> BddManager::prob_many(std::span<const Bdd> fs,
                                          std::span<const double> var_probs) {
  if (var_probs.size() < num_vars_)
    throw std::runtime_error("BddManager::prob_many: probability vector too short");
  std::vector<double> memo(var_.size(), -1.0);
  std::vector<double> result;
  result.reserve(fs.size());
  for (const Bdd& f : fs) result.push_back(prob_rec(f.index(), var_probs, memo));
  return result;
}

double BddManager::sat_count(const Bdd& f) {
  // P(f) under uniform inputs times 2^n.
  std::vector<double> half(num_vars_, 0.5);
  return prob(f, half) * std::exp2(static_cast<double>(num_vars_));
}

// ---- structure ------------------------------------------------------------------

std::size_t BddManager::dag_size(const Bdd& f) const {
  const Bdd fs[] = {f};
  return dag_size_shared(fs);
}

std::size_t BddManager::dag_size_shared(std::span<const Bdd> fs) const {
  std::unordered_set<BddIndex> seen;
  std::vector<BddIndex> stack;
  for (const Bdd& f : fs) {
    if (!is_terminal(f.index()) && seen.insert(f.index()).second)
      stack.push_back(f.index());
  }
  std::size_t count = 0;
  while (!stack.empty()) {
    const BddIndex n = stack.back();
    stack.pop_back();
    ++count;
    for (const BddIndex child : {low_[n], high_[n]})
      if (!is_terminal(child) && seen.insert(child).second) stack.push_back(child);
  }
  return count;
}

std::vector<std::uint32_t> BddManager::support(const Bdd& f) const {
  std::unordered_set<BddIndex> seen;
  std::vector<BddIndex> stack;
  std::vector<bool> in_support(num_vars_, false);
  if (!is_terminal(f.index())) {
    seen.insert(f.index());
    stack.push_back(f.index());
  }
  while (!stack.empty()) {
    const BddIndex n = stack.back();
    stack.pop_back();
    in_support[var_[n]] = true;
    for (const BddIndex child : {low_[n], high_[n]})
      if (!is_terminal(child) && seen.insert(child).second) stack.push_back(child);
  }
  std::vector<std::uint32_t> result;
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (in_support[v]) result.push_back(v);
  return result;
}

}  // namespace dominosyn
