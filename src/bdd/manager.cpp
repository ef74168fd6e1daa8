/// \file manager.cpp
/// BddManager storage, unique table, handles and garbage collection.

#include <algorithm>

#include "bdd/bdd.hpp"
#include "util/hash.hpp"

namespace dominosyn {

// ---- Bdd handle --------------------------------------------------------------

Bdd::Bdd(BddManager* mgr, BddIndex index) noexcept : mgr_(mgr), index_(index) {
  if (mgr_ != nullptr) mgr_->ref(index_);
}

Bdd::Bdd(const Bdd& other) noexcept : mgr_(other.mgr_), index_(other.index_) {
  if (mgr_ != nullptr) mgr_->ref(index_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), index_(other.index_) {
  other.mgr_ = nullptr;
  other.index_ = kBddFalse;
}

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->ref(other.index_);
  if (mgr_ != nullptr) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  other.mgr_ = nullptr;
  other.index_ = kBddFalse;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->deref(index_);
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->bdd_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->bdd_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->bdd_xor(*this, rhs); }
Bdd Bdd::operator!() const { return mgr_->bdd_not(*this); }

// ---- manager -----------------------------------------------------------------

BddManager::BddManager(std::uint32_t num_vars, std::uint64_t budget)
    : num_vars_(num_vars), budget_(budget) {
  // Terminals occupy indices 0 and 1 with the pseudo-variable kTerminalVar.
  var_ = {kTerminalVar, kTerminalVar};
  low_ = {kBddFalse, kBddTrue};
  high_ = {kBddFalse, kBddTrue};
  next_ = {kInvalid, kInvalid};
  ext_refs_ = {1, 1};  // terminals are always live
  buckets_.assign(1024, kInvalid);
  ite_cache_.assign(1u << 16, CacheEntry{});
}

std::size_t BddManager::bucket_of(std::uint32_t v, BddIndex lo, BddIndex hi) const noexcept {
  return static_cast<std::size_t>(hash3(v, lo, hi)) & (buckets_.size() - 1);
}

void BddManager::rehash(std::size_t new_bucket_count) {
  buckets_.assign(new_bucket_count, kInvalid);
  for (BddIndex n = 2; n < var_.size(); ++n) {
    if (var_[n] == kTerminalVar) continue;  // freed node
    const std::size_t b = bucket_of(var_[n], low_[n], high_[n]);
    next_[n] = buckets_[b];
    buckets_[b] = n;
  }
  // Keep the operation cache proportional to the node population: a fixed
  // small cache thrashes on multi-million-node builds and turns shared
  // subproblems into repeated exponential work.  The node cap bounds it, and
  // its size never depends on the budget, so neither does the step count.
  if (ite_cache_.size() < new_bucket_count)
    ite_cache_.assign(new_bucket_count, CacheEntry{});
}

BddIndex BddManager::mk(std::uint32_t v, BddIndex lo, BddIndex hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::size_t b = bucket_of(v, lo, hi);
  for (BddIndex n = buckets_[b]; n != kInvalid; n = next_[n])
    if (var_[n] == v && low_[n] == lo && high_[n] == hi) return n;

  BddIndex n;
  if (!free_list_.empty()) {
    n = free_list_.back();
    free_list_.pop_back();
    var_[n] = v;
    low_[n] = lo;
    high_[n] = hi;
    ext_refs_[n] = 0;
  } else {
    if (var_.size() >= budget_) throw BddLimitExceeded{};
    n = static_cast<BddIndex>(var_.size());
    var_.push_back(v);
    low_.push_back(lo);
    high_.push_back(hi);
    next_.push_back(kInvalid);
    ext_refs_.push_back(0);
  }
  next_[n] = buckets_[b];
  buckets_[b] = n;

  // Grow the unique table when load factor exceeds ~2.
  if (var_.size() - free_list_.size() > buckets_.size() * 2) rehash(buckets_.size() * 2);
  return n;
}

Bdd BddManager::var(std::uint32_t v) {
  if (v >= num_vars_) throw std::runtime_error("BddManager::var: index out of range");
  return Bdd(this, mk(v, kBddFalse, kBddTrue));
}

Bdd BddManager::nvar(std::uint32_t v) {
  if (v >= num_vars_) throw std::runtime_error("BddManager::nvar: index out of range");
  return Bdd(this, mk(v, kBddTrue, kBddFalse));
}

std::size_t BddManager::live_nodes() const {
  std::vector<bool> marked(var_.size(), false);
  std::vector<BddIndex> stack;
  for (BddIndex n = 0; n < var_.size(); ++n)
    if (ext_refs_[n] > 0 && !marked[n]) {
      marked[n] = true;
      stack.push_back(n);
    }
  std::size_t count = 0;
  while (!stack.empty()) {
    const BddIndex n = stack.back();
    stack.pop_back();
    ++count;
    if (is_terminal(n)) continue;
    for (const BddIndex child : {low_[n], high_[n]})
      if (!marked[child]) {
        marked[child] = true;
        stack.push_back(child);
      }
  }
  return count;
}

std::size_t BddManager::gc() {
  // Mark phase: everything reachable from externally referenced nodes.
  std::vector<bool> marked(var_.size(), false);
  std::vector<BddIndex> stack;
  for (BddIndex n = 0; n < var_.size(); ++n)
    if (ext_refs_[n] > 0) {
      marked[n] = true;
      stack.push_back(n);
    }
  while (!stack.empty()) {
    const BddIndex n = stack.back();
    stack.pop_back();
    if (is_terminal(n)) continue;
    for (const BddIndex child : {low_[n], high_[n]})
      if (!marked[child]) {
        marked[child] = true;
        stack.push_back(child);
      }
  }

  // Sweep: push unmarked, not-already-free nodes onto the free list.
  std::size_t reclaimed = 0;
  for (BddIndex n = 2; n < var_.size(); ++n) {
    if (marked[n] || var_[n] == kTerminalVar) continue;
    var_[n] = kTerminalVar;  // tombstone
    ++reclaimed;
    free_list_.push_back(n);
  }

  // Caches may reference dead nodes; drop them and rebuild the unique table.
  for (auto& entry : ite_cache_) entry = CacheEntry{};
  rehash(buckets_.size());
  return reclaimed;
}

}  // namespace dominosyn
