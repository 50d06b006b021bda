#pragma once
// One memo for every cached artifact: the combined block C of an encoded
// machine (logic/block.hpp) and the machine, OSTR and structure levels of
// the job cache (jobs/cache.hpp).
//
// A Memo maps a key to an immutable result. It stores exactly what its key
// reproduces: a result whose degradations all stopped at the budget's work
// allowance (reproducible(), util/budget.hpp), under a key that holds that
// allowance. A result a deadline or a cancel cut short goes back to its
// caller only.
//
// A miss computes without waiting and without the lock held. Concurrent
// misses on one key each compute; the first storable result is stored, and
// every caller whose result was storable gets the stored one back (its own
// is identical: the key reproduces it). A miss that finds the key stored
// when it is done counts a lost race. See DESIGN.md "Cache keying and
// invalidation".
//
// Optional LRU bound: with max_entries > 0, each insertion evicts least
// recently used entries until the memo fits, skipping pinned ones -- an
// entry whose result a caller still holds (use_count() > 1).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/budget.hpp"

namespace stc {

struct MemoStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Misses that computed a storable result and found the key stored.
  std::size_t lost_races = 0;
  std::size_t evictions = 0;
};

template <typename Key, typename T>
class Memo {
 public:
  /// `max_entries` bounds the stored entries (0 = unbounded).
  explicit Memo(std::size_t max_entries = 0) : max_entries_(max_entries) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The result for `key`: the stored one, else `compute`'s. `compute`
  /// takes a std::vector<Degradation>* that it appends its truncations to
  /// and returns a shared_ptr to the result. The result's degradations,
  /// stored or fresh, are appended to `degradations`; `hit` reports whether
  /// a stored result served the call without computing. An exception from
  /// `compute` propagates and stores nothing.
  template <typename Compute>
  std::shared_ptr<const T> get(const Key& key, const Compute& compute,
                               std::vector<Degradation>* degradations = nullptr,
                               bool* hit = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++stats_.hits;
        it->second.last_use = ++tick_;
        if (hit) *hit = true;
        append(degradations, it->second.degradations);
        return it->second.value;
      }
      ++stats_.misses;
    }
    if (hit) *hit = false;
    std::vector<Degradation> degs;
    std::shared_ptr<const T> value = compute(&degs);
    if (reproducible(degs)) {
      std::lock_guard<std::mutex> lock(mu_);
      const auto [it, inserted] = entries_.try_emplace(key, Entry{value, degs});
      if (!inserted) {
        ++stats_.lost_races;
        value = it->second.value;
        degs = it->second.degradations;
      }
      it->second.last_use = ++tick_;
      evict_locked();
    }
    append(degradations, degs);
    return value;
  }

  MemoStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    std::shared_ptr<const T> value;
    std::vector<Degradation> degradations;
    std::uint64_t last_use = 0;
  };

  static void append(std::vector<Degradation>* out,
                     const std::vector<Degradation>& degs) {
    if (out) out->insert(out->end(), degs.begin(), degs.end());
  }

  void evict_locked() {
    while (max_entries_ != 0 && entries_.size() > max_entries_) {
      auto lru = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.value.use_count() > 1) continue;  // pinned
        if (lru == entries_.end() || it->second.last_use < lru->second.last_use)
          lru = it;
      }
      if (lru == entries_.end()) return;  // everything left is pinned
      entries_.erase(lru);
      ++stats_.evictions;
    }
  }

  mutable std::mutex mu_;
  std::size_t max_entries_ = 0;
  std::uint64_t tick_ = 0;
  std::map<Key, Entry> entries_;
  MemoStats stats_;
};

}  // namespace stc
