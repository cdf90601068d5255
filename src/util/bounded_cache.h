#ifndef WYM_UTIL_BOUNDED_CACHE_H_
#define WYM_UTIL_BOUNDED_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

/// \file
/// A mutex-guarded, size-capped memo cache with deterministic FIFO
/// eviction, behind the serve layer's prediction cache.
///
/// Design constraints:
///  - **Bounded.** A long-lived process must not grow with the number
///    of distinct keys it has ever seen; capacity is fixed at
///    construction and enforced on every insert.
///  - **Deterministic eviction.** Victims leave in insertion order
///    (FIFO), never in hash-table order, so for a deterministic
///    insertion sequence the cache contents are reproducible. Cached
///    values are always derivable state — eviction can change hit
///    rates, never results.
///  - **Thread-safe.** Lookup/Insert take one mutex; entries are copied
///    out so no reference escapes the lock.

namespace wym::util {

template <typename K, typename V, typename Hash = std::hash<K>>
class FifoCache {
 public:
  explicit FifoCache(size_t capacity) : capacity_(capacity) {}

  /// Copies the cached value for `key` into `*out`; false on a miss
  /// (or when the cache is disabled with capacity 0).
  bool Lookup(const K& key, V* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    return true;
  }

  /// Inserts `key -> value`, evicting the oldest entry when full. A key
  /// that is already present keeps its original value and age (the memo
  /// use case: equal keys always map to equal values).
  void Insert(const K& key, V value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!map_.emplace(key, std::move(value)).second) return;
    order_.push_back(key);
    while (map_.size() > capacity_) {
      map_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    order_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Total evictions since construction (monotonic; survives Clear).
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<K, V, Hash> map_;
  /// Insertion order; front() is the next eviction victim.
  std::deque<K> order_;
  uint64_t evictions_ = 0;
};

}  // namespace wym::util

#endif  // WYM_UTIL_BOUNDED_CACHE_H_
