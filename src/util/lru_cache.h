// LruCache — a bounded LRU cache keyed by (namespace, key), with
// single-flight misses.
//
// A miss is computed once, by its first asker (the leader), with no lock
// held: later askers of the same key wait for it and count as hits, and
// askers of other keys never wait on it. A leader that throws wakes its
// waiters, who retry; nothing is cached for the key. Entries that leave
// together share a namespace; a compute in flight across its namespace's
// drop is not cached.

#ifndef BUNDLEMINE_UTIL_LRU_CACHE_H_
#define BUNDLEMINE_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bundlemine {

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::size_t entries = 0;
};

template <typename V>
class LruCache {
 public:
  /// At most `capacity` entries over all namespaces; 0 disables caching.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// The cached value of (ns, key), or on a miss what `compute()` returns.
  /// `hit` (optional) reports whether the cache served the value.
  template <typename Compute>
  V GetOrCompute(const std::string& ns, const std::string& key,
                 Compute&& compute, bool* hit = nullptr) EXCLUDES(mu_) {
    const Id id(ns, key);
    if (hit != nullptr) *hit = false;
    {
      MutexLock lock(mu_);
      while (capacity_ > 0) {
        if (V* cached = FindLocked(id)) {
          ++hits_;
          if (hit != nullptr) *hit = true;
          return *cached;
        }
        if (flights_.emplace(id, false).second) break;  // We lead.
        flight_done_.Wait(mu_);
      }
      ++misses_;
    }
    if (capacity_ == 0) return compute();
    std::optional<V> value;
    try {
      value.emplace(compute());
    } catch (...) {
      Land(id, nullptr);
      throw;
    }
    Land(id, &*value);
    return std::move(*value);
  }

  /// Runs `fn(V&)` on the entry of (ns, key) if present, making it the most
  /// recently used. A hit iff the entry exists and `fn` returns true.
  template <typename Fn>
  bool Visit(const std::string& ns, const std::string& key, Fn&& fn)
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    V* entry = FindLocked(Id(ns, key));
    const bool hit = entry != nullptr && fn(*entry);
    ++(hit ? hits_ : misses_);
    return hit;
  }

  /// Runs `fn(V&)` on the entry of (ns, key), inserted default-constructed
  /// when absent.
  template <typename Fn>
  void Upsert(const std::string& ns, const std::string& key, Fn&& fn)
      EXCLUDES(mu_) {
    if (capacity_ == 0) return;
    const Id id(ns, key);
    MutexLock lock(mu_);
    V* entry = FindLocked(id);
    fn(entry != nullptr ? *entry : InsertLocked(id, V()));
  }

  void DropNamespace(const std::string& ns) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    lru_.remove_if([&ns](const Entry& entry) { return entry.id.first == ns; });
    for (auto& [id, dropped] : flights_) dropped |= id.first == ns;
  }

  CacheStats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return CacheStats{hits_, misses_, lru_.size()};
  }

 private:
  using Id = std::pair<std::string, std::string>;  // (namespace, key)
  struct Entry {
    Id id;
    V value;
  };

  // The entry of `id`, moved to the front; nullptr when absent.
  V* FindLocked(const Id& id) REQUIRES(mu_) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->id != id) continue;
      lru_.splice(lru_.begin(), lru_, it);
      return &lru_.front().value;
    }
    return nullptr;
  }

  // Inserts at the front and evicts beyond capacity (never the new entry).
  V& InsertLocked(const Id& id, V value) REQUIRES(mu_) {
    lru_.push_front(Entry{id, std::move(value)});
    while (lru_.size() > capacity_) lru_.pop_back();
    return lru_.front().value;
  }

  // Ends the flight of `id`, publishing `value` unless it is null or the
  // namespace was dropped meanwhile, and wakes the waiters.
  void Land(const Id& id, const V* value) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      auto flight = flights_.find(id);
      if (value != nullptr && !flight->second) InsertLocked(id, *value);
      flights_.erase(flight);
    }
    flight_done_.NotifyAll();
  }

  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar flight_done_;
  std::list<Entry> lru_ GUARDED_BY(mu_);  ///< Front = most recently used.
  /// Keys being computed → whether their namespace was dropped meanwhile.
  std::map<Id, bool> flights_ GUARDED_BY(mu_);
  std::int64_t hits_ GUARDED_BY(mu_) = 0;
  std::int64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_LRU_CACHE_H_
