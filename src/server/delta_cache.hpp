// Sharded, byte-budgeted LRU cache of built delta artifacts.
//
// DeltaFS's observation applies directly here: a delta between two
// released versions is immutable and requested by every device making the
// same hop, so recomputing it per request wastes the dominant cost
// (differencing + conversion). The cache maps
//     (from release, to release, pipeline fingerprint)  ->  delta bytes
// and bounds *bytes*, not entries — artifacts span three orders of
// magnitude and an entry count says nothing about memory.
//
// Concurrency: the key space is hash-partitioned into independent shards,
// each with its own mutex, LRU list, and slice of the byte budget, so
// concurrent lookups on different deltas do not serialize. Values are
// shared_ptr<const Bytes>: eviction only drops the cache's reference —
// requests already holding the artifact keep a valid one (no
// copy-under-lock, no use-after-evict).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"
#include "server/metrics.hpp"
#include "server/version_store.hpp"

namespace ipd {

/// Cache key: the endpoints plus how the delta was produced
/// (fingerprint_pipeline of the service's PipelineOptions).
struct DeltaKey {
  ReleaseId from = 0;
  ReleaseId to = 0;
  std::uint64_t fingerprint = 0;

  bool operator==(const DeltaKey&) const noexcept = default;
};

struct DeltaKeyHash {
  std::size_t operator()(const DeltaKey& k) const noexcept {
    // splitmix64 over the packed endpoints, xor-folded with the pipeline
    // fingerprint (itself already well mixed).
    std::uint64_t x = (static_cast<std::uint64_t>(k.from) << 32) | k.to;
    x ^= k.fingerprint;
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

class DeltaCache {
 public:
  struct Stats {
    std::uint64_t bytes_held = 0;
    std::size_t entries = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;
  };

  /// `byte_budget` is split evenly across `shards` (rounded up to a power
  /// of two). `metrics`, when non-null, receives hit/miss/eviction
  /// counts; it must outlive the cache. The cache trusts what it is
  /// given: DeltaService::admit verifies every artifact before put().
  explicit DeltaCache(std::uint64_t byte_budget, std::size_t shards = 16,
                      ServiceMetrics* metrics = nullptr);

  /// Look up and touch (moves the entry to the shard's MRU position).
  std::shared_ptr<const Bytes> get(const DeltaKey& key);

  /// Insert (or refresh) an entry, evicting LRU entries until the shard
  /// fits its budget slice. Returns false — and caches nothing — when the
  /// value alone exceeds the slice (a delta bigger than that is cheaper
  /// to rebuild than to let it wipe out the whole shard).
  bool put(const DeltaKey& key, std::shared_ptr<const Bytes> value);

  std::uint64_t byte_budget() const noexcept { return budget_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Aggregated over all shards (each shard locked briefly in turn).
  Stats stats() const;

 private:
  struct Entry {
    DeltaKey key;
    std::shared_ptr<const Bytes> value;
  };
  struct Shard {
    Mutex mutex{"DeltaCache::Shard"};
    std::list<Entry> lru GUARDED_BY(mutex);  // front = most recently used
    std::unordered_map<DeltaKey, std::list<Entry>::iterator, DeltaKeyHash>
        index GUARDED_BY(mutex);
    std::uint64_t bytes GUARDED_BY(mutex) = 0;
    std::uint64_t evictions GUARDED_BY(mutex) = 0;
    std::uint64_t rejected GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const DeltaKey& key) noexcept;

  std::uint64_t budget_;
  std::uint64_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ServiceMetrics* metrics_;
};

}  // namespace ipd
