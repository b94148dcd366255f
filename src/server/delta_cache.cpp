#include "server/delta_cache.hpp"

#include <bit>

#include "obs/event_ring.hpp"

namespace ipd {

DeltaCache::DeltaCache(std::uint64_t byte_budget, std::size_t shards,
                       ServiceMetrics* metrics)
    : budget_(byte_budget), metrics_(metrics) {
  if (byte_budget == 0) {
    throw ValidationError("delta cache: byte budget must be positive");
  }
  const std::size_t count = std::bit_ceil(shards == 0 ? 1 : shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Ceil-divide so the slices always sum to >= the requested budget.
  shard_budget_ = (budget_ + count - 1) / count;
}

DeltaCache::Shard& DeltaCache::shard_for(const DeltaKey& key) noexcept {
  return *shards_[DeltaKeyHash{}(key) & (shards_.size() - 1)];
}

std::shared_ptr<const Bytes> DeltaCache::get(const DeltaKey& key) {
  Shard& shard = shard_for(key);
  std::shared_ptr<const Bytes> value;
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      value = it->second->value;
    }
  }
  if (metrics_ != nullptr) {
    (value ? metrics_->cache_hits : metrics_->cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return value;
}

bool DeltaCache::put(const DeltaKey& key,
                     std::shared_ptr<const Bytes> value) {
  const std::uint64_t size = value->size();
  Shard& shard = shard_for(key);
  std::uint64_t evicted = 0;
  bool rejected = false;
  {
    MutexLock lock(shard.mutex);
    if (size > shard_budget_) {
      ++shard.rejected;
      rejected = true;
    } else {
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->value->size();
        it->second->value = std::move(value);
        shard.bytes += size;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        shard.lru.push_front(Entry{key, std::move(value)});
        shard.index.emplace(key, shard.lru.begin());
        shard.bytes += size;
      }
      while (shard.bytes > shard_budget_) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= victim.value->size();
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++shard.evictions;
        ++evicted;
      }
    }
  }
  if (metrics_ != nullptr) {
    if (evicted > 0) {
      metrics_->evictions.fetch_add(evicted, std::memory_order_relaxed);
    }
    if (rejected) {
      metrics_->rejected_inserts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (evicted > 0) {
    obs::global_events().push(obs::EventType::kCacheEvict, evicted, size);
  }
  return !rejected;
}

DeltaCache::Stats DeltaCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.bytes_held += shard->bytes;
    total.entries += shard->lru.size();
    total.evictions += shard->evictions;
    total.rejected += shard->rejected;
  }
  return total;
}

}  // namespace ipd
