// Artifact-store observability: counters and histograms in the same
// X-macro discipline as server/metrics.hpp — one list generates the
// members, the iteration and reset(), and the Prometheus exposition
// (ArtifactStore::stats_text()) walks the same iteration, so a metric
// cannot be added to one and missed by another.
//
// Counters are relaxed atomics (statistics, not synchronization);
// histograms are the lock-free obs::Histogram used everywhere else.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/histogram.hpp"

namespace ipd {

// Every StoreMetrics counter exactly once: X(name).
#define IPD_STORE_COUNTERS(X)                                              \
  X(publishes)              /* releases accepted                        */ \
  X(baselines_stored)       /* releases stored as full bodies           */ \
  X(deltas_stored)          /* releases stored as chain deltas          */ \
  X(folds)                  /* chains folded back onto their baseline   */ \
  X(fold_commands)          /* script commands composed while folding   */ \
  X(duplicate_publishes)    /* content republished under a newer id     */ \
  X(bytes_appended)         /* segment + manifest bytes written         */ \
  X(reconstructs)           /* bodies rebuilt from chains               */ \
  X(chain_hops_applied)     /* deltas applied across all reconstructs   */ \
  X(disk_cache_hits)        /* reconstructed-version cache hits         */ \
  X(disk_cache_misses)      /* ... and misses                           */ \
  X(disk_cache_evictions)   /* cached bodies evicted for the budget     */ \
  X(verify_rejects)         /* disk-loaded deltas refused by the gate   */ \
  X(releases_recovered)     /* releases reloaded at open                */ \
  X(torn_records_dropped)   /* torn-tail records truncated at open      */ \
  X(orphan_bytes_truncated) /* segment bytes no manifest record claims  */ \
  X(gc_runs)                /* segment compactions                      */ \
  X(gc_bytes_reclaimed)     /* garbage segment bytes dropped            */

struct StoreMetrics {
#define IPD_DECLARE_COUNTER(name) std::atomic<std::uint64_t> name{0};
  IPD_STORE_COUNTERS(IPD_DECLARE_COUNTER)
#undef IPD_DECLARE_COUNTER

  template <typename Fn>
  void for_each(Fn&& fn) const {
#define IPD_VISIT_COUNTER(name) \
  fn(#name, name.load(std::memory_order_relaxed));
    IPD_STORE_COUNTERS(IPD_VISIT_COUNTER)
#undef IPD_VISIT_COUNTER
  }

  void reset() noexcept {
#define IPD_RESET_COUNTER(name) name.store(0, std::memory_order_relaxed);
    IPD_STORE_COUNTERS(IPD_RESET_COUNTER)
#undef IPD_RESET_COUNTER
    histograms_reset();
  }

  // Every StoreHistograms member exactly once: X(name).
#define IPD_STORE_HISTOGRAMS(X)                                           \
  X(publish_ns)      /* publish wall time (build + policy + append)   */  \
  X(reconstruct_ns)  /* body() wall time on a disk-cache miss         */  \
  X(open_ns)         /* recovery scan + index build at open           */  \
  X(artifact_bytes)  /* stored artifact size per publish              */  \
  X(chain_length)    /* chain length at each publish                  */

#define IPD_DECLARE_HISTOGRAM(name) obs::Histogram name;
  IPD_STORE_HISTOGRAMS(IPD_DECLARE_HISTOGRAM)
#undef IPD_DECLARE_HISTOGRAM

  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
#define IPD_VISIT_HISTOGRAM(name) fn(#name, name);
    IPD_STORE_HISTOGRAMS(IPD_VISIT_HISTOGRAM)
#undef IPD_VISIT_HISTOGRAM
  }

  void histograms_reset() noexcept {
#define IPD_RESET_HISTOGRAM(name) name.reset();
    IPD_STORE_HISTOGRAMS(IPD_RESET_HISTOGRAM)
#undef IPD_RESET_HISTOGRAM
  }
};

}  // namespace ipd
