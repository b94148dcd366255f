// Artifact-store observability: counters and histograms generated by
// obs/metric_set.hpp from the two lists below, like server/metrics.hpp.
// A service running on the store carries them in its STATS exposition
// as ipdelta_store_* (StoreBackedVersionStore::render_metrics).
//
// Counters are relaxed atomics (statistics, not synchronization);
// histograms are the lock-free obs::Histogram used everywhere else.
#pragma once

#include "obs/metric_set.hpp"

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

// Every StoreMetrics histogram exactly once: X(name).
#define IPD_STORE_HISTOGRAMS(X)                                           \
  X(publish_ns)      /* publish wall time (build + policy + append)   */  \
  X(reconstruct_ns)  /* body() wall time on a disk-cache miss         */  \
  X(open_ns)         /* recovery scan + index build at open           */  \
  X(artifact_bytes)  /* stored artifact size per publish              */  \
  X(chain_length)    /* chain length at each publish                  */

struct StoreMetrics {
  IPD_METRIC_SET(IPD_STORE_COUNTERS, IPD_STORE_HISTOGRAMS)
};

}  // namespace ipd
