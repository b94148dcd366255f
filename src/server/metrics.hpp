// Service observability: one cache-friendly block of atomic counters
// plus the latency/size histograms served next to them.
//
// Every hot-path event increments exactly one relaxed atomic — no locks,
// no strings, nothing that can stall a request thread. Relaxed ordering
// is sufficient: counters are statistics, not synchronization; readers
// (benches, the CLI, tests) only need eventually-consistent totals, and
// every counter is monotone except the bytes_cached gauge.
//
// The counter and histogram inventories are single X-macro lists, and
// obs/metric_set.hpp generates the members, visit() and reset() from
// them, so a metric cannot be added to one and silently missed by
// another. The stats exposition (DeltaService::stats_text(), the one way
// these values leave the process) and tests/test_server.cpp walk the
// same visit().
#pragma once

#include "obs/metric_set.hpp"

namespace ipd {

// Every ServiceMetrics counter exactly once: X(name).
#define IPD_SERVICE_COUNTERS(X)                                         \
  X(requests)           /* serve() calls                             */ \
  X(cache_hits)         /* delta found in cache                      */ \
  X(cache_misses)       /* lookup found nothing                      */ \
  X(coalesced_waits)    /* rode another build                        */ \
  X(builds)             /* Pipeline::build_inplace runs              */ \
  X(build_ns)           /* wall time inside builds                   */ \
  X(bytes_served)       /* artifact bytes returned                   */ \
  X(deltas_served)      /* direct-delta responses                    */ \
  X(chains_served)      /* per-hop chain responses                   */ \
  X(full_images_served) /* raw-image responses                       */ \
  X(evictions)          /* cache entries dropped                     */ \
  X(rejected_inserts)   /* entry > shard budget                      */ \
  X(verify_rejects)     /* unsafe deltas refused (src/verify/)       */ \
  X(verify_warns)       /* warning findings seen                     */ \
  X(net_sessions)       /* connections served                        */ \
  X(net_rejected)       /* over connection limit                     */ \
  X(net_bytes_sent)     /* wire bytes written                        */ \
  X(net_frames_sent)    /* frames written                            */ \
  X(net_resumes)        /* RESUME transfers honored                  */ \
  X(net_retries)        /* client attempts after a fault             */ \
  X(net_errors)         /* ERROR frames sent                         */ \
  X(net_shed)           /* load-shed refusals (ERROR{kShed} replies) */

struct ServiceMetrics {
  IPD_METRIC_SET(IPD_SERVICE_COUNTERS, IPD_NO_METRICS)

  /// cache_hits / (cache_hits + cache_misses), 0 when no lookups yet.
  double hit_rate() const noexcept {
    const std::uint64_t hits = cache_hits.load(std::memory_order_relaxed);
    const std::uint64_t lookups =
        hits + cache_misses.load(std::memory_order_relaxed);
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// Every ServiceHistograms member exactly once: X(name). Values are
// nanoseconds for *_ns, counts/bytes otherwise.
#define IPD_SERVICE_HISTOGRAMS(X)                                        \
  X(serve_ns)        /* serve() wall time per request                 */ \
  X(build_latency_ns) /* Pipeline::build_inplace wall time per build  */ \
  X(artifact_bytes)  /* response payload bytes per request            */ \
  X(transfer_ns)     /* wire transfer wall time per artifact          */ \
  X(transfer_frames) /* frames sent per artifact transfer             */ \
  X(diff_fanout)     /* diff segments per build (1 == serial)         */ \
  X(crwi_fanout)     /* CRWI discovery chunks per build (1 == serial) */ \
  X(net_queue_depth) /* queued outbound bytes per connection, sampled */

/// The latency/size distributions recorded alongside ServiceMetrics.
/// Same discipline as the counters: relaxed atomics only, generated
/// visit, reset at phase boundaries.
struct ServiceHistograms {
  IPD_METRIC_SET(IPD_NO_METRICS, IPD_SERVICE_HISTOGRAMS)
};

}  // namespace ipd
