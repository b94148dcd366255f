// Service observability: one cache-friendly block of atomic counters
// plus the latency/size histograms served next to them.
//
// Every hot-path event increments exactly one relaxed atomic — no locks,
// no strings, nothing that can stall a request thread. Relaxed ordering
// is sufficient: counters are statistics, not synchronization; readers
// (benches, the CLI, tests) only need eventually-consistent totals, and
// every counter is monotone except the bytes_cached gauge.
//
// The counter and histogram inventories are single X-macro lists:
// member declarations, for_each() and reset() are all generated from the
// same line, so a metric cannot be added to one and silently missed by
// another. The stats exposition (DeltaService::stats_text(), the one way
// these values leave the process) and tests/test_server.cpp iterate the
// same lists.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/histogram.hpp"

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
#define IPD_DECLARE_COUNTER(name) std::atomic<std::uint64_t> name{0};
  IPD_SERVICE_COUNTERS(IPD_DECLARE_COUNTER)
#undef IPD_DECLARE_COUNTER

  /// Visit every counter as (name, current value) — the one iteration
  /// the stats exposition and the drift tests share.
  template <typename Fn>
  void for_each(Fn&& fn) const {
#define IPD_VISIT_COUNTER(name) \
  fn(#name, name.load(std::memory_order_relaxed));
    IPD_SERVICE_COUNTERS(IPD_VISIT_COUNTER)
#undef IPD_VISIT_COUNTER
  }

  /// Zero every counter (bench warm-up/measure phase boundary).
  void reset() noexcept;

  /// cache_hits / (cache_hits + cache_misses), 0 when no lookups yet.
  double hit_rate() const noexcept;
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
/// iteration, reset at phase boundaries.
struct ServiceHistograms {
#define IPD_DECLARE_HISTOGRAM(name) obs::Histogram name;
  IPD_SERVICE_HISTOGRAMS(IPD_DECLARE_HISTOGRAM)
#undef IPD_DECLARE_HISTOGRAM

  template <typename Fn>
  void for_each(Fn&& fn) const {
#define IPD_VISIT_HISTOGRAM(name) fn(#name, name);
    IPD_SERVICE_HISTOGRAMS(IPD_VISIT_HISTOGRAM)
#undef IPD_VISIT_HISTOGRAM
  }

  void reset() noexcept {
#define IPD_RESET_HISTOGRAM(name) name.reset();
    IPD_SERVICE_HISTOGRAMS(IPD_RESET_HISTOGRAM)
#undef IPD_RESET_HISTOGRAM
  }
};

}  // namespace ipd
