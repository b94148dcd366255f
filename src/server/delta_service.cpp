#include "server/delta_service.hpp"

#include <algorithm>
#include <string>

#include "obs/event_ring.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "server/fingerprint.hpp"

namespace ipd {

DeltaService::DeltaService(const VersionStore& store,
                           const ServiceOptions& options)
    : store_(store),
      options_(options),
      fingerprint_(fingerprint_pipeline(options.pipeline)),
      // Devices apply served deltas without scratch space, so
      // write-before-read conflicts are fatal here, not advisory.
      verifier_(VerifyOptions{.require_in_place = true}),
      cache_(options.cache_budget, options.cache_shards, &metrics_),
      pool_(options.workers),
      pipeline_(options.pipeline, &pool_) {
  if (options_.direct_gain_threshold <= 0.0) {
    throw ValidationError("delta service: direct_gain_threshold must be > 0");
  }
}

/// Verify one artifact at a trust boundary. Returns true when servable;
/// counts warnings either way and counts the reject on failure.
bool DeltaService::admit(ByteView artifact, std::string* why) {
  const Report report = verifier_.check(artifact);
  if (report.warning_count() > 0) {
    metrics_.verify_warns.fetch_add(report.warning_count(),
                                    std::memory_order_relaxed);
  }
  if (report.ok()) return true;
  metrics_.verify_rejects.fetch_add(1, std::memory_order_relaxed);
  const std::string reason =
      "delta failed static verification: " + report.first_error();
  obs::global_events().push(obs::EventType::kVerifyReject, artifact.size(), 0,
                            reason);
  if (why != nullptr) *why = reason;
  return false;
}

std::shared_ptr<const Bytes> DeltaService::fetch_delta(ReleaseId from,
                                                       ReleaseId to,
                                                       bool* hit,
                                                       bool* coalesced) {
  const DeltaKey key{from, to, fingerprint_};
  if (auto cached = cache_.get(key)) {
    *hit = true;
    return cached;
  }
  *hit = false;
  bool leader = false;
  auto value = flight_.run(
      key,
      [&]() -> std::shared_ptr<const Bytes> {
        // Double-check under the flight: a previous leader may have
        // finished (and cached) between our miss and our join, in which
        // case there is nothing to build. This is what makes builds
        // exactly-once per key while the entry stays resident.
        if (auto cached = cache_.get(key)) return cached;
        auto reference = store_.body(from);
        auto version = store_.body(to);
        // The trace context is thread-local; carry it across the pool
        // boundary explicitly so build spans join the request's trace.
        const obs::TraceContext trace = obs::current_trace();
        auto build = [this, reference, version,
                      trace]() -> std::shared_ptr<const Bytes> {
          const obs::TraceScope trace_scope(trace);
          // Runs ON a pool worker; any intra-build fan-out posts
          // helper tasks back to the same pool (parallel_for's
          // caller participation makes that deadlock-free), so
          // concurrent builds and parallel stages share one
          // machine-sized pool with no oversubscription.
          BuildResult built = pipeline_.build_inplace(*reference, *version);
          metrics_.builds.fetch_add(1, std::memory_order_relaxed);
          metrics_.build_ns.fetch_add(built.timing.total_ns,
                                      std::memory_order_relaxed);
          histograms_.build_latency_ns.record(built.timing.total_ns);
          histograms_.diff_fanout.record(built.timing.diff_segments);
          histograms_.crwi_fanout.record(built.timing.crwi_chunks);
          return std::make_shared<const Bytes>(std::move(built.delta));
        };
        // serve() itself may be running ON a pool worker (serve_async):
        // submit(...).get() there can wedge the whole pool — every
        // worker blocked in get() on builds that never start. Build
        // inline instead; the thread is a build worker either way.
        auto built = pool_.on_worker_thread() ? build()
                                              : pool_.submit(build).get();
        std::string why;
        if (!admit(ByteView(*built), &why)) {
          // Our own pipeline produced an unservable artifact — that is a
          // converter bug, and serving it would push the corruption to
          // every device on this hop. Fail the request instead.
          throw Error("delta service: built artifact for hop " +
                      std::to_string(from) + " -> " + std::to_string(to) +
                      " rejected: " + why);
        }
        cache_.put(key, built);
        return built;
      },
      &leader);
  if (!leader) {
    *coalesced = true;
    metrics_.coalesced_waits.fetch_add(1, std::memory_order_relaxed);
  }
  return value;
}

bool DeltaService::preload(ReleaseId from, ReleaseId to, Bytes delta) {
  const std::size_t releases = store_.release_count();
  if (from >= to || to >= releases) {
    throw ValidationError("delta service: need from < to < release_count");
  }
  // Endpoint pinning first: a structurally perfect delta between the
  // WRONG releases is just as much an attack as a conflicting one. The
  // header's (length, crc) pair must match the store's content address.
  std::optional<std::pair<DeltaHeader, std::size_t>> parsed;
  try {
    parsed = try_parse_header(delta);
  } catch (const FormatError&) {
    parsed.reset();
  }
  const ContentKey want = store_.content_key(to);
  if (!parsed || parsed->first.reference_length != store_.body(from)->size() ||
      parsed->first.version_length != want.length ||
      parsed->first.version_crc != want.crc) {
    metrics_.verify_rejects.fetch_add(1, std::memory_order_relaxed);
    obs::global_events().push(obs::EventType::kVerifyReject, from, to,
                              "preload endpoint mismatch");
    return false;
  }
  if (!admit(ByteView(delta), nullptr)) return false;
  cache_.put(DeltaKey{from, to, fingerprint_},
             std::make_shared<const Bytes>(std::move(delta)));
  return true;
}

RouteKind cheapest_route(std::uint64_t direct,
                         std::span<const std::uint64_t> chain_hops,
                         std::uint64_t image) noexcept {
  const std::uint64_t direct_cost = direct + kPerHopOverhead;
  const std::uint64_t image_cost = image + kPerHopOverhead;
  if (!chain_hops.empty()) {
    std::uint64_t chain_cost = 0;
    for (const std::uint64_t hop : chain_hops) {
      chain_cost += hop + kPerHopOverhead;
    }
    if (chain_cost <= std::min(direct_cost, image_cost)) {
      return RouteKind::kChain;
    }
  }
  return image_cost <= direct_cost ? RouteKind::kImage : RouteKind::kDirect;
}

ServeResult DeltaService::serve(ReleaseId from, ReleaseId to) {
  const std::size_t releases = store_.release_count();
  if (from >= to || to >= releases) {
    throw ValidationError("delta service: need from < to < release_count");
  }
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t serve_start = obs::now_ns();
  obs::Span span(obs::Stage::kServe);

  ServeResult result;
  const auto target = store_.body(to);
  const std::uint64_t version_size = target->size();

  auto direct = fetch_delta(from, to, &result.cache_hit, &result.coalesced);

  // Drifted history: once the direct delta stops being a real win, price
  // the per-release chain too (every hop delta is shared with all other
  // stragglers, so building them is amortized).
  std::vector<ServedStep> chain;
  std::vector<std::uint64_t> hop_sizes;
  const bool direct_wins =
      static_cast<double>(direct->size()) <=
      options_.direct_gain_threshold * static_cast<double>(version_size);
  const std::size_t hops = to - from;
  if (!direct_wins && hops >= 2 && hops <= kMaxChainHops) {
    for (ReleaseId at = from; at < to; ++at) {
      bool hop_hit = false;
      auto hop = fetch_delta(at, at + 1, &hop_hit, &result.coalesced);
      if (!hop_hit) result.cache_hit = false;
      hop_sizes.push_back(hop->size());
      chain.push_back(ServedStep{at, at + 1, false, std::move(hop)});
    }
  }

  switch (cheapest_route(direct->size(), hop_sizes, version_size)) {
    case RouteKind::kChain:
      result.steps = std::move(chain);
      metrics_.chains_served.fetch_add(1, std::memory_order_relaxed);
      break;
    case RouteKind::kImage:
      result.steps.push_back(ServedStep{from, to, true, target});
      metrics_.full_images_served.fetch_add(1, std::memory_order_relaxed);
      break;
    case RouteKind::kDirect:
      result.steps.push_back(ServedStep{from, to, false, std::move(direct)});
      metrics_.deltas_served.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  for (const ServedStep& step : result.steps) {
    result.total_bytes += step.bytes->size();
  }
  metrics_.bytes_served.fetch_add(result.total_bytes,
                                  std::memory_order_relaxed);
  span.add_bytes(result.total_bytes);
  histograms_.serve_ns.record(obs::now_ns() - serve_start);
  histograms_.artifact_bytes.record(result.total_bytes);
  return result;
}

void DeltaService::serve_async(ReleaseId from, ReleaseId to,
                               obs::TraceContext trace, ServeCallback done) {
  // The callback rides in a shared_ptr so the rejection path below can
  // still reach it after the task (holding the other reference) has been
  // moved into — and discarded by — a pool that refused it.
  auto cb = std::make_shared<ServeCallback>(std::move(done));
  try {
    pool_.post([this, from, to, trace, cb]() {
      const obs::TraceScope scope(trace);
      try {
        ServeResult result = serve(from, to);
        (*cb)(&result, nullptr);
      } catch (...) {
        (*cb)(nullptr, std::current_exception());
      }
    });
  } catch (...) {
    // Pool shutting down: the request can never run. Reject inline so
    // the caller is always answered exactly once.
    (*cb)(nullptr, std::current_exception());
  }
}

std::string DeltaService::stats_text() const {
  obs::PrometheusRenderer r;
  metrics_.for_each([&](const char* name, std::uint64_t value) {
    r.counter(name, value);
  });
  histograms_.for_each([&](const char* name, const obs::Histogram& h) {
    r.histogram(name, h.snapshot());
  });
  const DeltaCache::Stats stats = cache_.stats();
  r.gauge("cache_bytes_held", stats.bytes_held);
  r.gauge("cache_byte_budget", cache_.byte_budget());
  r.gauge("cache_entries", stats.entries);
  // Pipeline stage aggregates cover every build this process ran, not
  // only this service's — they are process-global by design.
  obs::flush_thread_stats();
  const obs::StageTotals totals = obs::stage_totals();
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    r.counter("stage_ns", "stage", obs::stage_name(stage), totals[stage].ns);
  }
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    r.counter("stage_bytes", "stage", obs::stage_name(stage),
              totals[stage].bytes);
  }
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    r.counter("stage_ops", "stage", obs::stage_name(stage),
              totals[stage].count);
  }
  r.counter("events_recorded", obs::global_events().pushed());
  return r.str();
}

Bytes apply_served(const ServeResult& result, ByteView from_body) {
  if (result.steps.empty()) {
    throw ValidationError("apply_served: empty response");
  }
  Bytes image(from_body.begin(), from_body.end());
  for (const ServedStep& step : result.steps) {
    if (step.full_image) {
      image.assign(step.bytes->begin(), step.bytes->end());
      continue;
    }
    const auto parsed = try_parse_header(*step.bytes);
    if (!parsed) {
      throw FormatError("truncated delta header");
    }
    const DeltaHeader& header = parsed->first;
    image.resize(std::max<std::size_t>(header.reference_length,
                                       header.version_length));
    const length_t new_len = apply_delta_inplace(*step.bytes, image);
    image.resize(static_cast<std::size_t>(new_len));
  }
  return image;
}

}  // namespace ipd
