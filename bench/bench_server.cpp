// bench_server — load generator for the delta distribution service.
//
// Drives DeltaService over a standard_corpus()-style release history and
// reports, for the warm-cache serving path, throughput vs. client thread
// count (the scaling claim: request handling is sharded-lock + atomic
// work only), plus hit rate and eviction behaviour vs. cache byte
// budget. The cold section measures build amortization: first-touch
// requests pay Pipeline::build_inplace once per distinct (from, to) pair,
// everyone after rides the cache or coalesces.
//
// Runs standalone with no arguments (CI smoke); IPDELTA_BENCH_SERVE_OPS
// scales the warm-phase request count for serious runs.
//
// Prints a human table, then one `JSON {...}` line for the tracked
// trend file:
//   bench_server | grep '^JSON ' | cut -c6- > BENCH_SERVER.json
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/delta_server.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "server/delta_service.hpp"

namespace {

using namespace ipd;

// One package evolved through 12 releases: 66 distinct (from, to) pairs,
// the natural key population for a single-history service.
std::vector<Bytes> make_history() {
  CorpusOptions options;
  options.packages = 1;
  options.releases_per_package = 12;
  options.min_file_size = 48 << 10;
  options.max_file_size = 48 << 10;
  options.edits_per_64k = 60;
  options.mutation_model.length_scale = 64;
  const std::vector<VersionPair> pairs = standard_corpus(options);
  // Consecutive pairs of one package chain: reference of pair k+1 is the
  // version of pair k, so the full history is the first reference plus
  // every version in order.
  std::vector<Bytes> history;
  history.push_back(pairs.front().reference);
  for (const VersionPair& pair : pairs) history.push_back(pair.version);
  return history;
}

struct LoadResult {
  double seconds = 0;
  std::uint64_t requests = 0;
};

/// Fire `total` random (from < to) requests at `service` from `threads`
/// client threads; returns wall time for the whole volley. Per-request
/// serve() latency accumulates into `latency` — the histogram is
/// thread-safe, so all client threads record into it directly.
LoadResult run_load(DeltaService& service, std::size_t releases,
                    std::size_t threads, std::size_t total,
                    std::uint64_t seed, obs::Histogram& latency) {
  std::vector<std::thread> clients;
  LoadResult result;
  result.requests = total;
  result.seconds = bench::time_seconds([&] {
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t quota = total / threads + (t == 0 ? total % threads : 0);
      clients.emplace_back([&service, &latency, releases, quota, seed, t] {
        Rng rng(seed + t);
        for (std::size_t i = 0; i < quota; ++i) {
          const auto from = static_cast<ReleaseId>(rng.below(releases - 1));
          const auto to =
              from + 1 +
              static_cast<ReleaseId>(rng.below(releases - 1 - from));
          bench::time_into(latency, [&] { (void)service.serve(from, to); });
        }
      });
    }
    for (std::thread& client : clients) client.join();
  });
  return result;
}

/// CI gate: the stats exposition must name every registered metric.
/// Re-runs the same generated visit() the renderer consumed, against
/// the rendered text — a counter or histogram added to the registry but
/// dropped from the exposition fails the bench (and the smoke job).
int check_stats_exposition(const DeltaService& service) {
  const std::string text = service.stats_text();
  int missing = 0;
  const auto require = [&](const std::string& needle, const char* what) {
    if (text.find(needle) == std::string::npos) {
      std::fprintf(stderr, "stats exposition MISSING %s: %s\n", what,
                   needle.c_str());
      ++missing;
    }
  };
  const auto require_set = [&](const auto& set) {
    set.visit([&](const char* name, const auto& metric) {
      if (std::string_view(obs::metric_type(metric)) == "summary") {
        require("ipdelta_" + std::string(name) + "{quantile=", "histogram");
      } else {
        require("ipdelta_" + std::string(name) + " ", "counter");
      }
    });
  };
  require_set(service.metrics());
  require_set(service.histograms());
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    for (const char* series : {"stage_ns", "stage_bytes", "stage_ops"}) {
      require(std::string("ipdelta_") + series + "{stage=\"" +
                  obs::stage_name(stage) + "\"}",
              "stage series");
    }
  }
  // Spelled out (not just via the registry loop above) so the smoke job
  // fails loudly if the parallel-build stages are ever renamed/dropped.
  require("ipdelta_stage_ns{stage=\"diff.parallel\"}", "parallel stage");
  require("ipdelta_stage_ns{stage=\"crwi.parallel\"}", "parallel stage");
  require("ipdelta_diff_fanout{quantile=", "fan-out histogram");
  require("ipdelta_crwi_fanout{quantile=", "fan-out histogram");
  if (missing == 0) {
    std::printf("stats exposition: every registered metric present\n");
  }
  return missing;
}

/// Per-request wire latency over `conns` connections held open against
/// a server on `port`: every connection handshakes up front, then each
/// fires `rounds` warm GET_DELTA requests in lockstep (request -> END
/// timed into `latency`) while the other conns - 1 sessions stay live.
/// Returns false when the run failed (a connection refused or timed
/// out), which for the front-end measurement is itself the result.
bool drive_front_end(std::uint16_t port, std::size_t conns,
                     std::size_t rounds, std::size_t releases,
                     obs::Histogram& latency) {
  std::vector<std::unique_ptr<TcpTransport>> sockets;
  std::vector<std::unique_ptr<FramedConnection>> framed;
  try {
    for (std::size_t i = 0; i < conns; ++i) {
      sockets.push_back(TcpTransport::connect("127.0.0.1", port));
      sockets.back()->set_read_timeout(30'000);
      framed.push_back(std::make_unique<FramedConnection>(*sockets.back()));
      framed.back()->send(HelloMsg{kProtocolVersion, 64u << 10});
      const std::optional<Message> ack = framed.back()->receive();
      if (!ack || !std::holds_alternative<HelloAckMsg>(*ack)) return false;
    }
    Rng rng(0xF00D + conns);
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < conns; ++i) {
        const auto from = static_cast<ReleaseId>(rng.below(releases - 1));
        bool complete = false;
        bench::time_into(latency, [&] {
          framed[i]->send(GetDeltaMsg{from, from + 1});
          for (;;) {
            const std::optional<Message> msg = framed[i]->receive();
            if (!msg || std::holds_alternative<ErrorMsg>(*msg)) return;
            if (std::holds_alternative<DeltaEndMsg>(*msg)) {
              complete = true;
              return;
            }
          }
        });
        if (!complete) return false;
      }
    }
  } catch (const Error&) {
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<Bytes> history = make_history();
  VersionStore store;
  for (const Bytes& release : history) store.publish(release);
  const std::size_t releases = store.release_count();

  std::size_t warm_ops = 40'000;
  if (const char* env = std::getenv("IPDELTA_BENCH_SERVE_OPS")) {
    warm_ops = std::strtoull(env, nullptr, 10);
  }

  std::printf("bench_server: %zu releases x %zu KiB, %u hardware threads\n",
              releases, history[0].size() >> 10,
              std::thread::hardware_concurrency());
  bench::rule('=');

  std::string json = "{\"bench\":\"server\",\"releases\":" +
                     std::to_string(releases) +
                     ",\"warm_ops\":" + std::to_string(warm_ops);

  // ---- cold start: build amortization --------------------------------
  {
    ServiceOptions options;
    options.cache_budget = 64ull << 20;
    options.workers = 4;
    DeltaService service(store, options);
    obs::Histogram latency;
    LoadResult cold = run_load(service, releases, 8, 512, 0xC01D, latency);
    const ServiceMetrics& m = service.metrics();
    std::printf(
        "cold start: 512 requests / 8 threads in %.2fs\n"
        "  builds %llu (each distinct delta at most once), coalesced %llu, "
        "hits %llu\n"
        "  serve latency: %s\n",
        cold.seconds,
        static_cast<unsigned long long>(m.builds.load()),
        static_cast<unsigned long long>(m.coalesced_waits.load()),
        static_cast<unsigned long long>(m.cache_hits.load()),
        bench::latency_summary(latency).c_str());
    json += ",\"cold_seconds\":" + std::to_string(cold.seconds) +
            ",\"cold_builds\":" + std::to_string(m.builds.load()) +
            ",\"cold_p99_serve_us\":" +
            std::to_string(latency.snapshot().quantile(0.99) / 1e3);
  }
  bench::rule();

  // ---- warm cache: throughput vs. client threads ---------------------
  // One service, fully warmed, then each thread count fires the same
  // request volume. The serving path never builds: it is store lookup +
  // sharded LRU + atomics, which is what has to scale.
  int exposition_missing = 0;
  {
    ServiceOptions options;
    options.cache_budget = 64ull << 20;
    options.workers = 4;
    DeltaService service(store, options);
    obs::Histogram latency;
    run_load(service, releases, 4, 2048, 0x3A3A, latency);  // warm every pair

    std::printf("warm cache, %zu requests per thread count:\n", warm_ops);
    std::printf("  %-8s %12s %12s %10s   %s\n", "threads", "req/s", "MiB/s",
                "hit rate", "serve latency");
    double base = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      service.metrics().reset();
      latency.reset();
      LoadResult warm = run_load(service, releases, threads, warm_ops,
                                 0xBEEF + threads, latency);
      const ServiceMetrics& m = service.metrics();
      const double rate =
          static_cast<double>(warm.requests) / warm.seconds;
      const double mib =
          static_cast<double>(m.bytes_served.load()) / warm.seconds / 1048576.0;
      if (threads == 1) base = rate;
      std::printf("  %-8zu %12.0f %12.1f %9.1f%%   %s  (%.2fx vs 1 thread)\n",
                  threads, rate, mib, 100.0 * m.hit_rate(),
                  bench::latency_summary(latency).c_str(), rate / base);
      if (threads == 8) {
        json += ",\"warm_req_per_sec_1t\":" + std::to_string(base) +
                ",\"warm_req_per_sec_8t\":" + std::to_string(rate) +
                ",\"warm_scaling_8v1\":" + std::to_string(rate / base) +
                ",\"warm_hit_rate\":" + std::to_string(m.hit_rate()) +
                ",\"warm_p99_serve_us\":" +
                std::to_string(latency.snapshot().quantile(0.99) / 1e3);
      }
    }
    exposition_missing = check_stats_exposition(service);
  }
  bench::rule();

  // ---- front end: held-open connections on the epoll reactor ---------
  // The scaling claim of the epoll front end: one reactor thread carries
  // hundreds of live connections — an order of magnitude more than the
  // retired thread-per-connection loop afforded threads — while each
  // request still completes in microseconds. The thread-per-connection
  // baseline's last numbers are quoted in docs/SERVER.md.
  {
    constexpr std::size_t kReactorConns = 320;
    constexpr std::size_t kRounds = 4;
    ServiceOptions options;
    options.cache_budget = 64ull << 20;
    options.workers = 4;
    DeltaService service(store, options);
    // Warm every adjacent pair once so the server serves pure cache
    // hits: the number measures the wire path, not build scheduling luck.
    for (std::size_t from = 0; from + 1 < releases; ++from) {
      (void)service.serve(static_cast<ReleaseId>(from),
                          static_cast<ReleaseId>(from + 1));
    }
    bool net_ok = true;
    obs::Histogram reactor_latency;
    try {
      ServerConfig net;
      net.max_connections = kReactorConns + 16;
      net.idle_timeout_ms = 60'000;
      DeltaServer reactor(service, net);
      reactor.start();
      net_ok = drive_front_end(reactor.port(), kReactorConns, kRounds,
                               releases, reactor_latency);
      reactor.stop();
    } catch (const TransportError&) {
      net_ok = false;
    }
    if (net_ok) {
      const double reactor_p99 =
          reactor_latency.snapshot().quantile(0.99) / 1e3;
      std::printf(
          "front end (%zu warm requests per connection):\n"
          "  epoll reactor   %4zu live connections, request p99 %8.1f us\n",
          kRounds, kReactorConns, reactor_p99);
      json += ",\"conns_reactor\":" + std::to_string(kReactorConns) +
              ",\"reactor_p99_us\":" + std::to_string(reactor_p99);
    } else {
      std::printf("front end: localhost sockets unavailable, skipped\n");
      json += ",\"net_skipped\":true";
    }
  }
  bench::rule();

  // ---- tracing overhead: the span plumbing's cost on the warm path ---
  // Three identical volleys against one warm service: tracing off
  // (baseline), tracing on (Chrome-trace capture live), tracing off
  // again. on-vs-off is the capture cost; the off/off delta bounds what
  // the disabled-tracing branch costs — the number that must stay under
  // 2% for tracing to be safe to ship enabled-but-dormant fleet-wide.
  {
    ServiceOptions options;
    options.cache_budget = 64ull << 20;
    options.workers = 4;
    DeltaService service(store, options);
    obs::Histogram latency;
    run_load(service, releases, 4, 2048, 0x7A3A, latency);  // warm every pair
    // Interleaved best-of-seven, single client thread: every round
    // measures off / on / off back-to-back, so a burst of competing
    // load lands on all three configurations instead of skewing
    // whichever one it overlapped, and the best round approximates the
    // uncontended cost. One thread keeps scheduler noise out of what is
    // a per-call-overhead measurement, not a scaling one.
    const std::size_t volley_ops = warm_ops;
    const auto volley = [&](std::uint64_t seed) {
      latency.reset();
      const LoadResult r =
          run_load(service, releases, 1, volley_ops, seed, latency);
      return static_cast<double>(r.requests) / r.seconds;
    };
    double off_rate = 0, on_rate = 0, off_again_rate = 0;
    std::size_t captured = 0;
    for (std::uint64_t rep = 0; rep < 7; ++rep) {
      obs::set_tracing(false);
      off_rate = std::max(off_rate, volley(0x0FF1 + rep));
      obs::clear_trace_events();
      obs::set_tracing(true);
      on_rate = std::max(on_rate, volley(0x0A11 + rep));
      obs::set_tracing(false);
      captured = obs::trace_event_count();
      obs::clear_trace_events();
      off_again_rate = std::max(off_again_rate, volley(0x0FF2 + rep));
    }
    const double on_overhead_pct = (off_rate / on_rate - 1.0) * 100.0;
    const double off_overhead_pct =
        (std::max(off_rate, off_again_rate) /
             std::min(off_rate, off_again_rate) -
         1.0) *
        100.0;
    std::printf(
        "tracing overhead (1 thread, best of 7 x %zu requests):\n"
        "  off %.0f req/s, on %.0f req/s (%zu span events captured)\n"
        "  capture cost %.2f%%; off-path run-to-run delta %.2f%%\n",
        volley_ops, off_rate, on_rate, captured, on_overhead_pct,
        off_overhead_pct);
    json += ",\"trace_off_req_per_sec\":" + std::to_string(off_rate) +
            ",\"trace_on_req_per_sec\":" + std::to_string(on_rate) +
            ",\"trace_on_overhead_pct\":" + std::to_string(on_overhead_pct) +
            ",\"trace_off_overhead_pct\":" + std::to_string(off_overhead_pct);
  }
  bench::rule();

  // ---- hit rate & evictions vs. cache budget -------------------------
  {
    std::printf("cache budget sweep (4 threads, 600 requests):\n");
    std::printf("  %-12s %10s %10s %10s %8s\n", "budget", "hit rate",
                "builds", "evictions", "rejects");
    std::size_t repetition = 0;
    for (const std::uint64_t budget :
         {std::uint64_t{64} << 10, std::uint64_t{512} << 10,
          std::uint64_t{8} << 20}) {
      ServiceOptions options;
      options.cache_budget = budget;
      options.workers = 4;
      DeltaService service(store, options);
      obs::Histogram latency;
      // Distinct request stream per repetition (bench_util.hpp).
      run_load(service, releases, 4, 600,
               bench::repetition_seed(0xCAFE, repetition++), latency);
      const ServiceMetrics& m = service.metrics();
      char label[32];
      std::snprintf(label, sizeof label, "%llu KiB",
                    static_cast<unsigned long long>(budget >> 10));
      std::printf("  %-12s %9.1f%% %10llu %10llu %8llu\n", label,
                  100.0 * m.hit_rate(),
                  static_cast<unsigned long long>(m.builds.load()),
                  static_cast<unsigned long long>(m.evictions.load()),
                  static_cast<unsigned long long>(m.rejected_inserts.load()));
    }
  }
  json += "}";
  bench::rule('=');
  std::printf("JSON %s\n", json.c_str());
  return exposition_missing == 0 ? 0 : 1;
}
