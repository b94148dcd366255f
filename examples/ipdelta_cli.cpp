// ipdelta — command-line delta tool over the library.
//
//   ipdelta diff  <reference> <version> <delta>  [--in-place]
//                 [--differ greedy|onepass] [--policy constant|localmin|exact]
//                 [--format paper|varint] [--no-write-offsets]
//   ipdelta apply <delta> <reference> <output>
//   ipdelta patch <delta> <file>          # in-place: rewrites <file>
//   ipdelta lint  <delta> [--json]        # static safety verification
//   ipdelta info  <delta>
//   ipdelta serve <releases...>           # delta service over a history
//   ipdelta serve <releases...> --port P  # ... exported over TCP
//   ipdelta fetch <host:port> <image> ... # streaming OTA client
//   ipdelta stats <host:port>             # live Prometheus-style stats
//   ipdelta campaign [--devices N] ...    # fleet-scale OTA simulation
//   ipdelta trace <cmd> [args...]         # run any command traced,
//                                         # write Chrome trace JSON
//
// Exit status: 0 on success, 1 on usage error, 2 on processing error,
// 3 when `lint` found error-severity defects (or a self-check mismatch).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apply/oracle.hpp"
#include "campaign/campaign.hpp"
#include "core/hexdump.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "corpus/workload.hpp"
#include "delta/compose.hpp"
#include "delta/stats.hpp"
#include "inplace/analysis.hpp"
#include "ipdelta.hpp"
#include "net/delta_server.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "server/delta_service.hpp"
#include "store/artifact_store.hpp"
#include "store/store_backed_version_store.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace ipd;

// Defined after every cmd_* so `trace` can re-dispatch the wrapped
// command through the same table main() uses.
int run_command(const std::string& command,
                const std::vector<std::string>& args);

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ipdelta diff  <reference> <version> <delta> [--in-place]\n"
      "                [--differ greedy|onepass|suffix|block]\n"
      "                [--policy constant|localmin|exact|scc]\n"
      "                [--format paper|varint] [--no-write-offsets]\n"
      "                [--compress] [--jobs N]     # N=0: all cores\n"
      "  ipdelta apply <delta> <reference> <output>\n"
      "  ipdelta patch <delta> <file>\n"
      "  ipdelta verify <delta> <reference>\n"
      "  ipdelta lint  <delta> [--json] [--require-in-place]\n"
      "  ipdelta lint  --self-check [--seed S]    # verifier vs oracle\n"
      "  ipdelta compose <deltaAB> <deltaBC> <deltaAC>\n"
      "  ipdelta info  <delta> [--deep]\n"
      "  ipdelta serve <release files, oldest first...>\n"
      "                [--requests N] [--threads T] [--budget BYTES]\n"
      "                [--seed S]\n"
      "                [--port P [--sessions N]]   # export over TCP;\n"
      "                                            # runs until stdin closes\n"
      "                [--trace-out FILE]  # per-request tracing on; write\n"
      "                                    # Chrome trace JSON at shutdown\n"
      "                [--stall-ms MS]     # watchdog deadline per transfer\n"
      "  ipdelta serve --store-dir DIR [more release files...]\n"
      "                # serve a durable on-disk store (files, if any,\n"
      "                # are published first); stored chain deltas are\n"
      "                # preloaded into the cache\n"
      "  ipdelta store init <dir>\n"
      "  ipdelta store publish <dir> <release files, oldest first...>\n"
      "  ipdelta store list <dir>         # releases, chains, recovery\n"
      "  ipdelta store gc <dir>           # drop superseded artifacts\n"
      "  ipdelta store check <dir>        # deep integrity check\n"
      "  ipdelta fetch <host:port> <image file> --to B\n"
      "                [--from A] [--out FILE] [--chunk BYTES] [--verbose]\n"
      "                [--stall-ms MS]     # watchdog deadline per transfer\n"
      "  ipdelta stats <host:port>        # Prometheus-style live stats\n"
      "  ipdelta campaign [--devices N] [--releases N] [--seed S]\n"
      "                [--image-bytes B] [--drop R] [--truncate R]\n"
      "                [--flip R] [--grace N] [--power-cuts R]\n"
      "                [--max-cuts N] [--staged R] [--waves F,F,...]\n"
      "                [--concurrency N] [--attempts N] [--json]\n"
      "                [--slo [--slo-target R] [--slo-p99-ms MS]\n"
      "                 --slo-burn R] [--slo-min-attempts N]\n"
      "                # simulate a staged fleet rollout in-process;\n"
      "                # exit 2 if any device bricked or the ramp aborted\n"
      "                # (--slo: abort on error-budget burn / p99 breach)\n"
      "  ipdelta trace <command> [args...] [--trace-out FILE]\n"
      "                [--trace-pid N]\n"
      "                # run any command with stage tracing enabled and\n"
      "                # write Chrome trace-event JSON (default trace.json)\n"
      "  ipdelta trace --merge <trace.json...> [--trace-out FILE]\n"
      "                # merge per-process traces into one cross-process\n"
      "                # timeline (pid lane per input, flow arrows join\n"
      "                # spans sharing a trace id); also validates inputs\n");
  return 1;
}

/// Split "<host>:<port>" (or a bare port, meaning localhost) and
/// validate the port range.
void parse_endpoint(const std::string& endpoint, std::string* host,
                    std::uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  *host = colon == std::string::npos ? "127.0.0.1" : endpoint.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
  try {
    std::size_t used = 0;
    const std::uint64_t n = std::stoull(port_text, &used);
    if (used != port_text.size() || n == 0 || n > 65535) {
      throw std::invalid_argument(port_text);
    }
    *port = static_cast<std::uint16_t>(n);
  } catch (const std::exception&) {
    throw Error("bad endpoint (want host:port): " + endpoint);
  }
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  bool in_place = false;
  bool write_offsets = true;
  PipelineOptions options;
  for (std::size_t i = 3; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error("missing value for " + a);
      return args[++i];
    };
    if (a == "--in-place") {
      in_place = true;
    } else if (a == "--compress") {
      options.compress_payload = true;
    } else if (a == "--no-write-offsets") {
      write_offsets = false;
    } else if (a == "--differ") {
      const std::string& v = next();
      if (v == "greedy") options.differ = DifferKind::kGreedy;
      else if (v == "onepass") options.differ = DifferKind::kOnePass;
      else if (v == "suffix") options.differ = DifferKind::kSuffixGreedy;
      else if (v == "block") options.differ = DifferKind::kBlockAligned;
      else throw Error("unknown differ: " + v);
    } else if (a == "--policy") {
      const std::string& v = next();
      if (v == "constant") options.convert.policy = BreakPolicy::kConstantTime;
      else if (v == "localmin") options.convert.policy = BreakPolicy::kLocalMin;
      else if (v == "exact") options.convert.policy = BreakPolicy::kExactOptimal;
      else if (v == "scc") options.convert.policy = BreakPolicy::kSccGlobalMin;
      else throw Error("unknown policy: " + v);
    } else if (a == "--format") {
      const std::string& v = next();
      if (v == "paper") options.format.codeword = Codeword::kPaperByte;
      else if (v == "varint") options.format.codeword = Codeword::kVarint;
      else throw Error("unknown format: " + v);
    } else if (a == "--jobs") {
      options.parallelism = std::stoull(next());
    } else {
      throw Error("unknown option: " + a);
    }
  }
  options.format.offsets =
      write_offsets ? WriteOffsets::kExplicit : WriteOffsets::kImplicit;

  const Bytes reference = read_file(args[0]);
  const Bytes version = read_file(args[1]);

  const Pipeline pipeline(options);
  const BuildResult result = in_place ? pipeline.build_inplace(reference, version)
                                      : pipeline.build_delta(reference, version);
  if (in_place) {
    const ConvertReport& report = result.report;
    std::printf(
        "in-place delta: %zu commands in, %zu cycles broken, %zu copies "
        "converted (%llu bytes of compression given up)\n",
        report.copies_in + report.adds_in, report.cycles_found,
        report.copies_converted,
        static_cast<unsigned long long>(report.conversion_cost));
  }
  if (result.timing.diff_segments > 1) {
    std::printf("built on %zu segments (%zu-way), %.1f ms diff\n",
                result.timing.diff_segments, pipeline.parallelism(),
                static_cast<double>(result.timing.diff_ns) / 1e6);
  }
  const Bytes& delta = result.delta;
  write_file(args[2], delta);
  std::printf("%s -> %s: %zu bytes (%s of version)\n", args[0].c_str(),
              args[2].c_str(), delta.size(),
              format_percent(version.empty()
                                 ? 0.0
                                 : 100.0 * static_cast<double>(delta.size()) /
                                       static_cast<double>(version.size()))
                  .c_str());
  return 0;
}

int cmd_apply(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  const Bytes delta = read_file(args[0]);
  const Bytes reference = read_file(args[1]);
  const Bytes version = apply_delta(delta, reference);
  write_file(args[2], version);
  std::printf("reconstructed %zu bytes into %s (CRC verified)\n",
              version.size(), args[2].c_str());
  return 0;
}

int cmd_patch(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const Bytes delta = read_file(args[0]);
  const DeltaHeader header = parse_delta(delta).header;
  Bytes buffer = read_file(args[1]);
  if (buffer.size() != header.reference_length) {
    throw Error("file size does not match the delta's reference length");
  }
  buffer.resize(std::max<std::size_t>(header.reference_length,
                                      header.version_length));
  const length_t new_len = apply_delta_inplace(delta, buffer);
  buffer.resize(static_cast<std::size_t>(new_len));
  write_file(args[1], buffer);
  std::printf("patched %s in place: now %llu bytes (CRC verified)\n",
              args[1].c_str(), static_cast<unsigned long long>(new_len));
  return 0;
}

int cmd_compose(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  const Bytes first = read_file(args[0]);
  const Bytes second = read_file(args[1]);
  const ParsedDelta d1 = parse_delta(first);
  const ParsedDelta d2 = parse_delta(second);
  if (d1.header.version_length != d2.header.reference_length) {
    throw Error("deltas do not chain: first produces " +
                std::to_string(d1.header.version_length) +
                " bytes, second expects " +
                std::to_string(d2.header.reference_length));
  }
  ComposeReport report;
  const Script script = compose_scripts(d1.commands, d2.commands, &report);
  DeltaHeader out;
  out.format = kVarintExplicit;
  out.in_place = satisfies_equation2(script);
  out.reference_length = d1.header.reference_length;
  out.version_length = d2.header.version_length;
  out.version_crc = d2.header.version_crc;
  out.compress_payload =
      d1.header.compress_payload || d2.header.compress_payload;
  const Bytes wire = serialize_delta(out, script.commands());
  write_file(args[2], wire);
  std::printf(
      "composed %s o %s -> %s: %zu bytes, %zu commands (%llu literal "
      "bytes)%s\n",
      args[1].c_str(), args[0].c_str(), args[2].c_str(), wire.size(),
      script.size(),
      static_cast<unsigned long long>(report.literal_bytes),
      out.in_place ? ", in-place safe" : "");
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const Bytes delta = read_file(args[0]);
  const Bytes reference = read_file(args[1]);
  // The static checks, then a scratch reconstruction for what only the
  // reference can show: its length and the version CRC.
  const Report report = Verifier().check(delta);
  if (!report.ok()) {
    std::printf("FAIL: %s\n", report.first_error().c_str());
    return 2;
  }
  Bytes version;
  try {
    version = apply_delta(delta, reference);
  } catch (const Error& e) {
    std::printf("FAIL: %s\n", e.what());
    return 2;
  }
  // A clean report on a delta flagged in-place means Equation 2 holds.
  std::printf("OK: reconstructs %zu bytes%s\n", version.size(),
              report.header->in_place ? " (in-place capable)" : "");
  return 0;
}

/// Differential self-check: for every corpus pair and a spread of
/// pipeline configurations, the static verifier's verdict must agree
/// with the dynamic ground truth — the scratch-space appliers and the
/// conflict oracle. Any disagreement is a bug in one of them.
int lint_self_check(std::uint64_t seed) {
  struct Config {
    const char* name;
    bool in_place;
    DeltaFormat format;
    bool compress;
  };
  const Config configs[] = {
      {"scratch/paper", false, kPaperSequential, false},
      {"scratch/varint", false, kVarintSequential, false},
      {"inplace/paper", true, kPaperExplicit, false},
      {"inplace/varint", true, kVarintExplicit, false},
      {"inplace/varint+lzss", true, kVarintExplicit, true},
  };

  std::size_t checked = 0, disagreements = 0;
  const Verifier verifier;
  for (const VersionPair& pair : small_corpus(seed)) {
    for (const Config& config : configs) {
      PipelineOptions options;
      options.format = config.format;
      options.compress_payload = config.compress;
      const Pipeline pipeline(options);
      const Bytes delta =
          config.in_place
              ? pipeline.build_inplace(pair.reference, pair.version).delta
              : pipeline.build_delta(pair.reference, pair.version).delta;

      const Report report = verifier.check(delta);
      const ConflictAnalysis oracle =
          analyze_conflicts(Script(parse_delta(delta)));
      const Bytes applied = apply_delta(delta, pair.reference);

      std::string complaint;
      if (!report.well_formed || !report.ok()) {
        complaint = "verifier rejected pipeline output";
      } else if (report.in_place_safe != oracle.in_place_safe()) {
        complaint = "verifier and conflict oracle disagree on in-place "
                    "safety";
      } else if (applied != pair.version) {
        complaint = "applier did not reproduce the version";
      } else if (config.in_place && !report.in_place_safe) {
        complaint = "converter output not in-place safe";
      }
      ++checked;
      if (!complaint.empty()) {
        ++disagreements;
        std::printf("DISAGREE %s %s: %s\n", pair.name.c_str(), config.name,
                    complaint.c_str());
        for (const Finding& f : report.findings) {
          std::printf("  %s [%s] %s\n", severity_name(f.severity),
                      check_name(f.check), f.message.c_str());
        }
      }
    }
  }
  std::printf("self-check: %zu delta(s), %zu disagreement(s)\n", checked,
              disagreements);
  return disagreements == 0 ? 0 : 3;
}

int cmd_lint(const std::vector<std::string>& args) {
  bool json = false;
  bool self_check = false;
  VerifyOptions options;
  std::uint64_t seed = 7;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--require-in-place") {
      options.require_in_place = true;
    } else if (a == "--self-check") {
      self_check = true;
    } else if (a == "--seed") {
      if (i + 1 >= args.size()) return usage();
      seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      positional.push_back(a);
    }
  }
  if (self_check) {
    if (!positional.empty()) return usage();
    return lint_self_check(seed);
  }
  if (positional.size() != 1) return usage();

  const Bytes delta = read_file(positional[0]);
  const Report report = Verifier(options).check(delta);
  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
  }
  return report.ok() ? 0 : 3;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  bool deep = false;
  if (args.size() == 2) {
    if (args[1] != "--deep") return usage();
    deep = true;
  }
  const Bytes delta = read_file(args[0]);
  const ParsedDelta parsed = parse_delta(delta);
  const DeltaHeader& header = parsed.header;
  const Script script(parsed.commands);
  const ScriptSummary sum = script.summary();
  std::printf(
      "%s\n"
      "  format:            %s\n"
      "  in-place safe:     %s\n"
      "  payload lzss:      %s\n"
      "  reference length:  %llu\n"
      "  version length:    %llu\n"
      "  version crc32c:    %08x\n"
      "  commands:          %zu copies (%llu bytes), %zu adds (%llu bytes)\n"
      "  delta size:        %zu bytes (%s of version)\n",
      args[0].c_str(), format_name(header.format),
      header.in_place ? "yes" : "no",
      header.compress_payload ? "yes" : "no",
      static_cast<unsigned long long>(header.reference_length),
      static_cast<unsigned long long>(header.version_length),
      header.version_crc, sum.copy_count,
      static_cast<unsigned long long>(sum.copied_bytes), sum.add_count,
      static_cast<unsigned long long>(sum.added_bytes), delta.size(),
      format_percent(header.version_length == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(delta.size()) /
                               static_cast<double>(header.version_length))
          .c_str());
  std::printf("  first commands:\n%s", script.to_text(10).c_str());
  if (deep) {
    std::printf("\nstructural analysis:\n%s",
                render_analysis(analyze_delta(script, header.reference_length))
                    .c_str());
  }
  return 0;
}

// Stand up a DeltaService over the given release history and replay a
// mixed-version fleet against it from `--threads` client threads: every
// request picks a random (older, newer) pair, is served, applied to the
// old body, and verified against the new one. Prints the service's stats
// exposition — the smallest end-to-end exercise of src/server/.
int cmd_serve(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::size_t requests = 32;
  std::size_t threads = 4;
  std::uint64_t budget = 64ull << 20;
  std::uint64_t seed = 1;
  std::uint64_t port = 0;
  bool port_set = false;
  std::uint64_t sessions = 32;
  std::uint64_t stall_ms = 0;
  std::string store_dir;
  std::string trace_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error("missing value for " + a);
      return args[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string& value = next();
      try {
        std::size_t used = 0;
        const std::uint64_t n = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return n;
      } catch (const std::exception&) {
        throw Error("expected a number for " + a + ", got: " + value);
      }
    };
    if (a == "--store-dir") {
      store_dir = next();
    } else if (a == "--requests") {
      requests = number();
    } else if (a == "--threads") {
      threads = number();
    } else if (a == "--budget") {
      budget = number();
    } else if (a == "--seed") {
      seed = number();
    } else if (a == "--port") {
      port = number();
      port_set = true;
      if (port > 65535) throw Error("--port out of range");
    } else if (a == "--sessions") {
      sessions = number();
    } else if (a == "--stall-ms") {
      stall_ms = number();
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (!a.empty() && a[0] == '-') {
      throw Error("unknown option: " + a);
    } else {
      files.push_back(a);
    }
  }
  if ((store_dir.empty() && files.size() < 2) || requests == 0 ||
      threads == 0) {
    return usage();
  }

  // Either the in-memory embedded history (non-durable; gone at exit) or
  // a durable on-disk artifact store behind the same interface.
  std::shared_ptr<ArtifactStore> artifacts;
  std::unique_ptr<VersionStore> owned_store;
  if (store_dir.empty()) {
    owned_store = std::make_unique<VersionStore>();
  } else {
    artifacts = std::make_shared<ArtifactStore>(store_dir);
    owned_store = std::make_unique<StoreBackedVersionStore>(artifacts);
  }
  VersionStore& store = *owned_store;
  for (const std::string& file : files) {
    store.publish(read_file(file));
  }
  if (store.release_count() < 2) {
    throw Error("serve: need at least 2 releases (store has " +
                std::to_string(store.release_count()) + ")");
  }
  ServiceOptions options;
  options.cache_budget = budget;
  DeltaService service(store, options);
  if (artifacts) {
    const std::size_t warmed = preload_stored_edges(*artifacts, service);
    std::printf("store: %zu releases from %s, %zu chain deltas preloaded\n",
                store.release_count(), store_dir.c_str(), warmed);
  }

  if (port_set) {
    // Export the service over TCP (src/net/) instead of replaying a
    // synthetic fleet. Release ids are the publish order of the files.
    if (!trace_out.empty()) {
      // Per-request tracing for the whole server lifetime, exported at
      // shutdown. pid lane 2 so a client's own export (lane 1) and this
      // file merge into distinct lanes even before `trace --merge`
      // re-lanes them.
      obs::set_trace_pid(2);
      obs::clear_trace_events();
      obs::set_tracing(true);
    }
    ServerConfig net;
    net.port = static_cast<std::uint16_t>(port);
    net.max_connections = static_cast<std::size_t>(sessions);
    net.stall_deadline_ms = stall_ms;
    DeltaServer server(service, net);
    server.start();
    std::printf("serving %zu releases on 127.0.0.1:%u "
                "(close stdin to stop)\n",
                store.release_count(), server.port());
    std::fflush(stdout);
    // Periodic one-line stats heartbeat while the server runs, so an
    // operator tailing the log sees load and latency without polling
    // `ipdelta stats`.
    std::mutex ticker_mutex;
    std::condition_variable ticker_cv;
    bool ticker_stop = false;
    std::thread ticker([&] {
      std::unique_lock<std::mutex> lock(ticker_mutex);
      while (!ticker_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return ticker_stop; })) {
        const ServiceMetrics& m = service.metrics();
        const obs::HistogramSnapshot serve_lat =
            service.histograms().serve_ns.snapshot();
        std::printf(
            "stats: %llu requests (%.0f%% cache hits), %llu wire bytes, "
            "serve %s\n",
            static_cast<unsigned long long>(
                m.requests.load(std::memory_order_relaxed)),
            100.0 * m.hit_rate(),
            static_cast<unsigned long long>(
                m.net_bytes_sent.load(std::memory_order_relaxed)),
            serve_lat.latency_line().c_str());
        std::fflush(stdout);
      }
    });
    for (int c; (c = std::getchar()) != EOF;) {
    }
    {
      const std::lock_guard<std::mutex> lock(ticker_mutex);
      ticker_stop = true;
    }
    ticker_cv.notify_all();
    ticker.join();
    server.stop();
    if (!trace_out.empty()) {
      obs::set_tracing(false);
      const std::string json = obs::trace_events_json();
      write_file(trace_out, Bytes(json.begin(), json.end()));
      std::printf("trace: %zu span(s) -> %s\n", obs::trace_event_count(),
                  trace_out.c_str());
    }
    std::printf("%s", service.stats_text().c_str());
    if (artifacts) std::printf("%s", artifacts->stats_text().c_str());
    const std::string events = obs::global_events().dump();
    if (!events.empty()) {
      std::printf("recent events:\n%s", events.c_str());
    }
    return 0;
  }

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    // Thread 0 absorbs the remainder so exactly `requests` are issued.
    const std::size_t quota =
        requests / threads + (t == 0 ? requests % threads : 0);
    clients.emplace_back([&, t, quota] {
      Rng rng(seed + t);
      const std::size_t n = store.release_count();
      for (std::size_t i = 0; i < quota; ++i) {
        const auto from = static_cast<ReleaseId>(rng.below(n - 1));
        const auto to =
            from + 1 + static_cast<ReleaseId>(rng.below(n - 1 - from));
        try {
          const ServeResult result = service.serve(from, to);
          const Bytes rebuilt = apply_served(result, *store.body(from));
          if (rebuilt != *store.body(to)) ++failures;
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::printf("%s", service.stats_text().c_str());
  if (artifacts) std::printf("%s", artifacts->stats_text().c_str());
  if (failures.load() != 0) {
    std::printf("serve: %llu of %zu reconstructions FAILED\n",
                static_cast<unsigned long long>(failures.load()), requests);
    return 2;
  }
  std::printf("serve: %zu releases, %zu requests, %zu threads — "
              "all reconstructions verified\n",
              store.release_count(), requests, threads);
  return 0;
}

// Durable artifact-store administration: init/publish/list/gc/check over
// a store directory (src/store/). `publish` appends releases through the
// chain policy exactly as `serve --store-dir` would; `list` is the
// operator's view of the chain layout and of what recovery found.
int cmd_store(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string& verb = args[0];
  const std::string& dir = args[1];

  if (verb == "init") {
    ArtifactStore::init(dir);
    std::printf("store: initialized empty store in %s\n", dir.c_str());
    return 0;
  }

  if (verb == "publish") {
    if (args.size() < 3) return usage();
    ArtifactStore store(dir);
    for (std::size_t i = 2; i < args.size(); ++i) {
      Bytes body = read_file(args[i]);
      const std::uint64_t body_bytes = body.size();
      const ReleaseId id = store.publish(std::move(body));
      const StoredRelease rel = store.record(id);
      std::printf(
          "store: release %u  %-8s  %llu bytes stored (%.1f%% of body)"
          "  chain %zu\n",
          id, rel.kind == StoredKind::kBaseline ? "baseline" : "delta",
          static_cast<unsigned long long>(rel.stored_bytes),
          body_bytes == 0 ? 100.0 : 100.0 * rel.stored_bytes / body_bytes,
          store.chain_stats(id).chain_length);
    }
    return 0;
  }

  if (verb == "list") {
    ArtifactStore store(dir);
    const RecoveryReport& rec = store.recovery();
    std::printf("store: %zu releases in %s (%llu segment bytes)\n",
                store.release_count(), dir.c_str(),
                static_cast<unsigned long long>(store.segment_bytes()));
    // What this open recovered from disk. The store's counters are not
    // printed: they count only this process's work, so a listing would
    // read zero publishes however many other processes made.
    std::printf(
        "recovery: %zu releases, %zu manifest records, dropped %llu torn "
        "manifest bytes, %llu orphan segment bytes\n",
        rec.releases, rec.manifest_records,
        static_cast<unsigned long long>(rec.manifest_bytes_dropped),
        static_cast<unsigned long long>(rec.segment_orphan_bytes));
    for (const StoredRelease& rel : store.releases()) {
      if (rel.kind == StoredKind::kBaseline) {
        std::printf("  %4u  baseline  %10llu bytes  crc %08x\n", rel.id,
                    static_cast<unsigned long long>(rel.stored_bytes),
                    rel.key.crc);
      } else {
        std::printf(
            "  %4u  delta <- %-4u %7llu bytes  crc %08x  chain %zu\n",
            rel.id, rel.base,
            static_cast<unsigned long long>(rel.stored_bytes), rel.key.crc,
            store.chain_stats(rel.id).chain_length);
      }
    }
    return 0;
  }

  if (verb == "gc") {
    ArtifactStore store(dir);
    const std::uint64_t reclaimed = store.gc();
    std::printf("store: gc reclaimed %llu bytes (%llu segment bytes live)\n",
                static_cast<unsigned long long>(reclaimed),
                static_cast<unsigned long long>(store.segment_bytes()));
    return 0;
  }

  if (verb == "check") {
    ArtifactStore store(dir);
    store.check();
    std::printf("store: %zu releases verified clean\n",
                store.release_count());
    return 0;
  }

  std::fprintf(stderr, "unknown store verb: %s\n", verb.c_str());
  return usage();
}

// Streaming OTA client against a `serve --port` endpoint: upgrade a
// local image file release A -> B over TCP, applying each hop's delta
// in place as it arrives (peak RAM: one command).
int cmd_fetch(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  ReleaseId from = 0;
  ReleaseId to = 0;
  bool to_set = false;
  bool verbose = false;
  std::string out;
  std::uint64_t chunk = 64u << 10;
  std::uint64_t stall_ms = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error("missing value for " + a);
      return args[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string& value = next();
      try {
        std::size_t used = 0;
        const std::uint64_t n = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return n;
      } catch (const std::exception&) {
        throw Error("expected a number for " + a + ", got: " + value);
      }
    };
    if (a == "--from") {
      from = static_cast<ReleaseId>(number());
    } else if (a == "--to") {
      to = static_cast<ReleaseId>(number());
      to_set = true;
    } else if (a == "--out") {
      out = next();
    } else if (a == "--chunk") {
      chunk = number();
    } else if (a == "--stall-ms") {
      stall_ms = number();
    } else if (a == "--verbose") {
      verbose = true;
    } else if (!a.empty() && a[0] == '-') {
      throw Error("unknown option: " + a);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.empty()) return usage();

  const std::string& endpoint = positional[0];
  std::string host;
  std::uint16_t port = 0;
  parse_endpoint(endpoint, &host, &port);

  OtaClientOptions client_options;
  client_options.max_chunk = static_cast<std::uint32_t>(chunk);
  client_options.stall_deadline_ms = stall_ms;
  OtaClient client(
      [host, port] { return TcpTransport::connect(host, port); },
      client_options);

  if (positional.size() != 2 || !to_set) return usage();
  const std::string& image_file = positional[1];
  Bytes image = read_file(image_file);
  const OtaReport report = client.update_streaming(image, from, to);
  const std::string& dest = out.empty() ? image_file : out;
  write_file(dest, image);
  std::printf("%s: release %u -> %u in %zu hop%s (%llu wire bytes, "
              "%zu retr%s) -> %s (%zu bytes)\n",
              endpoint.c_str(), from, report.final_release, report.hops,
              report.hops == 1 ? "" : "s",
              static_cast<unsigned long long>(report.bytes_received),
              report.retries, report.retries == 1 ? "y" : "ies",
              dest.c_str(), image.size());
  if (verbose) {
    std::printf("  session: %zu retries, %zu resumes, %.1f ms in backoff\n",
                report.retries, report.resumes,
                static_cast<double>(report.backoff_ns) / 1e6);
    const std::string events = obs::global_events().dump();
    if (!events.empty()) {
      std::printf("  client events:\n%s", events.c_str());
    }
  }
  return 0;
}

// Poll a running `serve --port` endpoint for its Prometheus-style stats
// exposition: every ServiceMetrics counter, the latency/size histogram
// quantiles, cache gauges and per-stage pipeline time.
int cmd_stats(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  std::string host;
  std::uint16_t port = 0;
  parse_endpoint(args[0], &host, &port);
  OtaClient client(
      [host, port] { return TcpTransport::connect(host, port); });
  std::printf("%s", client.fetch_stats().c_str());
  return 0;
}

// Fleet-scale OTA campaign simulation (src/campaign/): publish a seeded
// release history, drive a fleet of simulated flash devices through the
// wire protocol over fault-injected in-memory links with power cuts at
// arbitrary apply offsets, and report the rollout outcome. The exit
// status encodes the two operator-facing disasters: a bricked device or
// an aborted ramp is exit 2.
int cmd_campaign(const std::vector<std::string>& args) {
  CampaignOptions options;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error("missing value for " + a);
      return args[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string& value = next();
      try {
        std::size_t used = 0;
        const std::uint64_t n = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return n;
      } catch (const std::exception&) {
        throw Error("expected a number for " + a + ", got: " + value);
      }
    };
    const auto rate = [&]() -> double {
      const std::string& value = next();
      try {
        std::size_t used = 0;
        const double r = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return r;
      } catch (const std::exception&) {
        throw Error("expected a rate for " + a + ", got: " + value);
      }
    };
    if (a == "--devices") {
      options.devices = static_cast<std::size_t>(number());
    } else if (a == "--releases") {
      options.releases = static_cast<std::size_t>(number());
    } else if (a == "--seed") {
      options.seed = number();
    } else if (a == "--image-bytes") {
      options.image_bytes = static_cast<length_t>(number());
    } else if (a == "--drop") {
      options.drop_rate = rate();
    } else if (a == "--truncate") {
      options.truncate_rate = rate();
    } else if (a == "--flip") {
      options.flip_rate = rate();
    } else if (a == "--grace") {
      options.grace_ops = static_cast<std::size_t>(number());
    } else if (a == "--power-cuts") {
      options.power_cut_rate = rate();
    } else if (a == "--max-cuts") {
      options.max_power_cuts = static_cast<std::size_t>(number());
    } else if (a == "--staged") {
      options.staged_fraction = rate();
    } else if (a == "--waves") {
      options.rollout.waves.clear();
      const std::string list = next();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string part = list.substr(pos, comma - pos);
        try {
          std::size_t used = 0;
          const double f = std::stod(part, &used);
          if (used != part.size()) throw std::invalid_argument(part);
          options.rollout.waves.push_back(f);
        } catch (const std::exception&) {
          throw Error("bad wave fraction in --waves: " + part);
        }
        pos = comma + 1;
      }
    } else if (a == "--concurrency") {
      options.rollout.max_concurrency = static_cast<std::size_t>(number());
    } else if (a == "--attempts") {
      options.client.max_attempts = static_cast<std::size_t>(number());
    } else if (a == "--slo") {
      options.slo.enabled = true;
    } else if (a == "--slo-target") {
      options.slo.enabled = true;
      options.slo.target_success_rate = rate();
    } else if (a == "--slo-p99-ms") {
      options.slo.enabled = true;
      options.slo.p99_latency_budget_ns = number() * 1'000'000;
    } else if (a == "--slo-burn") {
      options.slo.enabled = true;
      options.slo.max_burn_rate = rate();
    } else if (a == "--slo-min-attempts") {
      options.slo.min_attempts = static_cast<std::size_t>(number());
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown option: " + a);
    }
  }

  const CampaignReport report = run_campaign(options);
  if (json) {
    std::printf("%s\n", report.json().c_str());
  } else {
    std::printf("%s", report.render().c_str());
  }
  return report.bricked != 0 || report.aborted ? 2 : 0;
}

// Run any other command with stage tracing enabled and export the
// captured spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto, speedscope). The wrapped command's exit status is preserved.
// With --merge, instead fold several per-process trace files into one
// cross-process timeline (obs/trace_merge): a pid lane per input, flow
// arrows joining spans that share a trace id. Malformed input JSON is a
// hard error, so --merge doubles as a trace validator.
int cmd_trace(const std::vector<std::string>& args) {
  std::string trace_out;
  bool merge = false;
  std::uint64_t pid = 0;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace-out") {
      if (i + 1 >= args.size()) throw Error("missing value for --trace-out");
      trace_out = args[++i];
    } else if (args[i] == "--merge") {
      merge = true;
    } else if (args[i] == "--trace-pid") {
      if (i + 1 >= args.size()) throw Error("missing value for --trace-pid");
      pid = std::strtoull(args[++i].c_str(), nullptr, 10);
      if (pid == 0) throw Error("--trace-pid must be >= 1");
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.empty()) return usage();

  if (merge) {
    std::vector<obs::NamedTrace> inputs;
    for (const std::string& file : rest) {
      const Bytes body = read_file(file);
      // Lane label: the file's basename, sans .json — "client.json"
      // becomes lane "client" in the merged view.
      std::string name = file;
      const std::size_t slash = name.find_last_of('/');
      if (slash != std::string::npos) name.erase(0, slash + 1);
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        name.erase(name.size() - 5);
      }
      inputs.push_back(obs::NamedTrace{name, std::string(body.begin(),
                                                         body.end())});
    }
    obs::MergeStats stats;
    const std::string merged = obs::merge_traces(inputs, &stats);
    if (trace_out.empty()) trace_out = "merged.json";
    write_file(trace_out, Bytes(merged.begin(), merged.end()));
    std::printf("merged %zu trace(s): %zu event(s), %zu flow arrow(s), "
                "%zu trace id(s) joined -> %s\n",
                stats.processes, stats.events, stats.flow_events,
                stats.traces_joined, trace_out.c_str());
    return 0;
  }

  const std::string inner = rest.front();
  if (inner == "trace") throw Error("trace: cannot trace itself");
  rest.erase(rest.begin());

  if (pid != 0) obs::set_trace_pid(static_cast<std::uint32_t>(pid));
  obs::clear_trace_events();
  obs::set_tracing(true);
  const int rc = run_command(inner, rest);
  obs::set_tracing(false);
  const std::string json = obs::trace_events_json();
  if (trace_out.empty()) trace_out = "trace.json";
  write_file(trace_out, Bytes(json.begin(), json.end()));
  std::fprintf(stderr, "trace: %zu span(s) -> %s\n", obs::trace_event_count(),
               trace_out.c_str());
  return rc;
}

int run_command(const std::string& command,
                const std::vector<std::string>& args) {
  if (command == "diff") return cmd_diff(args);
  if (command == "apply") return cmd_apply(args);
  if (command == "patch") return cmd_patch(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "lint") return cmd_lint(args);
  if (command == "compose") return cmd_compose(args);
  if (command == "info") return cmd_info(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "store") return cmd_store(args);
  if (command == "fetch") return cmd_fetch(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "campaign") return cmd_campaign(args);
  if (command == "trace") return cmd_trace(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    return run_command(command, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipdelta: %s\n", e.what());
    // Crash-path flight record: whatever notable events led up to the
    // failure (verify rejects, net errors, poisoned journals).
    const std::string events = obs::global_events().dump();
    if (!events.empty()) {
      std::fprintf(stderr, "recent events:\n%s", events.c_str());
    }
    // Per-session flight recorders dumped on the way down: print each
    // failed session's timeline, keyed by trace id, so one bad device's
    // story survives the process.
    for (const obs::FlightDump& dump : obs::flight_dumps()) {
      std::fprintf(stderr, "flight record [%s] %s (%s):\n%s",
                   dump.trace_id.empty() ? "untraced" : dump.trace_id.c_str(),
                   dump.label.c_str(), dump.reason.c_str(),
                   dump.text.c_str());
    }
    return 2;
  }
}
