// ota_over_tcp — the whole distribution story on one machine.
//
// A publisher stands up a DeltaServer on a localhost TCP port over a
// 6-release firmware history. A fleet of straggler devices — every one
// starting from a different old release, and every one behind a
// deliberately unreliable link (drops, truncations, bit flips) — streams
// its way to the latest release. Each hop's delta is applied in place
// while it downloads (peak RAM: one command), every fault is absorbed by
// reconnect + RESUME at the exact byte already applied, and every device
// ends bit-identical to the published release.
//
// Run:  ./examples/ota_over_tcp
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "net/delta_server.hpp"
#include "net/faulty_transport.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "server/delta_service.hpp"

int main() {
  using namespace ipd;

  // --- publisher: 6 releases of evolving firmware -----------------------
  Rng rng(0x07A7C9);
  std::vector<Bytes> releases;
  releases.push_back(generate_file(rng, 96 << 10, FileProfile::kBinary));
  for (int r = 1; r < 6; ++r) {
    releases.push_back(mutate(releases.back(), rng, 40));
  }
  VersionStore store;
  for (const Bytes& release : releases) store.publish(release);

  DeltaService service(store, ServiceOptions{});
  DeltaServer server(service, ServerConfig{});
  try {
    server.start();
  } catch (const TransportError& e) {
    std::printf("no localhost sockets available (%s) — nothing to demo\n",
                e.what());
    return 0;
  }
  const std::uint16_t port = server.port();
  std::printf("publisher: %zu releases of %zu KiB firmware on "
              "127.0.0.1:%u\n\n",
              releases.size(), releases[0].size() >> 10, port);

  // --- the straggler fleet, each behind a bad link ----------------------
  const auto latest = static_cast<ReleaseId>(releases.size() - 1);
  FaultStats faults_seen;
  struct Outcome {
    ReleaseId start = 0;
    OtaReport report;
    bool ok = false;
  };
  std::vector<Outcome> outcomes(5);
  std::vector<std::thread> fleet;
  for (std::size_t d = 0; d < outcomes.size(); ++d) {
    fleet.emplace_back([&, d] {
      const auto start = static_cast<ReleaseId>(d % latest);
      outcomes[d].start = start;
      Bytes image = releases[start];

      std::uint64_t attempt = 0;
      OtaClientOptions options;
      options.max_chunk = 1u << 10;  // small frames: more fault exposure
      options.max_attempts = 64;
      options.backoff_initial_ms = 1;
      options.backoff_max_ms = 20;
      OtaClient client(
          [&, d]() -> std::unique_ptr<Transport> {
            FaultOptions faults;
            faults.seed = 0xD00D + 100 * d + attempt;
            if (attempt == 0) {
              // First connection always dies mid-transfer: every device
              // demonstrably exercises the retry + RESUME path.
              faults.kill_after_bytes = 700 + 150 * d;
            } else {
              faults.drop_rate = 0.08;
              faults.truncate_rate = 0.08;
              faults.flip_rate = 0.08;
              faults.grace_ops = 2;  // only the HELLO gets a free pass
            }
            ++attempt;
            return std::make_unique<FaultyTransport>(
                TcpTransport::connect("127.0.0.1", port), faults,
                &faults_seen);
          },
          options);
      outcomes[d].report = client.update_streaming(image, start, latest);
      outcomes[d].ok = image == releases[latest];
    });
  }
  for (std::thread& t : fleet) t.join();
  server.stop();

  std::printf("device  from  hops  retries  resumes  wire KiB  verified\n");
  bool all_ok = true;
  for (std::size_t d = 0; d < outcomes.size(); ++d) {
    const Outcome& o = outcomes[d];
    std::printf("  %-5zu  %-4u  %-4zu  %-7zu  %-7zu  %-8llu  %s\n", d,
                o.start, o.report.hops, o.report.retries, o.report.resumes,
                static_cast<unsigned long long>(o.report.bytes_received >> 10),
                o.ok ? "bit-identical" : "MISMATCH");
    all_ok = all_ok && o.ok;
  }
  std::printf("\nlink faults injected: %llu drops, %llu truncations, "
              "%llu bit flips — all absorbed\n",
              static_cast<unsigned long long>(faults_seen.drops.load()),
              static_cast<unsigned long long>(faults_seen.truncations.load()),
              static_cast<unsigned long long>(faults_seen.flips.load()));
  std::printf("\nserver metrics:\n%s", service.stats_text().c_str());
  return all_ok ? 0 : 1;
}
