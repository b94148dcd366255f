// delta_server_demo — the paper's §1 vendor, at fleet scale.
//
// A publisher evolves one package through 10 releases, stands up the
// delta distribution service (src/server/), and lets a mixed-version
// fleet of 48 simulated devices — stragglers on old releases, most near
// the tip — upgrade to the latest release from 8 concurrent client
// threads. Every device applies its served artifacts in place and
// verifies the result; the service's stats exposition then shows the
// machinery that made it cheap: cache hits, coalesced builds, and the
// route mix (direct delta / per-hop chain / full image).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "server/delta_service.hpp"

using namespace ipd;

int main() {
  // --- publisher: a drifting 10-release history -----------------------
  Rng rng(0x5E12'FEED);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, 96 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 64;
  for (int i = 1; i < 10; ++i) {
    history.push_back(mutate(history.back(), rng, 60, model));
  }
  VersionStore store;
  for (const Bytes& release : history) store.publish(release);
  std::printf("published %zu releases (%zu KiB each)\n",
              store.release_count(), history[0].size() >> 10);

  // --- the service ----------------------------------------------------
  ServiceOptions options;
  options.cache_budget = 16 << 20;
  options.workers = 4;
  DeltaService service(store, options);

  // --- a mixed-version fleet ------------------------------------------
  // Device version skew: most devices track recent releases, a long tail
  // of stragglers sits far behind — the worst case for naive per-request
  // differencing and exactly what the cache + singleflight amortize.
  struct Device {
    ReleaseId at;
    Bytes image;
  };
  std::vector<Device> fleet;
  Rng fleet_rng(42);
  for (int d = 0; d < 48; ++d) {
    const std::uint64_t n = store.release_count() - 1;
    ReleaseId at = static_cast<ReleaseId>(n - 1 - fleet_rng.below(2));
    if (fleet_rng.chance(0.25)) {  // straggler
      at = static_cast<ReleaseId>(fleet_rng.below(n));
    }
    fleet.push_back(Device{at, history[at]});
  }

  const ReleaseId target = store.latest();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t d = next.fetch_add(1);
        if (d >= fleet.size()) return;
        Device& device = fleet[d];
        const ServeResult result = service.serve(device.at, target);
        device.image = apply_served(result, device.image);
        if (device.image == history[target]) ++ok;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::printf("upgraded %zu/%zu devices to release %u\n\n", ok.load(),
              fleet.size(), target);
  std::printf("%s", service.stats_text().c_str());
  return ok.load() == fleet.size() ? 0 : 1;
}
