// fleet_upgrade — a publisher upgrading a fleet of devices scattered
// across a release history.
//
// The server holds releases v0..v7 of a firmware. Devices check in
// running anything from v0 to v6 and must reach v7 over a slow link. For
// each device the DeltaService serves the byte-cheapest route: direct
// in-place delta, a chain of cached release-to-release deltas, or the
// full image — and we apply the response to prove it lands byte-perfect.
//
// Run:  ./examples/fleet_upgrade
#include <cstdio>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/stats.hpp"
#include "device/channel.hpp"
#include "server/delta_service.hpp"

int main() {
  using namespace ipd;

  // Build an 8-release history with realistic drift.
  Rng rng(0xF1EE7);
  VersionStore store;
  ReleaseId latest =
      store.publish(generate_file(rng, 160 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 64;
  for (int i = 1; i < 8; ++i) {
    latest = store.publish(mutate(*store.body(latest), rng, 80, model));
  }
  const Bytes& target = *store.body(latest);

  DeltaService service(store);

  const ChannelModel link = channel_28k();
  std::printf(
      "release history: 8 versions of a %s firmware; fleet reaches v7 over "
      "%s\n\n",
      format_bytes(store.body(0)->size()).c_str(), link.name.c_str());
  std::printf("%6s %28s %12s %10s %12s %10s\n", "device", "plan", "download",
              "time", "vs direct", "vs full");

  bool all_ok = true;
  const Pipeline pipeline;
  for (ReleaseId from = 0; from < latest; ++from) {
    const ServeResult served = service.serve(from, latest);
    const Bytes& current = *store.body(from);

    std::string route = "v" + std::to_string(from);
    double seconds = 0;
    for (const ServedStep& step : served.steps) {
      route += step.full_image ? "=>v" : "->v";
      route += std::to_string(step.to);
      seconds += link.transfer_seconds(step.bytes->size());
    }

    const Bytes direct = pipeline.build_inplace(current, target).delta;
    const bool ok = apply_served(served, current) == target;
    all_ok = all_ok && ok;

    std::printf("%6llu %28s %12s %9.1fs %11.2fx %9.2fx%s\n",
                static_cast<unsigned long long>(from), route.c_str(),
                format_bytes(served.total_bytes).c_str(), seconds,
                static_cast<double>(direct.size()) /
                    static_cast<double>(served.total_bytes),
                static_cast<double>(target.size()) /
                    static_cast<double>(served.total_bytes),
                ok ? "" : "  ** VERIFY FAILED **");
  }

  std::printf(
      "\n%llu deltas were built to serve the whole fleet (the naive "
      "all-pairs build would need %llu;\nthe chain of hops is priced only "
      "where a direct delta exceeds half the image)\n",
      static_cast<unsigned long long>(service.metrics().builds.load()),
      static_cast<unsigned long long>(latest * (latest + 1) / 2));
  std::printf("all devices verified: %s\n", all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
