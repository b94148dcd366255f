// bench_campaign — cost model of the fleet-scale OTA campaign simulator
// (src/campaign/).
//
// Two sections:
//
//   1. clean fleet: devices/s through the full wire stack (socket pairs
//      into the server's epoll reactor, framing, streaming apply,
//      journaling) with no faults —
//      the simulator's own overhead, and the server-side cache hit rate
//      a heterogeneous fleet produces;
//   2. chaos fleet: the same fleet with link drops/truncations/bit flips
//      and power cuts at arbitrary flash-write offsets — the price of
//      retries, byte-exact resumes, and journal-replay reboots, plus the
//      headline invariant (zero bricks) checked on every run.
//
// Prints a human table, then one `JSON {...}` line for the tracked
// trajectory: redirect with
//   bench_campaign | grep '^JSON ' | cut -c6- > BENCH_CAMPAIGN.json
// Runs standalone with no arguments (CI smoke);
// IPDELTA_BENCH_CAMPAIGN_DEVICES scales the fleet.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"

namespace {

using namespace ipd;

CampaignOptions base_options(std::size_t devices) {
  CampaignOptions o;
  o.devices = devices;
  o.releases = 4;
  o.image_bytes = 24u << 10;
  o.seed = 0xCA49;  // "CAMP"
  o.staged_fraction = 0.2;
  o.rollout.max_concurrency = 8;
  return o;
}

void print_report(const char* label, const CampaignReport& r) {
  std::printf("  %-6s  %6.0f devices/s   updated %zu/%zu  bricked %zu\n"
              "          retries %zu  resumes %zu  reboots %zu"
              "  link faults %llu\n"
              "          device update %s\n"
              "          server: %llu sessions, %llu builds,"
              " %llu cache hits\n",
              label,
              r.wall_seconds > 0
                  ? static_cast<double>(r.attempted) / r.wall_seconds
                  : 0.0,
              r.updated, r.devices, r.bricked, r.retries, r.resumes,
              r.reboots, static_cast<unsigned long long>(r.link_faults),
              r.device_update_ns.latency_line().c_str(),
              static_cast<unsigned long long>(r.server_sessions),
              static_cast<unsigned long long>(r.server_builds),
              static_cast<unsigned long long>(r.server_cache_hits));
}

}  // namespace

int main() {
  std::size_t devices = 500;
  if (const char* env = std::getenv("IPDELTA_BENCH_CAMPAIGN_DEVICES")) {
    devices = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  std::string json = "{\"bench\":\"campaign\",\"devices\":" +
                     std::to_string(devices);

  // ---- 1. clean fleet ---------------------------------------------
  ipd::bench::rule('=');
  std::printf("clean fleet  (%zu devices, 4 releases, no faults)\n",
              devices);
  ipd::bench::rule();
  const CampaignReport clean = run_campaign(base_options(devices));
  print_report("clean", clean);
  if (clean.updated != clean.devices || clean.bricked != 0) {
    std::fprintf(stderr, "bench_campaign: clean fleet did not converge\n%s",
                 clean.render().c_str());
    return 1;
  }
  json += ",\"clean_devices_per_sec\":" +
          std::to_string(static_cast<double>(clean.attempted) /
                         clean.wall_seconds) +
          ",\"clean_p99_device_update_us\":" +
          std::to_string(clean.device_update_ns.quantile(0.99) / 1e3);

  // ---- 2. chaos fleet ---------------------------------------------
  ipd::bench::rule('=');
  std::printf("chaos fleet  (2%% drop/truncate/flip per op, power cuts on"
              " 30%% of devices)\n");
  ipd::bench::rule();
  CampaignOptions chaos = base_options(devices);
  chaos.drop_rate = 0.02;
  chaos.truncate_rate = 0.02;
  chaos.flip_rate = 0.02;
  chaos.grace_ops = 1;
  chaos.power_cut_rate = 0.3;
  chaos.max_power_cuts = 2;
  chaos.client.max_attempts = 64;
  const CampaignReport faulty = run_campaign(chaos);
  print_report("chaos", faulty);
  if (faulty.updated != faulty.devices || faulty.bricked != 0) {
    std::fprintf(stderr,
                 "bench_campaign: chaos fleet broke the zero-brick "
                 "guarantee\n%s",
                 faulty.render().c_str());
    return 1;
  }
  const double slowdown =
      clean.attempted > 0 && faulty.wall_seconds > 0
          ? (static_cast<double>(clean.attempted) / clean.wall_seconds) /
                (static_cast<double>(faulty.attempted) / faulty.wall_seconds)
          : 0.0;
  std::printf("  chaos costs %.2fx wall time over clean\n", slowdown);
  json += ",\"chaos_devices_per_sec\":" +
          std::to_string(static_cast<double>(faulty.attempted) /
                         faulty.wall_seconds) +
          ",\"chaos_p99_device_update_us\":" +
          std::to_string(faulty.device_update_ns.quantile(0.99) / 1e3) +
          ",\"chaos_slowdown\":" + std::to_string(slowdown) +
          ",\"retries\":" + std::to_string(faulty.retries) +
          ",\"resumes\":" + std::to_string(faulty.resumes) +
          ",\"reboots\":" + std::to_string(faulty.reboots) +
          ",\"link_faults\":" + std::to_string(faulty.link_faults) +
          ",\"bricked\":" + std::to_string(faulty.bricked) + "}";

  ipd::bench::rule('=');
  std::printf("JSON %s\n", json.c_str());
  return 0;
}
