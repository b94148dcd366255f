// Campaign simulator acceptance (ctest label `campaign`): wave planning
// units, a clean fleet, the 500-device deterministic campaign with
// flaky links AND power cuts at arbitrary apply offsets (the PR's
// zero-brick acceptance gate at test scale), and the abort-on-failure
// rollout gate.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include "campaign/rollout.hpp"

namespace ipd {
namespace {

TEST(PlanWaves, CanaryRampOverAFleet) {
  const std::vector<std::size_t> waves =
      plan_waves(500, {0.01, 0.10, 0.50, 1.00});
  EXPECT_EQ(waves, (std::vector<std::size_t>{5, 50, 250, 500}));
}

TEST(PlanWaves, DegeneratesToOneWave) {
  EXPECT_EQ(plan_waves(42, {}), std::vector<std::size_t>{42});
  EXPECT_TRUE(plan_waves(0, {0.5, 1.0}).empty());
  EXPECT_EQ(plan_waves(1, {0.01, 0.5, 1.0}), std::vector<std::size_t>{1});
}

TEST(PlanWaves, TinyFleetStaysStrictlyIncreasing) {
  // Four fractions over three devices: every wave must add at least one
  // device, equal-rounding waves collapse, and the ramp ends at fleet.
  const std::vector<std::size_t> waves =
      plan_waves(3, {0.01, 0.10, 0.50, 1.00});
  EXPECT_EQ(waves, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(PlanWaves, FinalFractionBelowOneStillCoversTheFleet) {
  const std::vector<std::size_t> waves = plan_waves(100, {0.10, 0.50});
  EXPECT_EQ(waves, (std::vector<std::size_t>{10, 50, 100}));
}

TEST(PlanWaves, RejectsBadFractions) {
  EXPECT_THROW(plan_waves(10, {0.0, 1.0}), ValidationError);
  EXPECT_THROW(plan_waves(10, {1.5}), ValidationError);
  EXPECT_THROW(plan_waves(10, {0.5, 0.2}), ValidationError);
  EXPECT_THROW(plan_waves(10, {-0.1, 1.0}), ValidationError);
}

TEST(Campaign, RejectsNonsenseOptions) {
  CampaignOptions o;
  o.releases = 1;
  EXPECT_THROW(run_campaign(o), ValidationError);
  o.releases = 2;
  o.drop_rate = 1.5;
  EXPECT_THROW(run_campaign(o), ValidationError);
}

TEST(Campaign, CleanFleetConvergesEverywhere) {
  CampaignOptions o;
  o.devices = 40;
  o.releases = 3;
  o.image_bytes = 12u << 10;
  o.seed = 11;
  o.staged_fraction = 0.25;
  const CampaignReport report = run_campaign(o);
  EXPECT_EQ(report.updated, 40u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.bricked, 0u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_FALSE(report.aborted);
  EXPECT_GE(report.hops, 40u);
  EXPECT_GT(report.staged_devices, 0u);
  EXPECT_GT(report.bytes_received, 0u);
  // The whole fleet shares the server's delta cache: far fewer builds
  // than sessions.
  EXPECT_GT(report.server_sessions, 0u);
  EXPECT_GT(report.server_cache_hits, report.server_builds);
  EXPECT_EQ(report.device_update_ns.count, 40u);
  // Report plumbing: both renderings carry the headline numbers.
  EXPECT_NE(report.render().find("bricked 0"), std::string::npos);
  EXPECT_NE(report.json().find("\"bricked\":0"), std::string::npos);
}

TEST(Campaign, FiveHundredDevicesWithFaultsAndPowerCutsZeroBricks) {
  // The PR's acceptance property at test scale: flaky links, power cuts
  // at arbitrary apply offsets on a third of the fleet, a staged-path
  // minority — and every single device converges with zero bricks,
  // deterministically from the seed.
  CampaignOptions o;
  o.devices = 500;
  o.releases = 4;
  o.image_bytes = 12u << 10;
  o.seed = 20260809;
  o.drop_rate = 0.02;
  o.truncate_rate = 0.02;
  o.flip_rate = 0.02;
  // Socket-pair links batch aggressively: one read can drain a whole
  // queued response, so a connection may be as few as four transport
  // ops. Keep only the HELLO write fault-free or the faults barely get
  // a turn.
  o.grace_ops = 1;
  o.power_cut_rate = 0.3;
  o.max_power_cuts = 2;
  o.staged_fraction = 0.2;
  o.client.max_attempts = 64;
  o.rollout.max_concurrency = 8;
  const CampaignReport report = run_campaign(o);
  EXPECT_EQ(report.updated, 500u) << report.render();
  EXPECT_EQ(report.failed, 0u) << report.render();
  EXPECT_EQ(report.bricked, 0u) << report.render();
  EXPECT_FALSE(report.aborted);
  // The chaos actually happened.
  EXPECT_GT(report.link_faults, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.resumes, 0u);
  EXPECT_GT(report.reboots, 0u);
  EXPECT_GT(report.staged_devices, 0u);
  EXPECT_EQ(report.waves.back(), 500u);
}

TEST(Campaign, ServerIsSizedFromTheFleetConcurrency) {
  // More devices in flight than the server's default connection limit
  // (256): the campaign sizes its server from its own concurrency, so
  // no connection or build request is shed and a clean fleet sees no
  // retry at all.
  CampaignOptions o;
  o.devices = 300;
  o.releases = 2;
  o.image_bytes = 4u << 10;
  o.seed = 29;
  o.rollout.waves = {1.0};
  o.rollout.max_concurrency = 260;
  const CampaignReport report = run_campaign(o);
  EXPECT_EQ(report.updated, 300u) << report.render();
  EXPECT_EQ(report.retries, 0u) << report.render();
  EXPECT_EQ(report.server_rejected, 0u);
}

TEST(Campaign, AbortGateStopsTheRampAndStrandsNobody) {
  // Every link is dead on arrival: the canary wave fails outright and
  // the rollout must stop there — with every device, attempted or not,
  // still holding a bootable release.
  CampaignOptions o;
  o.devices = 60;
  o.releases = 2;
  o.image_bytes = 8u << 10;
  o.seed = 5;
  o.drop_rate = 1.0;
  o.grace_ops = 0;
  o.client.max_attempts = 2;
  o.rollout.waves = {0.1, 0.5, 1.0};
  o.rollout.min_failures_to_abort = 3;
  o.rollout.abort_failure_rate = 0.5;
  o.rollout.max_attempts_per_device = 2;
  const CampaignReport report = run_campaign(o);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.attempted, 6u);
  EXPECT_EQ(report.failed, 6u);
  EXPECT_EQ(report.skipped, 54u);
  EXPECT_EQ(report.updated, 0u);
  EXPECT_EQ(report.bricked, 0u) << "a dead link must never brick a device";
  EXPECT_NE(report.json().find("\"aborted\":true"), std::string::npos);
}

// ---- SLO layer ------------------------------------------------------

TEST(Slo, BurnRateMeasuresBudgetConsumption) {
  SloSpec spec;
  spec.target_success_rate = 0.99;  // 1% error budget
  WaveHealth w;
  w.wave = 1;
  w.attempted = 100;
  w.failed = 2;
  // 2% failures against a 1% budget: burning 2x.
  EXPECT_DOUBLE_EQ(w.failure_rate(), 0.02);
  EXPECT_NEAR(w.burn_rate(spec), 2.0, 1e-9);
  // A zero-budget SLO with any failure burns "infinitely".
  spec.target_success_rate = 1.0;
  EXPECT_GE(w.burn_rate(spec), 1e9);
  w.failed = 0;
  EXPECT_DOUBLE_EQ(w.burn_rate(spec), 0.0);
}

TEST(Slo, EvaluationSkipsSmallWavesAndRejectsBadSpecs) {
  SloSpec spec;
  spec.enabled = true;
  spec.min_attempts = 20;
  WaveHealth tiny;
  tiny.attempted = 5;
  tiny.failed = 5;  // 100% failure, but too small to judge
  const SloEval eval = evaluate_slo(spec, tiny);
  EXPECT_FALSE(eval.evaluated);
  EXPECT_FALSE(eval.breached);

  SloSpec bad = spec;
  bad.target_success_rate = 0.0;
  EXPECT_THROW(bad.validate(), ValidationError);
  bad.target_success_rate = 1.5;
  EXPECT_THROW(bad.validate(), ValidationError);
  bad = spec;
  bad.max_burn_rate = 0.0;
  EXPECT_THROW(bad.validate(), ValidationError);
}

TEST(Campaign, SloBurnRateBreachAbortsTheRamp) {
  // Dead links, flat-rate gate effectively off: only the SLO burn-rate
  // gate can stop this rollout — and it must, at the first judged wave.
  CampaignOptions o;
  o.devices = 60;
  o.releases = 2;
  o.image_bytes = 8u << 10;
  o.seed = 5;
  o.drop_rate = 1.0;
  o.grace_ops = 0;
  o.client.max_attempts = 2;
  o.rollout.waves = {0.5, 1.0};
  o.rollout.min_failures_to_abort = 1'000;  // flat gate disabled
  o.rollout.max_attempts_per_device = 2;
  o.slo.enabled = true;
  o.slo.target_success_rate = 0.99;
  o.slo.max_burn_rate = 2.0;
  o.slo.min_attempts = 20;
  const CampaignReport report = run_campaign(o);
  EXPECT_TRUE(report.aborted);
  EXPECT_TRUE(report.slo_aborted);
  EXPECT_GE(report.slo_burn_rate, 2.0);
  EXPECT_NE(report.slo_reason.find("burn rate"), std::string::npos);
  // Only the first wave ran: 30 attempted, 30 skipped untouched.
  ASSERT_EQ(report.wave_health.size(), 1u);
  EXPECT_EQ(report.wave_health[0].attempted, 30u);
  EXPECT_EQ(report.wave_health[0].failed, 30u);
  EXPECT_EQ(report.skipped, 30u);
  EXPECT_EQ(report.bricked, 0u);
  EXPECT_NE(report.render().find("SLO BREACH"), std::string::npos);
  EXPECT_NE(report.json().find("\"slo_aborted\":true"), std::string::npos);
  EXPECT_NE(report.json().find("\"wave_health\":["), std::string::npos);
}

TEST(Campaign, SloCanaryWaveBelowMinAttemptsIsNotJudged) {
  // A 3-device canary fails outright, but min_attempts shields it from
  // SLO judgement (a canary of 3 has no statistics); the breach fires
  // at the next, large-enough wave instead.
  CampaignOptions o;
  o.devices = 60;
  o.releases = 2;
  o.image_bytes = 8u << 10;
  o.seed = 5;
  o.drop_rate = 1.0;
  o.grace_ops = 0;
  o.client.max_attempts = 2;
  o.rollout.waves = {0.05, 0.5, 1.0};
  o.rollout.min_failures_to_abort = 1'000;
  o.rollout.max_attempts_per_device = 2;
  o.slo.enabled = true;
  o.slo.min_attempts = 20;
  const CampaignReport report = run_campaign(o);
  EXPECT_TRUE(report.slo_aborted);
  ASSERT_EQ(report.wave_health.size(), 2u);
  EXPECT_EQ(report.wave_health[0].attempted, 3u);
  EXPECT_EQ(report.wave_health[1].attempted, 27u);
  EXPECT_NE(report.slo_reason.find("wave 2"), std::string::npos);
}

TEST(Campaign, SloHealthyFleetReportsPerWaveLatencyQuantiles) {
  CampaignOptions o;
  o.devices = 40;
  o.releases = 3;
  o.image_bytes = 12u << 10;
  o.seed = 11;
  o.rollout.waves = {0.25, 1.0};
  o.slo.enabled = true;
  o.slo.target_success_rate = 0.99;
  o.slo.max_burn_rate = 2.0;
  o.slo.min_attempts = 5;
  const CampaignReport report = run_campaign(o);
  EXPECT_FALSE(report.aborted);
  EXPECT_FALSE(report.slo_aborted);
  EXPECT_EQ(report.updated, 40u);
  ASSERT_EQ(report.wave_health.size(), 2u);
  std::size_t attempted_total = 0;
  for (const WaveHealth& w : report.wave_health) {
    attempted_total += w.attempted;
    // Per-wave latency really was recorded: one sample per attempt and
    // a nonzero p99 an operator can read off the wave line.
    EXPECT_EQ(w.latency.count, w.attempted);
    EXPECT_GT(w.latency.quantile(0.99), 0.0);
    EXPECT_NE(w.render().find("p99"), std::string::npos);
    EXPECT_NE(w.json().find("\"p99_ns\":"), std::string::npos);
  }
  EXPECT_EQ(attempted_total, 40u);
  EXPECT_NE(report.render().find("slo: healthy"), std::string::npos);
}

TEST(Campaign, SloP99BudgetBreachAborts) {
  // A 1 ns latency budget is unmeetable: the first judged wave breaches
  // on p99 even though every update succeeds.
  CampaignOptions o;
  o.devices = 30;
  o.releases = 2;
  o.image_bytes = 8u << 10;
  o.seed = 11;
  o.rollout.waves = {1.0};
  o.slo.enabled = true;
  o.slo.p99_latency_budget_ns = 1;
  o.slo.min_attempts = 5;
  const CampaignReport report = run_campaign(o);
  EXPECT_TRUE(report.slo_aborted);
  EXPECT_NE(report.slo_reason.find("p99"), std::string::npos);
  EXPECT_EQ(report.failed, 0u) << "p99 breach is not a device failure";
}

TEST(Campaign, SloSpecIsValidatedUpFront) {
  CampaignOptions o;
  o.devices = 4;
  o.releases = 2;
  o.slo.enabled = true;
  o.slo.target_success_rate = 2.0;
  EXPECT_THROW(run_campaign(o), ValidationError);
}

}  // namespace
}  // namespace ipd
