// src/obs/ unit tests: histogram quantile accuracy against a
// sorted-vector oracle, snapshot merging, the event ring, stage span
// aggregation, the Chrome trace JSON export, trace-context propagation,
// cross-process trace merging, the flight recorder, the stall watchdog,
// and the Prometheus renderer's text format. Concurrency hammering
// lives in test_obs_stress.cpp (label "stress", run under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_merge.hpp"
#include "obs/watchdog.hpp"
#include "test_util.hpp"

namespace ipd::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---- histogram ------------------------------------------------------

TEST(Histogram, BucketLayout) {
  // Bucket k holds exactly the values with bit_width == k.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_low(k)), k);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_high(k)), k);
  }
}

TEST(Histogram, CountSumAndReset) {
  Histogram h;
  for (std::uint64_t v : {5u, 10u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.snapshot().sum, 115u);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 115.0 / 3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.snapshot().sum, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, QuantileWithinFactorTwoOfOracle) {
  // Log-uniform samples spanning ~6 decades: the regime where a linear
  // histogram would be useless and the log-bucket error bound matters.
  Rng rng(0x0B5E);
  std::vector<std::uint64_t> samples;
  Histogram h;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t magnitude = 1 + rng.below(20);  // bit widths 1..20
    const std::uint64_t v =
        (std::uint64_t{1} << (magnitude - 1)) + rng.below(1u << (magnitude - 1));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = h.snapshot();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    const double truth = static_cast<double>(samples[rank]);
    const double est = snap.quantile(q);
    // Estimate and true sample share a power-of-two bucket, so the
    // ratio is bounded by 2 in both directions (histogram.hpp contract).
    EXPECT_LE(est, truth * 2.0) << "q=" << q;
    EXPECT_GE(est, truth / 2.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileExactForSingleBucketValues) {
  // All mass in one bucket with one entry: interpolation must return
  // the bucket floor, not invent spread.
  Histogram h;
  h.record(1024);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 1024.0);
}

TEST(Histogram, EmptySnapshotAnswersEveryQuantileWithZero) {
  const HistogramSnapshot snap = Histogram().snapshot();
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile(q), 0.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  // latency_line over nothing must still render (the serve ticker calls
  // it before the first request lands).
  EXPECT_NE(snap.latency_line().find("p50"), std::string::npos);
}

TEST(Histogram, SingleEntryQuantilesStayInsideItsBucket) {
  Histogram h;
  h.record(7);  // bucket 3: [4, 7]
  const HistogramSnapshot snap = h.snapshot();
  const std::size_t bucket = Histogram::bucket_of(7);
  for (const double q : {0.0, 0.5, 1.0}) {
    const double est = snap.quantile(q);
    EXPECT_GE(est, static_cast<double>(Histogram::bucket_low(bucket)));
    EXPECT_LE(est, static_cast<double>(Histogram::bucket_high(bucket)));
  }
}

TEST(Histogram, SaturatingValuesLandInTheTopBucketAndStayFinite) {
  Histogram h;
  const std::uint64_t top = ~std::uint64_t{0};
  for (int i = 0; i < 3; ++i) h.record(top);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 3u);
  for (const double q : {0.0, 0.5, 1.0}) {
    const double est = snap.quantile(q);
    EXPECT_TRUE(std::isfinite(est)) << "q=" << q;
    EXPECT_GE(est, static_cast<double>(
                       Histogram::bucket_low(kHistogramBuckets - 1)));
  }
}

TEST(Histogram, MergeIsOrderIndependent) {
  Histogram a;
  Histogram b;
  Rng rng(0x3E46E);
  for (int i = 0; i < 500; ++i) a.record(rng.below(1u << 20));
  for (int i = 0; i < 300; ++i) b.record(1 + rng.below(1u << 10));

  HistogramSnapshot ab = a.snapshot();
  ab.merge(b.snapshot());
  HistogramSnapshot ba = b.snapshot();
  ba.merge(a.snapshot());

  EXPECT_EQ(ab.count, 800u);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.buckets, ba.buckets);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q));
  }
}

TEST(Histogram, LatencyLineFormat) {
  Histogram h;
  h.record(500'000);  // 500us in ns
  const std::string line = h.snapshot().latency_line();
  EXPECT_NE(line.find("p50"), std::string::npos);
  EXPECT_NE(line.find("p95"), std::string::npos);
  EXPECT_NE(line.find("p99"), std::string::npos);
  EXPECT_NE(line.find("us"), std::string::npos);
}

// ---- event ring -----------------------------------------------------

TEST(EventRing, OrderAndPayload) {
  EventRing ring;
  ring.push(EventType::kNetRetry, 1, 250, "attempt 1");
  ring.push(EventType::kNetResume, 2, 4096);
  ring.push(EventType::kVerifyReject, 0, 0, "hop 3 -> 4");
  EXPECT_EQ(ring.pushed(), 3u);

  const std::vector<Event> events = ring.recent();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first, sequence numbers 1-based and contiguous.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].type, EventType::kNetRetry);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 250u);
  EXPECT_EQ(events[0].detail, "attempt 1");
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].detail, "");
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(events[2].type, EventType::kVerifyReject);
  EXPECT_EQ(events[2].detail, "hop 3 -> 4");
}

TEST(EventRing, WrapsKeepingNewest) {
  EventRing ring;
  const std::size_t total = EventRing::kSlots + 40;
  for (std::size_t i = 1; i <= total; ++i) {
    ring.push(EventType::kCacheEvict, i);
  }
  EXPECT_EQ(ring.pushed(), total);
  const std::vector<Event> events = ring.recent();
  ASSERT_EQ(events.size(), EventRing::kSlots);
  // The oldest surviving event is total - kSlots + 1; order preserved.
  EXPECT_EQ(events.front().seq, total - EventRing::kSlots + 1);
  EXPECT_EQ(events.back().seq, total);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(EventRing, RecentHonoursMax) {
  EventRing ring;
  for (int i = 0; i < 10; ++i) ring.push(EventType::kNetError, i);
  const std::vector<Event> last3 = ring.recent(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3.back().seq, 10u);
  EXPECT_EQ(last3.front().seq, 8u);
}

TEST(EventRing, DetailTruncatedToSlotCapacity) {
  EventRing ring;
  const std::string longtail(200, 'x');
  ring.push(EventType::kJournalPoison, 0, 0, longtail);
  const std::vector<Event> events = ring.recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, longtail.substr(0, EventRing::kDetailBytes));
}

TEST(EventRing, DumpNamesEveryEventType) {
  EventRing ring;
  EXPECT_TRUE(ring.dump().empty());
#define IPD_TEST_PUSH(id, name) ring.push(EventType::id);
  IPD_OBS_EVENTS(IPD_TEST_PUSH)
#undef IPD_TEST_PUSH
  const std::string dump = ring.dump();
#define IPD_TEST_EXPECT(id, name) \
  EXPECT_NE(dump.find(name), std::string::npos) << name;
  IPD_OBS_EVENTS(IPD_TEST_EXPECT)
#undef IPD_TEST_EXPECT
}

TEST(EventRing, TypeNamesAreDistinct) {
  std::vector<std::string> names;
#define IPD_TEST_NAME(id, name) \
  names.emplace_back(event_type_name(EventType::id));
  IPD_OBS_EVENTS(IPD_TEST_NAME)
#undef IPD_TEST_NAME
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// ---- stage spans ----------------------------------------------------

TEST(Trace, SpanAccumulatesIntoStageTotals) {
  reset_stage_totals();
  {
    Span outer(Stage::kDiff, 100);
    Span inner(Stage::kEncode);
    inner.add_bytes(42);
  }
  flush_thread_stats();
  const StageTotals totals = stage_totals();
  EXPECT_EQ(totals[Stage::kDiff].count, 1u);
  EXPECT_EQ(totals[Stage::kDiff].bytes, 100u);
  EXPECT_EQ(totals[Stage::kEncode].count, 1u);
  EXPECT_EQ(totals[Stage::kEncode].bytes, 42u);
  EXPECT_EQ(totals[Stage::kVerify].count, 0u);
  reset_stage_totals();
}

TEST(Trace, StageNamesCoverEnumAndAreDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    names.emplace_back(stage_name(static_cast<Stage>(i)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(Trace, JsonSchemaAndStageCoverage) {
  set_tracing(true);
  clear_trace_events();
  {
    Span s1(Stage::kDiff, 10);
  }
  {
    Span s2(Stage::kCrwiGraph);
  }
  {
    Span s3(Stage::kTopoSort);
  }
  {
    Span s4(Stage::kEncode);
  }
  {
    Span s5(Stage::kApplyInplace, 7);
  }
  set_tracing(false);

  EXPECT_EQ(trace_event_count(), 5u);
  const std::string json = trace_events_json();
  clear_trace_events();

  // Chrome trace-event envelope.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Five complete events, each with the required keys.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 5u);
  EXPECT_EQ(count_occurrences(json, "\"ts\":"), 5u);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 5u);
  EXPECT_EQ(count_occurrences(json, "\"pid\":1"), 5u);
  // All five distinct stages present by wire name.
  for (const char* name :
       {"diff", "crwi_graph", "topo_sort", "encode", "apply_inplace"}) {
    EXPECT_EQ(count_occurrences(json, std::string("\"name\":\"") + name + "\""),
              1u)
        << name;
  }
  EXPECT_NE(json.find("\"args\":{\"bytes\":10}"), std::string::npos);
}

TEST(Trace, DisabledByDefaultCapturesNothing) {
  clear_trace_events();
  ASSERT_FALSE(tracing_enabled());
  {
    Span span(Stage::kVerify);
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

// ---- trace context --------------------------------------------------

TEST(TraceContext, MintedRootsAreValidAndDistinct) {
  const TraceContext a = mint_trace();
  const TraceContext b = mint_trace();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo);
  EXPECT_EQ(a.parent_span_id, 0u);
  EXPECT_EQ(a.trace_id_hex().size(), 32u);
  EXPECT_EQ(a.span_id_hex().size(), 16u);
}

TEST(TraceContext, ChildSharesTraceIdWithFreshSpan) {
  const TraceContext root = mint_trace();
  const TraceContext child = child_of(root);
  EXPECT_EQ(child.trace_hi, root.trace_hi);
  EXPECT_EQ(child.trace_lo, root.trace_lo);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  // Propagating "no trace" stays "no trace" — the untraced fast path.
  EXPECT_FALSE(child_of(TraceContext{}).valid());
}

TEST(TraceContext, ScopeInstallsAndNestingRestores) {
  EXPECT_FALSE(current_trace().valid());
  const TraceContext outer = mint_trace();
  {
    const TraceScope outer_scope(outer);
    EXPECT_EQ(current_trace(), outer);
    const TraceContext inner = child_of(outer);
    {
      const TraceScope inner_scope(inner);
      EXPECT_EQ(current_trace(), inner);
    }
    EXPECT_EQ(current_trace(), outer);
  }
  EXPECT_FALSE(current_trace().valid());
}

TEST(TraceContext, SpansUnderAScopeCarryTheTraceIdInJson) {
  const TraceContext ctx = mint_trace();
  set_tracing(true);
  clear_trace_events();
  {
    const TraceScope scope(ctx);
    Span span(Stage::kServe, 5);
  }
  {
    Span untagged(Stage::kVerify);  // outside any scope: no args.trace
  }
  set_tracing(false);
  const std::string json = trace_events_json();
  clear_trace_events();
  EXPECT_NE(json.find("\"trace\":\"" + ctx.trace_id_hex() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"span\":\"" + ctx.span_id_hex() + "\""),
            std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"trace\":"), 1u)
      << "the unscoped span must not carry a trace id";
}

TEST(TraceContext, UnsampledContextPropagatesButRecordsNoTaggedSpan) {
  TraceContext ctx = mint_trace();
  ctx.sampled = false;
  set_tracing(true);
  clear_trace_events();
  {
    const TraceScope scope(ctx);
    Span span(Stage::kServe);
  }
  set_tracing(false);
  const std::string json = trace_events_json();
  clear_trace_events();
  EXPECT_EQ(json.find("\"trace\":"), std::string::npos);
}

// ---- cross-process merge --------------------------------------------

// Hand-built per-process documents: in-process tests share one trace
// collector, so genuinely separate processes are simulated by separate
// JSON inputs here (and exercised for real in tests/test_cli.sh).
std::string one_span_doc(const std::string& name, double ts,
                         const std::string& trace_id,
                         const std::string& span_id) {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"" + name +
         "\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":" + std::to_string(ts) +
         ",\"dur\":5.0,\"pid\":1,\"tid\":1,\"args\":{\"bytes\":0,\"trace\":\"" +
         trace_id + "\",\"span\":\"" + span_id + "\"}}]}";
}

TEST(TraceMerge, JoinsSharedTraceIdsAcrossLanesWithFlowEvents) {
  const std::string trace_id = "00112233445566778899aabbccddeeff";
  const std::vector<NamedTrace> inputs = {
      {"client", one_span_doc("net_request", 10.0, trace_id,
                              "0000000000000001")},
      {"server", one_span_doc("serve", 900.0, trace_id,
                              "0000000000000002")},
  };
  MergeStats stats;
  const std::string merged = merge_traces(inputs, &stats);
  EXPECT_EQ(stats.processes, 2u);
  EXPECT_EQ(stats.traces_joined, 1u);
  EXPECT_EQ(stats.flow_events, 2u);  // one "s", one "f"
  // Lanes: each input got its own pid and a process_name record.
  EXPECT_NE(merged.find("\"process_name\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"client\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"server\""), std::string::npos);
  EXPECT_EQ(count_occurrences(merged, "\"pid\":1"), 3u);  // meta + span + "s"
  EXPECT_EQ(count_occurrences(merged, "\"pid\":2"), 3u);
  // The flow pair is keyed on the trace id and spans the two lanes.
  EXPECT_NE(merged.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(merged.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_EQ(count_occurrences(merged, "\"id\":\"" + trace_id + "\""), 2u);
}

TEST(TraceMerge, DisjointTracesProduceNoFlow) {
  const std::vector<NamedTrace> inputs = {
      {"a", one_span_doc("diff", 1.0, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                         "0000000000000001")},
      {"b", one_span_doc("serve", 2.0, "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
                         "0000000000000002")},
  };
  MergeStats stats;
  merge_traces(inputs, &stats);
  EXPECT_EQ(stats.traces_joined, 0u);
  EXPECT_EQ(stats.flow_events, 0u);
}

TEST(TraceMerge, RoundTripsARealExport) {
  set_tracing(true);
  clear_trace_events();
  {
    const TraceScope scope(mint_trace());
    Span span(Stage::kEncode, 3);
  }
  set_tracing(false);
  const std::string doc = trace_events_json();
  clear_trace_events();
  MergeStats stats;
  const std::string merged =
      merge_traces({{"solo", doc}, {"again", doc}}, &stats);
  EXPECT_EQ(stats.processes, 2u);
  // The same trace id appears in both lanes, so the join fires.
  EXPECT_EQ(stats.traces_joined, 1u);
  EXPECT_NE(merged.find("\"name\":\"encode\""), std::string::npos);
}

TEST(TraceMerge, MalformedInputThrowsFormatError) {
  EXPECT_THROW(merge_traces({{"bad", "{\"traceEvents\":["}}), FormatError);
  EXPECT_THROW(merge_traces({{"bad", "not json at all"}}), FormatError);
  EXPECT_THROW(merge_traces({{"bad", "{\"traceEvents\":[]} trailing"}}),
               FormatError);
  EXPECT_THROW(merge_traces({{"bad", "{\"displayTimeUnit\":\"ms\"}"}}),
               FormatError);
  EXPECT_THROW(merge_traces({{"bad", "[1,2,3]"}}), FormatError);
}

// ---- flight recorder ------------------------------------------------

TEST(FlightRecorder, MirrorsSpansEventsAndNotesUnderScope) {
  FlightRecorder flight("test-session");
  {
    const FlightScope scope(flight);
    ASSERT_EQ(active_flight_recorder(), &flight);
    {
      Span span(Stage::kNetTransfer, 123);
    }
    global_events().push(EventType::kNetRetry, 2, 250, "attempt 2");
    flight.note("manual breadcrumb");
  }
  EXPECT_EQ(active_flight_recorder(), nullptr);
  EXPECT_EQ(flight.recorded(), 3u);
  const std::string text = flight.dump_text();
  EXPECT_NE(text.find("net_transfer"), std::string::npos);
  EXPECT_NE(text.find("net_retry"), std::string::npos);
  EXPECT_NE(text.find("manual breadcrumb"), std::string::npos);
}

TEST(FlightRecorder, RecordsIndependentlyOfGlobalTracing) {
  ASSERT_FALSE(tracing_enabled());
  FlightRecorder flight("untraced");
  {
    const FlightScope scope(flight);
    Span span(Stage::kServe);
  }
  EXPECT_EQ(flight.recorded(), 1u);
}

TEST(FlightRecorder, RingOverwritesOldestKeepingTheTail) {
  FlightRecorder flight("wrap");
  const FlightScope scope(flight);
  const std::size_t total = FlightRecorder::kMaxEntries + 10;
  for (std::size_t i = 0; i < total; ++i) {
    flight.note("note " + std::to_string(i));
  }
  EXPECT_EQ(flight.recorded(), total);
  const std::string text = flight.dump_text();
  EXPECT_EQ(text.find("note 0\n"), std::string::npos)
      << "oldest entry should have been overwritten";
  EXPECT_NE(text.find("note " + std::to_string(total - 1)),
            std::string::npos);
  // Oldest resident entry is exactly total - kMaxEntries.
  EXPECT_NE(
      text.find("note " + std::to_string(total - FlightRecorder::kMaxEntries)),
      std::string::npos);
}

TEST(FlightRecorder, DumpRegistryKeysOnTraceIdAndReason) {
  clear_flight_dumps();
  const TraceContext ctx = mint_trace();
  FlightRecorder flight("server:device-7", ctx);
  flight.note("resume at 8192");
  dump_flight(flight, "verify reject before flash write");
  const std::vector<FlightDump> dumps = flight_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].trace_id, ctx.trace_id_hex());
  EXPECT_EQ(dumps[0].label, "server:device-7");
  EXPECT_EQ(dumps[0].reason, "verify reject before flash write");
  EXPECT_NE(dumps[0].text.find("resume at 8192"), std::string::npos);
  EXPECT_NE(dumps[0].json.find("\"trace_id\":\"" + ctx.trace_id_hex() + "\""),
            std::string::npos);
  EXPECT_NE(dumps[0].json.find("\"reason\":\"verify reject"),
            std::string::npos);
  clear_flight_dumps();
  EXPECT_TRUE(flight_dumps().empty());
}

// ---- stall watchdog -------------------------------------------------

TEST(StallWatchdog, FlagsOncePerEpisodeAndRearmsOnProgress) {
  StallWatchdog dog;
  const TraceContext ctx = mint_trace();
  // "Quiet" checks run at a time taken before the task's last progress,
  // so check_now sees zero silence however long the thread is preempted.
  const std::uint64_t t0 = now_ns();
  const std::uint64_t id =
      dog.register_task("test transfer", ctx, 1'000'000 /* 1ms */);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(dog.watched(), 1u);

  // Not yet past the deadline: quiet.
  EXPECT_EQ(dog.check_now(t0), 0u);
  EXPECT_EQ(dog.stalls_flagged(), 0u);

  // Way past the deadline: flagged exactly once, stays stalled.
  const std::uint64_t late = now_ns() + 1'000'000'000;
  EXPECT_EQ(dog.check_now(late), 1u);
  EXPECT_EQ(dog.stalls_flagged(), 1u);
  EXPECT_EQ(dog.check_now(late + 1), 1u);
  EXPECT_EQ(dog.stalls_flagged(), 1u) << "edge trigger re-fired";
  const std::vector<StalledTask> stalled = dog.stalled();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].label, "test transfer");
  EXPECT_EQ(stalled[0].trace, ctx);

  // Progress re-arms: no longer stalled, and a NEW silence flags again.
  const std::uint64_t t1 = now_ns();
  dog.progress(id, 4096);
  EXPECT_EQ(dog.check_now(t1), 0u);
  EXPECT_TRUE(dog.stalled().empty());
  EXPECT_EQ(dog.check_now(now_ns() + 1'000'000'000), 1u);
  EXPECT_EQ(dog.stalls_flagged(), 2u);
  const std::vector<StalledTask> again = dog.stalled();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].offset, 4096u) << "last-progress offset not carried";

  dog.deregister(id);
  EXPECT_EQ(dog.watched(), 0u);
  EXPECT_EQ(dog.check_now(now_ns() + 2'000'000'000), 0u);
}

TEST(StallWatchdog, StallEventCarriesTheTraceId) {
  StallWatchdog dog;
  const TraceContext ctx = mint_trace();
  dog.register_task("stalling hop", ctx, 1);
  const std::uint64_t before = global_events().pushed();
  dog.check_now(now_ns() + 1'000'000'000);
  ASSERT_EQ(global_events().pushed(), before + 1);
  const std::vector<Event> recent = global_events().recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].type, EventType::kStall);
  EXPECT_NE(recent[0].detail.find("stalling hop"), std::string::npos);
  // kDetailBytes truncation may clip the hex tail; the label plus the
  // id prefix must survive.
  const std::string expected =
      ("stalling hop " + ctx.trace_id_hex())
          .substr(0, EventRing::kDetailBytes);
  EXPECT_EQ(recent[0].detail, expected);
}

TEST(StallWatchdog, GuardWithZeroDeadlineRegistersNothing) {
  const std::size_t before = global_watchdog().watched();
  {
    WatchdogGuard guard("noop", mint_trace(), 0);
    guard.progress(10);  // must be a safe no-op
    EXPECT_EQ(global_watchdog().watched(), before);
  }
  EXPECT_EQ(global_watchdog().watched(), before);
}

TEST(StallWatchdog, GuardRegistersAndDeregistersAgainstTheGlobalDog) {
  const std::size_t before = global_watchdog().watched();
  {
    WatchdogGuard guard("guarded transfer", mint_trace(), 5'000'000'000);
    EXPECT_EQ(global_watchdog().watched(), before + 1);
    guard.progress(100);
  }
  EXPECT_EQ(global_watchdog().watched(), before);
}

// ---- prometheus renderer --------------------------------------------

TEST(PrometheusRenderer, CounterAndGaugeFormat) {
  PrometheusRenderer r;
  r.counter("requests", 1234);
  r.gauge("cache_bytes_held", 77);
  EXPECT_EQ(r.str(),
            "# TYPE ipdelta_requests counter\n"
            "ipdelta_requests 1234\n"
            "# TYPE ipdelta_cache_bytes_held gauge\n"
            "ipdelta_cache_bytes_held 77\n");
}

TEST(PrometheusRenderer, LabeledSeriesEmitTypeOnce) {
  PrometheusRenderer r;
  r.counter("stage_ns", "stage", "diff", 5);
  r.counter("stage_ns", "stage", "encode", 9);
  const std::string& text = r.str();
  EXPECT_EQ(count_occurrences(text, "# TYPE ipdelta_stage_ns counter"), 1u);
  EXPECT_NE(text.find("ipdelta_stage_ns{stage=\"diff\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("ipdelta_stage_ns{stage=\"encode\"} 9\n"),
            std::string::npos);
}

TEST(PrometheusRenderer, HistogramRendersSummary) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  PrometheusRenderer r;
  r.histogram("serve_ns", h.snapshot());
  const std::string& text = r.str();
  EXPECT_NE(text.find("# TYPE ipdelta_serve_ns summary"), std::string::npos);
  EXPECT_NE(text.find("ipdelta_serve_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ipdelta_serve_ns{quantile=\"0.9\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ipdelta_serve_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ipdelta_serve_ns_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("ipdelta_serve_ns_count 100\n"), std::string::npos);
}

}  // namespace
}  // namespace ipd::obs
