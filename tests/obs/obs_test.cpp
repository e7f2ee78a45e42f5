// Tests for the per-rank tracing & metrics layer (src/rtc/obs).
//
// The load-bearing properties: recording is allocation-bounded (ring
// overflow counts, never grows), span content is deterministic across
// runs (virtual clock only), and arming the recorder never perturbs a
// run's virtual-time results — traced and untraced runs must agree
// bit-for-bit on every clock and counter.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtc/harness/experiment.hpp"
#include "rtc/harness/metrics.hpp"
#include "rtc/harness/trace.hpp"
#include "rtc/obs/metrics.hpp"
#include "rtc/obs/recorder.hpp"
#include "rtc/obs/span.hpp"
#include "rtc/obs/trace_json.hpp"
#include "testutil.hpp"

namespace rtc {
namespace {

std::vector<img::Image> test_partials(int ranks, int size = 64) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(
        test::banded_image(size, size, static_cast<std::uint32_t>(r + 1)));
  return out;
}

harness::CompositionConfig traced_config() {
  harness::CompositionConfig cfg;
  cfg.method = "rt_2n";
  cfg.initial_blocks = 4;
  cfg.codec = "trle";
  cfg.record_spans = true;
  return cfg;
}

#if !defined(RTC_OBS_DISABLED)

TEST(Recorder, RingOverflowCountsDropped) {
  obs::TraceRecorder rec;
  rec.arm(4);
  ASSERT_TRUE(rec.enabled());
  for (int i = 0; i < 6; ++i) {
    obs::Span s;
    s.step = i;
    rec.record(s);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<obs::Span> spans = rec.drain();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest two were overwritten; recording order is preserved.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(spans[static_cast<std::size_t>(i)].step, i + 2);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.size(), 0u);
}

TEST(Obs, SpansAreWellFormedAndOrdered) {
  const harness::CompositionRun run =
      harness::run_composition(traced_config(), test_partials(4));
  ASSERT_TRUE(run.stats.has_spans());
  EXPECT_EQ(run.stats.total_spans_dropped(), 0u);
  for (const comm::RankStats& r : run.stats.ranks) {
    ASSERT_FALSE(r.spans.empty());
    double prev_end = 0.0;
    for (const obs::Span& s : r.spans) {
      EXPECT_GE(s.v_begin, 0.0);
      EXPECT_GE(s.v_end, s.v_begin);
      EXPECT_GE(s.wall_end_ns, s.wall_begin_ns);
      // Spans are recorded at completion and clocks are monotone.
      EXPECT_GE(s.v_end, prev_end);
      prev_end = s.v_end;
      if (s.kind == obs::SpanKind::kSend ||
          s.kind == obs::SpanKind::kRecvWait) {
        EXPECT_GE(s.peer, 0);
        EXPECT_GE(s.step, 1);
      }
    }
    // Every rank both encodes and decodes under rt_2n with a codec.
    bool saw_encode = false, saw_decode_blend = false;
    for (const obs::Span& s : r.spans) {
      saw_encode |= s.kind == obs::SpanKind::kEncode;
      saw_decode_blend |= s.kind == obs::SpanKind::kDecodeBlend;
    }
    EXPECT_TRUE(saw_encode);
    EXPECT_TRUE(saw_decode_blend);
  }
}

TEST(Obs, SpanTimeBudgetFitsTheClock) {
  // A rank's spans cover disjoint stretches of its virtual clock, so
  // their durations never add up to more than its final clock.
  for (const char* method :
       {"rt_2n", "bswap", "pp", "radix", "direct", "hier"}) {
    harness::CompositionConfig cfg = traced_config();
    cfg.method = method;
    const harness::CompositionRun run =
        harness::run_composition(cfg, test_partials(4));
    for (const comm::RankStats& r : run.stats.ranks) {
      double busy = 0.0;
      for (const obs::Span& s : r.spans) busy += s.v_end - s.v_begin;
      EXPECT_GT(busy, 0.0) << method;
      EXPECT_LE(busy, r.clock + 1e-9) << method;
    }
  }
}

TEST(Obs, SpanContentIsDeterministicAcrossRuns) {
  const std::vector<img::Image> partials = test_partials(4);
  const harness::CompositionRun a =
      harness::run_composition(traced_config(), partials);
  const harness::CompositionRun b =
      harness::run_composition(traced_config(), partials);
  ASSERT_EQ(a.stats.ranks.size(), b.stats.ranks.size());
  for (std::size_t r = 0; r < a.stats.ranks.size(); ++r) {
    const auto& sa = a.stats.ranks[r].spans;
    const auto& sb = b.stats.ranks[r].spans;
    ASSERT_EQ(sa.size(), sb.size()) << "rank " << r;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].kind, sb[i].kind);
      EXPECT_EQ(sa[i].step, sb[i].step);
      EXPECT_EQ(sa[i].peer, sb[i].peer);
      EXPECT_EQ(sa[i].bytes, sb[i].bytes);
      EXPECT_EQ(sa[i].aux, sb[i].aux);
      // Virtual timestamps are bit-exact; wall timestamps are not.
      EXPECT_EQ(sa[i].v_begin, sb[i].v_begin);
      EXPECT_EQ(sa[i].v_end, sb[i].v_end);
    }
  }
}

TEST(Obs, MetricsMatchRunStats) {
  const harness::CompositionRun run =
      harness::run_composition(traced_config(), test_partials(4));
  std::vector<std::vector<obs::Span>> per_rank;
  for (const comm::RankStats& r : run.stats.ranks)
    per_rank.push_back(r.spans);
  const std::vector<obs::StepMetrics> rows =
      obs::aggregate_steps(per_rank);
  const obs::StepMetrics total = obs::totals(rows);
  EXPECT_EQ(total.messages, run.stats.total_messages());
  EXPECT_EQ(total.wire_bytes, run.stats.total_bytes_sent());
  EXPECT_EQ(total.faults_recovered, 0);
  // TRLE on banded images compresses and skips blank runs.
  EXPECT_GT(total.ratio(), 1.0);
  EXPECT_GT(total.blank_pixels_skipped, 0);
  EXPECT_GT(total.blend_pixels, 0);
  EXPECT_GT(total.send_s, 0.0);
  EXPECT_GT(total.codec_s, 0.0);

  std::ostringstream os;
  harness::write_metrics(run.stats, os);
  EXPECT_NE(os.str().find("total"), std::string::npos);
  EXPECT_NE(os.str().find("ratio"), std::string::npos);
}

TEST(Obs, PerfettoExportIsLoadableShape) {
  const harness::CompositionRun run =
      harness::run_composition(traced_config(), test_partials(4));
  const std::string path =
      ::testing::TempDir() + "obs_perfetto_trace.json";
  harness::write_perfetto_trace(run.stats, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 3\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  std::remove(path.c_str());
}

TEST(Obs, RetransmitSpansAccountForRecoveredFaults) {
  harness::CompositionConfig cfg = traced_config();
  cfg.fault.seed = 7;
  cfg.fault.drop = 0.2;
  const harness::CompositionRun run =
      harness::run_composition(cfg, test_partials(4));
  std::int64_t recovered = 0;
  for (const comm::RankStats& r : run.stats.ranks)
    for (const obs::Span& s : r.spans)
      if (s.kind == obs::SpanKind::kRetransmit) recovered += s.aux;
  EXPECT_GT(recovered, 0);
  EXPECT_EQ(recovered, run.stats.total_retransmits() +
                           run.stats.total_drops_detected());
}

#else  // RTC_OBS_DISABLED

TEST(Obs, DisabledBuildRecordsNothing) {
  obs::TraceRecorder rec;
  rec.arm(64);
  EXPECT_FALSE(rec.enabled());
  rec.record(obs::Span{});
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.drain().empty());

  const harness::CompositionRun run =
      harness::run_composition(traced_config(), test_partials(4));
  EXPECT_FALSE(run.stats.has_spans());
}

#endif  // RTC_OBS_DISABLED

TEST(Obs, TracingNeverPerturbsVirtualTime) {
  // The central zero-cost contract: arming the recorder changes no
  // clock, counter, or payload byte. Exact ==, not near.
  const std::vector<img::Image> partials = test_partials(4);
  harness::CompositionConfig off = traced_config();
  off.record_spans = false;
  const harness::CompositionRun a =
      harness::run_composition(off, partials);
  const harness::CompositionRun b =
      harness::run_composition(traced_config(), partials);
  EXPECT_EQ(a.time, b.time);
  ASSERT_EQ(a.stats.ranks.size(), b.stats.ranks.size());
  for (std::size_t r = 0; r < a.stats.ranks.size(); ++r) {
    EXPECT_EQ(a.stats.ranks[r].clock, b.stats.ranks[r].clock);
    EXPECT_EQ(a.stats.ranks[r].messages_sent,
              b.stats.ranks[r].messages_sent);
    EXPECT_EQ(a.stats.ranks[r].bytes_sent, b.stats.ranks[r].bytes_sent);
    EXPECT_EQ(a.stats.ranks[r].pixels_composited,
              b.stats.ranks[r].pixels_composited);
    EXPECT_EQ(a.stats.ranks[r].marks, b.stats.ranks[r].marks);
  }
  EXPECT_TRUE(a.stats.ranks[0].spans.empty());
}

TEST(Obs, MetricsWriterNotesMissingSpans) {
  comm::RunStats stats;
  stats.ranks.emplace_back();
  std::ostringstream os;
  harness::write_metrics(stats, os);
  EXPECT_NE(os.str().find("no spans recorded"), std::string::npos);
}

}  // namespace
}  // namespace rtc
