// Frame-pipeline end-to-end properties:
//  * determinism — a pipelined, coherence-cached K-frame run produces
//    the same images, frame for frame, as K sequential single-shots;
//  * fault isolation — a fault injected at frame k degrades exactly
//    frame k, with its neighbors bit-identical to the fault-free run;
//  * the overlapped timeline beats the sequential sum;
//  * sink delivery and frame-stamped pipeline spans.
#include <gtest/gtest.h>

#include <set>

#include "rtc/common/check.hpp"
#include "rtc/frames/pipeline.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/image/ops.hpp"

namespace rtc::frames {
namespace {

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.dataset = "engine";
  cfg.ranks = 4;
  cfg.volume_n = 32;
  cfg.image_size = 64;
  cfg.frames = 3;
  cfg.sweep_deg = 60.0;  // slow sweep: consecutive frames share blanks
  cfg.comp.method = "rt_n";
  cfg.comp.initial_blocks = 3;
  cfg.comp.codec = "trle";
  cfg.comp.gather = true;
  cfg.max_in_flight = 2;
  cfg.coherence = true;
  return cfg;
}

TEST(FramePipeline, PipelinedEqualsSequentialImageForImage) {
  const PipelineConfig pipelined = small_config();

  PipelineConfig sequential = small_config();
  sequential.max_in_flight = 1;
  sequential.coherence = false;

  const SequenceResult a = run_sequence(pipelined);
  const SequenceResult b = run_sequence(sequential);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    EXPECT_EQ(img::max_channel_diff(a.frames[f].run.image,
                                    b.frames[f].run.image),
              0);
    // Rendering is outside the coherence/pipeline machinery entirely.
    EXPECT_EQ(a.frames[f].render_time, b.frames[f].render_time);
  }
  // The overlapped timeline strictly beats the sequential sum of the
  // same per-frame times.
  EXPECT_LT(a.makespan, b.sequential_time());
  EXPECT_DOUBLE_EQ(b.makespan, b.sequential_time());
  // A slow sweep over mostly-blank margins must produce cache hits.
  EXPECT_GT(a.coherence_hits, 0);
  EXPECT_EQ(b.coherence_hits + b.coherence_misses, 0);
}

TEST(FramePipeline, FaultAtFrameKDegradesOnlyFrameK) {
  PipelineConfig clean = small_config();
  // Coherence off: with the cache on, a crash at frame 1 leaves the
  // dead rank's cache stale, which legitimately shifts frame 2's
  // hit/miss (and thus timing) pattern. Isolation of *results* is the
  // property under test here, and it must hold exactly.
  clean.coherence = false;
  clean.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kBlank;

  PipelineConfig faulty = clean;
  faulty.fault_frame = 1;
  faulty.comp.fault.seed = 606;
  faulty.comp.fault.crashes.push_back(
      {.rank = clean.ranks - 1, .after_sends = 1});

  const SequenceResult a = run_sequence(clean);
  const SequenceResult b = run_sequence(faulty);
  ASSERT_EQ(b.frames.size(), 3u);

  // Frame 1 ran under the crash plan and degraded.
  EXPECT_TRUE(b.frames[1].run.degraded);
  EXPECT_FALSE(b.frames[1].run.stats.dead_ranks().empty());

  // Its neighbors are bit-identical to the fault-free sequence — the
  // fault could not leak across the frame boundary in either
  // direction (fresh World per frame, per-frame seq epochs).
  for (const std::size_t f : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("frame " + std::to_string(f));
    EXPECT_FALSE(b.frames[f].run.degraded);
    EXPECT_EQ(img::max_channel_diff(a.frames[f].run.image,
                                    b.frames[f].run.image),
              0);
    EXPECT_EQ(a.frames[f].composite_time, b.frames[f].composite_time);
  }
}

TEST(FramePipeline, RunsAreDeterministic) {
  const PipelineConfig cfg = small_config();
  const SequenceResult a = run_sequence(cfg);
  const SequenceResult b = run_sequence(cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_queue_wait, b.total_queue_wait);
  EXPECT_EQ(a.coherence_hits, b.coherence_hits);
  EXPECT_EQ(a.coherence_bytes_saved, b.coherence_bytes_saved);
  for (std::size_t f = 0; f < a.frames.size(); ++f)
    EXPECT_EQ(img::max_channel_diff(a.frames[f].run.image,
                                    b.frames[f].run.image),
              0);
}

TEST(FramePipeline, SinkReceivesEveryFrame) {
  AssemblingSink sink;
  PipelineConfig cfg = small_config();
  cfg.comp.gather = false;  // run_sequence must force gather for the sink
  cfg.sink = &sink;
  const SequenceResult seq = run_sequence(cfg);
  ASSERT_EQ(sink.frame_count(), 3u);
  for (std::size_t f = 0; f < 3; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    EXPECT_EQ(img::max_channel_diff(sink.frame(f), seq.frames[f].run.image),
              0);
  }
  EXPECT_EQ(sink.pixels_delivered(),
            3 * std::int64_t{cfg.image_size} * cfg.image_size);
}

TEST(FramePipeline, PipelineSpansAreFrameStamped) {
  const PipelineConfig cfg = small_config();
  const SequenceResult seq = run_sequence(cfg);
  ASSERT_FALSE(seq.pipeline_spans.empty());
  std::set<int> render_frames, compute_frames;
  double queue_total = 0.0;
  for (const obs::Span& s : seq.pipeline_spans) {
    ASSERT_GE(s.frame, 0);
    ASSERT_LT(s.frame, cfg.frames);
    EXPECT_GE(s.v_end, s.v_begin);
    switch (s.kind) {
      case obs::SpanKind::kRender:
        render_frames.insert(s.frame);
        break;
      case obs::SpanKind::kCompute:
        compute_frames.insert(s.frame);
        break;
      case obs::SpanKind::kQueueWait:
        queue_total += s.v_duration();
        break;
      default:
        FAIL() << "unexpected pipeline span kind "
               << obs::span_name(s.kind);
    }
  }
  // Every frame contributes a render and a composite interval, and the
  // queue-wait spans account for exactly the scheduler's stalls.
  EXPECT_EQ(render_frames.size(), static_cast<std::size_t>(cfg.frames));
  EXPECT_EQ(compute_frames.size(), static_cast<std::size_t>(cfg.frames));
  EXPECT_DOUBLE_EQ(queue_total, seq.total_queue_wait);
}

#if !defined(RTC_OBS_DISABLED)
TEST(FramePipeline, PerFrameSpansCarryTheFrameId) {
  PipelineConfig cfg = small_config();
  cfg.frames = 2;
  cfg.comp.record_spans = true;
  const SequenceResult seq = run_sequence(cfg);
  for (int f = 0; f < 2; ++f) {
    const auto& st = seq.frames[static_cast<std::size_t>(f)].run.stats;
    ASSERT_TRUE(st.has_spans());
    for (const comm::RankStats& r : st.ranks)
      for (const obs::Span& s : r.spans) EXPECT_EQ(s.frame, f);
  }
}
#endif  // RTC_OBS_DISABLED

TEST(FramePipeline, SelfHealingSequenceRepartitionsAroundTheDeadRank) {
  // Under kRecompose a crash at frame 1 costs exactly one degraded
  // frame: frame 0 is untouched, frame 1 recomposes to the survivors'
  // exact partial composite, and frames 2+ re-partition the volume
  // over the survivors — bit-identical to a from-scratch sequence that
  // never had the dead rank at all.
  PipelineConfig healing = small_config();
  healing.coherence = false;  // a dead rank invalidates cache sizing
  healing.comp.method = "rt";  // generalized: any rank count
  healing.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  healing.fault_frame = 1;
  healing.comp.fault.seed = 606;
  healing.comp.fault.crashes.push_back(
      {.rank = healing.ranks - 1, .after_sends = 0});

  // Same policy, no fault plan: with a zero crash budget the recovery
  // driver provably sends nothing, so these are plain clean runs.
  PipelineConfig clean4 = small_config();
  clean4.coherence = false;
  clean4.comp.method = "rt";
  clean4.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;

  PipelineConfig clean3 = clean4;
  clean3.ranks = 3;  // the survivors, from scratch

  const SequenceResult h = run_sequence(healing);
  const SequenceResult c4 = run_sequence(clean4);
  const SequenceResult c3 = run_sequence(clean3);
  ASSERT_EQ(h.frames.size(), 3u);

  // Frame 0: before the fault, the full world composes normally.
  EXPECT_FALSE(h.frames[0].run.degraded);
  EXPECT_EQ(img::max_channel_diff(h.frames[0].run.image,
                                  c4.frames[0].run.image),
            0);

  // Frame 1: the crash lands, the survivors recompose in-frame —
  // degraded (a sub-volume is gone) but with nothing blanked mid-wire.
  EXPECT_TRUE(h.frames[1].run.degraded);
  EXPECT_EQ(h.frames[1].run.stats.dead_ranks(),
            std::vector<int>{healing.ranks - 1});
  EXPECT_EQ(h.frames[1].run.stats.total_lost_pixels(), 0);
  EXPECT_GT(h.frames[1].run.stats.total_recomposes(), 0);
  EXPECT_EQ(h.frames[1].run.stats.max_membership_epoch(), 1u);

  // Frames 2+: full quality over the re-partitioned survivor volume.
  EXPECT_FALSE(h.frames[2].run.degraded);
  EXPECT_EQ(img::max_channel_diff(h.frames[2].run.image,
                                  c3.frames[2].run.image),
            0);
  EXPECT_EQ(h.frames[2].composite_time, c3.frames[2].composite_time);

  // Sequence-level recovery accounting; zero on the clean runs.
  EXPECT_EQ(h.ranks_lost, 1);
  EXPECT_GT(h.recomposes, 0);
  EXPECT_EQ(h.max_epoch, 1u);
  EXPECT_EQ(c4.ranks_lost, 0);
  EXPECT_EQ(c4.recomposes, 0);
  EXPECT_EQ(c4.max_epoch, 0u);
}

TEST(FramePipeline, SelfHealingFallsBackToAnyPMethod) {
  // rt_n requires an even processor count, so when the crash leaves 3
  // survivors the later frames must fall back to the generalized
  // schedule instead of tripping the even-P contract — and match a
  // from-scratch generalized 3-rank sequence exactly.
  PipelineConfig healing = small_config();
  healing.coherence = false;
  healing.comp.method = "rt_n";
  healing.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  healing.fault_frame = 1;
  healing.comp.fault.seed = 606;
  healing.comp.fault.crashes.push_back(
      {.rank = healing.ranks - 1, .after_sends = 0});

  PipelineConfig clean3 = small_config();
  clean3.coherence = false;
  clean3.ranks = 3;
  clean3.comp.method = "rt";
  clean3.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;

  const SequenceResult h = run_sequence(healing);
  const SequenceResult c3 = run_sequence(clean3);
  EXPECT_TRUE(h.frames[1].run.degraded);
  EXPECT_EQ(h.frames[1].run.stats.total_lost_pixels(), 0);
  EXPECT_FALSE(h.frames[2].run.degraded);
  EXPECT_EQ(img::max_channel_diff(h.frames[2].run.image,
                                  c3.frames[2].run.image),
            0);
  EXPECT_EQ(h.frames[2].composite_time, c3.frames[2].composite_time);
}

TEST(FramePipeline, SelfHealingIsDeterministic) {
  PipelineConfig cfg = small_config();
  cfg.coherence = false;
  cfg.comp.method = "rt";
  cfg.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  cfg.fault_frame = 1;
  cfg.comp.fault.seed = 606;
  cfg.comp.fault.crashes.push_back(
      {.rank = cfg.ranks - 1, .after_sends = 0});
  const SequenceResult a = run_sequence(cfg);
  const SequenceResult b = run_sequence(cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t f = 0; f < a.frames.size(); ++f)
    EXPECT_EQ(img::max_channel_diff(a.frames[f].run.image,
                                    b.frames[f].run.image),
              0);
  EXPECT_EQ(a.recomposes, b.recomposes);
  EXPECT_EQ(a.max_epoch, b.max_epoch);
}

TEST(FramePipeline, RunsPastTheSeqEpochRange) {
  // The wire seq epoch has 12 bits, so frame f runs in epoch f & 0xfff:
  // frame 4096 reuses frame 0's window instead of failing the range
  // check. A still camera makes every frame's image equal frame 0's.
  PipelineConfig cfg;
  cfg.ranks = 2;
  cfg.volume_n = 16;
  cfg.image_size = 8;
  cfg.frames = 4100;
  cfg.sweep_deg = 0.0;
  cfg.comp.gather = true;
  const SequenceResult seq = run_sequence(cfg);
  ASSERT_EQ(seq.frames.size(), 4100u);
  const img::Image& first = seq.frames[0].run.image;
  ASSERT_GT(first.pixel_count(), 0);
  for (std::size_t f = 1; f < seq.frames.size(); ++f)
    ASSERT_TRUE(seq.frames[f].run.image == first) << "frame " << f;
  EXPECT_EQ(seq.frames[4096].run.stats.ranks[0].seq_first,
            seq.frames[0].run.stats.ranks[0].seq_first);
  EXPECT_NE(seq.frames[4095].run.stats.ranks[0].seq_first,
            seq.frames[0].run.stats.ranks[0].seq_first);
}

TEST(FramePipeline, UnknownRendererIsAContractError) {
  ViewSpec view;
  view.volume_n = 16;
  view.image_size = 32;
  int axis = -1;
  for (const char* name : {"shearwarp", "raycast", "splat"}) {
    view.renderer = name;
    EXPECT_EQ(render_view(view, 2, axis).partials.size(), 2u) << name;
  }
  view.renderer = "bogus";
  EXPECT_THROW(static_cast<void>(render_view(view, 2, axis)), ContractError);
}

}  // namespace
}  // namespace rtc::frames
