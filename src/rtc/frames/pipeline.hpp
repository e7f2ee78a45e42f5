// Frame-sequence driver: the interactive-rendering scenario (a camera
// sweep) run through the frame pipeline — render → encode → composite
// → deliver, with up to max_in_flight frames overlapped on the virtual
// clock (FrameScheduler), a temporal-coherence cache persisting across
// frames, and optional incremental tile delivery (TileSink).
//
// Each frame still runs its composition as one collective on a fresh
// World — determinism and fault isolation come for free: the composed
// images of a pipelined K-frame run are bit-identical to K sequential
// single-shot runs, and a fault injected at frame k can only degrade
// frame k. Under PeerLoss::kRecompose the sequence is additionally
// *self-healing*: a rank that crashes at frame k is removed from the
// membership for good, and frames k+1... re-partition its sub-volume
// among the survivors — they composite at full quality, bit-identical
// to a from-scratch run over the survivor count. What the pipeline
// changes is the *timeline*: frame f+1's render overlaps frame f's
// composition, so the sequence makespan drops below the sum of
// per-frame times (bench_frame_pipeline pins the gap).
//
// A frame is render_view → run_composition → placement on the
// timeline. FrameStep is the part after rendering that run_sequence
// and service::run_service share, the frame's rung rule included; each
// driver keeps what differs on purpose (how a rung is proposed, what a
// stale/blank serve delivers, caches, sinks, sessions).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "rtc/frames/scheduler.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/obs/span.hpp"

namespace rtc::frames {

/// One camera view of a dataset, everything the render stage needs.
/// Shared by the sweep pipeline (run_sequence) and the render service
/// (service::run_service), which both re-render per view.
struct ViewSpec {
  std::string dataset = "engine";
  int volume_n = 64;
  int image_size = 256;
  double yaw_deg = 0.0;
  double pitch_deg = 15.0;
  std::string renderer = "shearwarp";  ///< one of render::kRendererNames
};

/// Renders one view for `ranks` ranks: harness::render_scene over
/// balanced slabs, re-partitioned per view (the principal axis can
/// change as the camera moves). `ranks` is the *effective* rank count
/// — under kRecompose a dead rank's slab is re-absorbed by
/// balanced_slab_1d so later views stay full-quality. An unknown
/// `view.renderer` throws ContractError before any work.
[[nodiscard]] harness::RenderedScene render_view(const ViewSpec& view,
                                                 int ranks, int& axis_out);

/// One pipeline-level span: frame-stamped, virtual clock only.
[[nodiscard]] obs::Span frame_span(obs::SpanKind kind, int frame,
                                   double begin, double end);

/// The per-frame step of both frame drivers: the survivor set, each
/// frame's CompositionConfig and its placement on the timeline.
class FrameStep {
 public:
  /// `comp` is every frame's composition template. Its fault plan
  /// applies whole only to frame `fault_frame` (-1: no frame); every
  /// other frame runs its chronic part (FaultPlan::chronic).
  FrameStep(harness::CompositionConfig comp, int ranks, int fault_frame,
            int max_in_flight)
      : comp_(std::move(comp)),
        fault_frame_(fault_frame),
        ranks_(ranks),
        sched_(max_in_flight) {}

  /// Surviving rank count: what the next frame renders and composes.
  [[nodiscard]] int ranks() const { return ranks_; }
  /// Ranks permanently removed so far (PeerLoss::kRecompose only).
  [[nodiscard]] int ranks_lost() const { return ranks_lost_; }
  [[nodiscard]] const FrameScheduler& scheduler() const { return sched_; }

  /// The frame-level rule of the error contract, the same for both
  /// drivers. A stale or blank `proposed` rung (clamped to the policy's
  /// max_rung) is served only when its a-priori bound of 255 fits under
  /// max_error. Any other frame composes at min(rung, kProgressive),
  /// and run_composition enforces the contract on its partials, once.
  [[nodiscard]] quality::Rung frame_rung(quality::Rung proposed) const;

  /// Frame `frame`'s composition config at `rung` over the caller's
  /// rank-keyed caches (nullptr: none); `stale` is used only under a
  /// deadline. The wire seq epoch is `frame & 0xfff`.
  [[nodiscard]] harness::CompositionConfig config(
      int frame, quality::Rung rung, CoherenceCache* coherence,
      comm::StaleStore* stale) const;

  /// A composed frame's time on the pipeline: under a deadline the
  /// gather root's delivery (a straggler's own clock may run past it),
  /// otherwise the makespan.
  [[nodiscard]] double composite_time(
      const harness::CompositionRun& run) const {
    return comp_.deadline > 0.0 ? run.delivery_time : run.time;
  }

  /// Admits the next frame no earlier than `earliest_start`; appends
  /// its kRender, kQueueWait (when it waited) and kCompute spans to
  /// `spans` unless that is nullptr.
  FrameTiming admit(double render_time, double composite_time,
                    double earliest_start, std::vector<obs::Span>* spans);

  /// Under PeerLoss::kRecompose a rank that dies stays dead: drops the
  /// ranks `stats` reports dead, and a method whose applicability rule
  /// breaks at the survivor count falls back to its any-P sibling.
  /// True when the set shrank: the caller's rank-keyed caches must then
  /// restart at ranks().
  bool drop_dead(const comm::RunStats& stats);

 private:
  harness::CompositionConfig comp_;
  int fault_frame_;
  int ranks_;
  int ranks_lost_ = 0;
  FrameScheduler sched_;
};

struct PipelineConfig {
  // Scene: a camera sweep over one of the paper's datasets.
  std::string dataset = "engine";
  int ranks = 8;
  int volume_n = 64;
  int image_size = 256;
  int frames = 8;
  double yaw0_deg = 0.0;     ///< first frame's yaw
  double sweep_deg = 360.0;  ///< total sweep; frame f is yaw0 + sweep*f/F
  double pitch_deg = 15.0;
  std::string renderer = "shearwarp";  ///< one of render::kRendererNames

  /// Per-frame composition settings (method, N, codec, network, trace,
  /// resilience). `fault` applies only at `fault_frame`; `frame_id`,
  /// `seq_epoch`, `coherence` and `sink` are overwritten per frame.
  harness::CompositionConfig comp;

  /// Pipeline depth M (FrameScheduler); 1 = strictly sequential.
  int max_in_flight = 2;

  /// Temporal-coherence caching across the sequence's frames.
  bool coherence = true;

  /// Incremental tile delivery; forces comp.gather. Not owned.
  TileSink* sink = nullptr;

  /// Frame whose composition runs under comp.fault (-1: no frame
  /// does). Fault isolation: only this frame can degrade. Fail-slow
  /// faults (compute slowdowns, link jitter) are *chronic*: they model
  /// a degraded node, not an event, so they apply on every frame
  /// regardless of fault_frame.
  int fault_frame = -1;

  /// Per-frame virtual-time deadline on the composition (seconds;
  /// 0 = none). Requires a degrading policy. Late blocks are
  /// substituted from the previous frame's content via a
  /// receiver-side staleness store owned by the sequence, and
  /// composite_time becomes the *delivery* time at the gather root.
  double deadline = 0.0;
};

struct FrameResult {
  FrameTiming timing;          ///< placement on the pipeline timeline
  double render_time = 0.0;    ///< R_f (virtual seconds)
  double composite_time = 0.0; ///< C_f (virtual seconds)
  double yaw_deg = 0.0;
  int axis = 0;                ///< principal view axis this frame
  harness::CompositionRun run; ///< stats + assembled image (gather)
};

struct SequenceResult {
  std::vector<FrameResult> frames;
  double makespan = 0.0;          ///< last frame's composite_end
  double total_queue_wait = 0.0;  ///< sum of backpressure stalls
  /// Pipeline-level spans (kRender / kQueueWait / kCompute for the
  /// composite interval), frame-stamped — mergeable with the per-rank
  /// spans in each frame's RunStats for a sequence-wide trace.
  std::vector<obs::Span> pipeline_spans;
  // Coherence totals across all frames (sender-side accounting).
  std::int64_t coherence_hits = 0;
  std::int64_t coherence_misses = 0;
  std::int64_t coherence_bytes_saved = 0;
  // Self-healing accounting (PeerLoss::kRecompose); all stay 0 on a
  // fault-free sequence, and print_sequence only reports them when
  // they moved — zero-fault output is byte-identical to the legacy
  // format.
  std::int64_t recomposes = 0;  ///< in-frame recomposition passes
  int ranks_lost = 0;           ///< ranks permanently removed mid-sweep
  std::uint32_t max_epoch = 0;  ///< highest membership epoch reached
  // Fail-slow accounting (deadline / staleness); all stay 0 without a
  // deadline and fail-slow faults, and print_sequence only reports
  // them when they moved.
  std::int64_t deadline_misses = 0;  ///< late arrivals clamped
  std::int64_t stale_tiles = 0;      ///< blocks served from last frame
  std::int64_t stale_pixels = 0;     ///< pixels in those blocks
  int max_pixel_error = 0;  ///< worst per-channel error vs exact composite
  // Quality-ladder accounting (all 0 while comp.quality never leaves
  // the exact rung; print_sequence reports them only when they moved).
  int quality_frames = 0;  ///< frames executed below the exact rung
  int quality_floor = 0;   ///< deepest quality::Rung any frame hit
  int error_bound = 0;     ///< worst a-priori error bound reported
  std::int64_t approx_pixels = 0;  ///< blends skipped by the approx rung
  std::int64_t coarse_pixels = 0;  ///< unrefined coarse pixels delivered

  [[nodiscard]] double hit_rate() const {
    const std::int64_t n = coherence_hits + coherence_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(coherence_hits) /
                        static_cast<double>(n);
  }
  [[nodiscard]] double frames_per_second() const {
    return makespan > 0.0
               ? static_cast<double>(frames.size()) / makespan
               : 0.0;
  }
  [[nodiscard]] double sequential_time() const {
    double s = 0.0;
    for (const FrameResult& f : frames)
      s += f.render_time + f.composite_time;
    return s;
  }
};

/// Runs the configured sweep through the frame pipeline. Deterministic
/// in virtual time; the per-frame images are independent of
/// max_in_flight and of the coherence setting.
[[nodiscard]] SequenceResult run_sequence(const PipelineConfig& cfg);

/// Per-frame timeline table plus sequence summary (makespan, modeled
/// rate, coherence hit rate) for CLI/example output.
void print_sequence(std::ostream& os, const PipelineConfig& cfg,
                    const SequenceResult& seq);

}  // namespace rtc::frames
