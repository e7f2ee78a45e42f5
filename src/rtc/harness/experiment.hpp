// Composition experiment driver: run one (method, N, codec, network)
// configuration over a set of partial images and report the virtual
// composition time — the quantity plotted in the paper's figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rtc/comm/executor.hpp"
#include "rtc/comm/fault.hpp"
#include "rtc/comm/network_model.hpp"
#include "rtc/comm/stats.hpp"
#include "rtc/image/image.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/quality/quality.hpp"

namespace rtc::comm {
class StaleStore;
}  // namespace rtc::comm

namespace rtc::frames {
class CoherenceCache;
class TileSink;
}  // namespace rtc::frames

namespace rtc::harness {

struct CompositionConfig {
  std::string method = "rt_n";  ///< see compositing::compositor_names()
  int initial_blocks = 1;       ///< the paper's N (RT methods only)
  std::string codec;            ///< "", "raw", "rle", "trle", "bbox"
  comm::NetworkModel net = comm::sp2_hps_model();
  bool gather = false;  ///< paper's composition time excludes gather
  /// Rank executor (comm/executor.hpp): pooled fibers by default, so
  /// P=1024–4096 runs without spawning P kernel threads. Virtual times
  /// are bit-identical across executors.
  comm::ExecutorConfig executor;
  /// "hier" only: ranks per node-group (0 = ceil(sqrt(P))) and the
  /// methods run within groups / across group leaders.
  int group_size = 0;
  std::string hier_intra = "rt";
  std::string hier_inter = "bswap_any";
  bool aggregate_messages = false;  ///< one message per receiver/step
  img::BlendMode blend = img::BlendMode::kOver;
  /// Arm the obs tracing layer: per-rank span rings drained into
  /// RunStats::spans (see docs/observability.md). Off by default; a
  /// traced run's virtual times are identical to an untraced one.
  bool record_spans = false;
  std::size_t trace_capacity = std::size_t{1} << 16;  ///< spans per rank
  /// Chaos knobs: deterministic fault schedule (default: none — the
  /// zero-fault path is bit-identical to the pre-resilience build) and
  /// the retry/peer-loss policy applied to both the wire protocol and
  /// the compositors.
  comm::FaultPlan fault;
  comm::ResiliencePolicy resilience;
  // --- frame-pipeline hooks (rtc/frames; frames::run_sequence sets
  // these). Defaults leave single-shot runs bit-identical. ---
  /// Sender-side temporal-coherence cache shared across a sequence's
  /// frames (sized to the rank count). Null: classic wire format.
  frames::CoherenceCache* coherence = nullptr;
  /// Incremental tile delivery at the root (requires `gather`).
  frames::TileSink* sink = nullptr;
  /// Frame index stamped onto spans and sink deliveries; -1 means
  /// single-shot (spans unstamped, sinks see frame 0).
  int frame_id = -1;
  /// Wire sequence-number epoch (World::set_seq_epoch): frame f of a
  /// sequence uses epoch f so stale retransmits of frame f-1 can never
  /// alias into frame f's dedup window. Epoch 0 reproduces the
  /// historical numbering exactly.
  std::uint32_t seq_epoch = 0;
  /// Per-frame virtual-time deadline (seconds; 0 = none). Requires a
  /// degrading resilience policy: past the deadline a receiver stops
  /// waiting and substitutes stale or blank content instead of pixels
  /// that will never make the frame. Recovery passes and control-plane
  /// traffic are exempt (a deadline never starves self-healing).
  double deadline = 0.0;
  /// Receiver-side staleness store shared across a sequence's frames
  /// (frames::run_sequence owns one). Null: late blocks degrade to
  /// blank losses instead of last frame's content.
  comm::StaleStore* stale = nullptr;
  // --- quality ladder (rtc/quality; docs/quality.md) --------------
  /// Error contract + rung tuning (saturation, coarse factor,
  /// max_error). Defaults never degrade.
  quality::QualityPolicy quality;
  /// Requested rung for THIS composition. Only kExact, kApprox and
  /// kProgressive run here — the kStale/kBlank rungs skip composition
  /// entirely and live in the frames/service drivers
  /// (frames::FrameStep::frame_rung). The error contract is enforced
  /// here, once, before execution: a rung whose a-priori bound exceeds
  /// quality.max_error falls back toward exact, and the
  /// rung actually executed lands in RunStats::quality_rung with its
  /// bound in RunStats::error_bound.
  quality::Rung quality_rung = quality::Rung::kExact;
};

struct CompositionRun {
  double time = 0.0;      ///< virtual makespan (seconds)
  comm::RunStats stats;   ///< per-rank traffic, clocks, fault counters
  img::Image image;       ///< assembled image (when gather)
  bool degraded = false;  ///< some contribution was lost (stats say what)
  std::int64_t lost_pixels = 0;  ///< pixels substituted blank
  /// The gather root's final clock: when the frame was *delivered*.
  /// Under a deadline this is what the deadline bounds — the makespan
  /// still includes the straggler's own (possibly slowed) clock.
  double delivery_time = 0.0;
  /// Progressive rung only: virtual time the upsampled coarse pass was
  /// delivered at the root (first light; 0 otherwise). Always <=
  /// delivery_time.
  double first_light = 0.0;
  /// Progressive rung only: false when the deadline expired before the
  /// full-resolution refine pass, so the delivered image is the
  /// upsampled coarse composite (RunStats::coarse_pixels counts it).
  bool refined = true;
};

/// Runs the configured composition collectively over `partials`
/// (one per rank, depth-ordered). Deterministic in virtual time — with
/// or without a fault plan.
[[nodiscard]] CompositionRun run_composition(
    const CompositionConfig& config, const std::vector<img::Image>& partials);

/// One-line fault-counter summary for CLI/bench tables, e.g.
/// "retx=3 crc=1 drops=2 dups=0 lost_msgs=0 lost_px=0 dead=[] ok".
/// When the self-healing layer fired, ` epoch=N recomposed=N` and/or
/// ` relayed=N trips=N` appear between the dead list and the verdict;
/// the fail-slow layer adds ` delays=N` (after dups), ` jitter=N`,
/// ` stragglers=N hedged=N wins=N` and
/// ` deadline_miss=N stale=N stale_px=N max_px_err=N` the same way —
/// every token only when nonzero, so zero-fault summaries keep the
/// legacy format byte-for-byte.
[[nodiscard]] std::string fault_summary(const comm::RunStats& stats);

}  // namespace rtc::harness
