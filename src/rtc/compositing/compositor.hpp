// Image-composition method interface.
//
// Every method is a *collective*: all ranks call run() with their local
// partial image (identical dimensions everywhere); the composited image
// is returned on the root rank (a default-constructed Image elsewhere).
// Rank index is depth order: rank 0 is front-most, as produced by the
// renderer's view-sorted partition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rtc/comm/world.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/image/image.hpp"
#include "rtc/image/ops.hpp"

namespace rtc::frames {
class CoherenceCache;
class TileSink;
}  // namespace rtc::frames

namespace rtc::compositing {

struct Options {
  /// Initial blocks per sub-image (the paper's N). Used by the RT
  /// methods; binary swap and direct send always start from one block
  /// and parallel-pipelined always uses P blocks.
  int initial_blocks = 1;

  /// Wire codec; nullptr means uncompressed (2 bytes/pixel).
  const compress::Codec* codec = nullptr;

  /// Pixel merge operator. kOver is the paper's setting; kMax (MIP) is
  /// commutative, which makes even the loose parallel-pipelined ring
  /// order-exact.
  img::BlendMode blend = img::BlendMode::kOver;

  /// Gather the final distributed blocks to `root` after compositing.
  /// The paper's composition-time figures exclude this, so benches turn
  /// it off; tests keep it on to check the assembled image.
  bool gather = true;
  int root = 0;

  /// Schedule-built methods (rt*, bswap, bswap_any, direct): coalesce
  /// all blocks bound for the same receiver in one step into a single
  /// message (the batching of the paper's Figure 1 example). Trades
  /// per-message startup for pipelining granularity — see
  /// bench_ablation. Default off, matching the paper's per-message cost
  /// accounting.
  bool aggregate_messages = false;

  /// Reaction to unrecoverable wire faults and dead peers (fault.hpp).
  /// With kBlank a lost contribution is substituted by an all-blank
  /// block (the TRLE all-blank template — identity under both `over`
  /// and `max`), the lost block ids/pixels are recorded in the
  /// RunStats, and the method terminates with a degraded image instead
  /// of throwing. With kThrow (default) a loss propagates as a typed
  /// comm::CommError. `retries`/`timeout` take effect when the policy
  /// is also installed on the World (harness::run_composition does).
  comm::ResiliencePolicy resilience;

  /// Quality ladder's approximate rung (kApprox): when > 0 and the
  /// blend is kOver, the fused decode-blend of an incoming block skips
  /// pixels whose front accumulation is already >= this alpha, and
  /// only the actually-blended pixels are charged To. Per-pixel error
  /// versus exact is <= 255 - saturation; skips are recorded via
  /// Comm::note_approx. 0 (default) is the exact path, byte-identical
  /// to pre-quality builds. Engaged on the fused wire path (direct,
  /// bswap, bswap_any, rt*, hier); the pp ring's traveling-segment
  /// blends stay exact (their error contribution is 0).
  int approx_saturation = 0;

  // --- frame-pipeline hooks (frames subsystem) --------------------
  // All default to "off": a single-shot run with these at their
  // defaults is bit-identical to the pre-frames build.

  /// Temporal-coherence cache shared across the frames of a sequence
  /// (sized to the world's rank count). When set, block transfers use
  /// the coherent wire format: unchanged blocks skip re-encoding and
  /// unchanged all-blank blocks travel as a one-byte marker. The
  /// parallel-pipelined ring's traveling segments are not cached (a
  /// segment's content depends on every upstream rank, so its slot is
  /// effectively always dirty); pp still participates in sink
  /// delivery. Null: classic wire format.
  frames::CoherenceCache* coherence = nullptr;

  /// Incremental tile delivery at the root during gather (requires
  /// `gather`). Null: only the returned img::Image materializes.
  frames::TileSink* sink = nullptr;

  /// Frame index forwarded to sink deliveries; pair it with
  /// CompositionConfig::frame_id so spans and tiles agree.
  int frame_id = 0;

  // --- hierarchical ("hier") only ---------------------------------

  /// Ranks per node-group of the two-level schedule: `hier_intra`
  /// composites within each contiguous group of this many ranks, then
  /// `hier_inter` composites the group leaders' results. 0 picks
  /// ceil(sqrt(P)), which balances the two levels' step counts. See
  /// docs/scaling.md.
  int group_size = 0;

  /// Level-1 method (within a group). Any method but "hier".
  std::string hier_intra = "rt";

  /// Level-2 method (across group leaders). Any method but "hier".
  std::string hier_inter = "bswap_any";
};

class Compositor {
 public:
  virtual ~Compositor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Composites the partial images of all ranks. Collective call.
  ///
  /// Under ResiliencePolicy::PeerLoss::kRecompose this is a recovery
  /// driver: it runs run_core(), then drains the failure detector
  /// (comm::advance_epoch) to a fixpoint; if the membership epoch
  /// moved, it installs the survivor group view on `comm` and re-runs
  /// run_core() from the original partial over the (renumbered)
  /// survivors — bounded by the fault plan's crash budget. Under every
  /// other policy it is exactly one run_core() call.
  [[nodiscard]] img::Image run(comm::Comm& comm, const img::Image& partial,
                               const Options& opt) const;

  /// One composition pass over the current comm.size() ranks — the
  /// actual schedule (bswap pairing, RT rotation, ring, ...). Public so
  /// a method can run another method's core over a group view (hier's
  /// two levels); callers outside the compositing layer should use
  /// run().
  [[nodiscard]] virtual img::Image run_core(comm::Comm& comm,
                                            const img::Image& partial,
                                            const Options& opt) const = 0;
};

/// "bswap" (P must be a power of two), "pp" (paper-faithful ring),
/// "pp_exact" (order-correct ring refinement), "direct" (send-to-root),
/// "rt" / "rt_n" / "rt_2n" (rotate-tiling; see rtc/core), "hier"
/// (two-level: hier_intra within groups of group_size, hier_inter
/// across group leaders; see rtc/core/hierarchical.hpp). Throws on
/// unknown names.
[[nodiscard]] std::unique_ptr<Compositor> make_compositor(
    const std::string& name);

/// Names accepted by make_compositor, in presentation order.
[[nodiscard]] std::vector<std::string> compositor_names();

}  // namespace rtc::compositing
