// Quality-degradation ladder: approximate & progressive compositing
// with enforced error contracts.
//
// Exact over-compositing is the top rung of a ladder the system can
// step down under pressure instead of shedding or blanking work:
//
//   kExact        bit-exact composition (the default; rung 0)
//   kApprox       opacity-saturation early termination: a blend whose
//                 front accumulation is already >= `saturation` opaque
//                 skips folding the occluded back contribution
//   kProgressive  coarse-first: partials are box-downsampled by
//                 `coarse_factor`, composited at coarse resolution and
//                 delivered immediately (first light), then refined at
//                 full resolution if the deadline still allows
//   kStale        serve the previous frame's image without compositing
//   kBlank        serve a blank image (last resort before shedding)
//
// Error is a first-class contract. Every rung has an a-priori
// per-frame max-pixel-error bound (exact: 0, stale/blank: 255); a
// QualityPolicy's `max_error` REJECTS any rung whose bound exceeds it,
// falling back toward exact. `max_error == 0` therefore admits only
// the exact rung and stays byte-identical to the legacy path. The
// harness additionally measures the realized error against the exact
// reference composite and records both numbers in RunStats, so
// "approximate" is a measured contract, not a hope.
//
// Everything here is pure arithmetic over deterministic pixel data:
// rung selection and both bounds are bit-identical across executors
// and replays.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "rtc/image/image.hpp"

namespace rtc::quality {

/// Ladder rungs, best quality first. Numeric order IS degradation
/// order: stepping down the ladder increments the value.
enum class Rung : std::uint8_t {
  kExact = 0,
  kApprox = 1,
  kProgressive = 2,
  kStale = 3,
  kBlank = 4,
};

inline constexpr int kRungCount = 5;

[[nodiscard]] const char* rung_name(Rung r);

/// Parses a rung name ("exact", "approx", "progressive", "stale",
/// "blank"); nullopt on anything else.
[[nodiscard]] std::optional<Rung> parse_rung(const std::string& name);

/// Per-run (or per-session) quality knobs. Defaults keep the ladder
/// off: max_rung == kExact never degrades and is byte-identical to
/// builds that predate the subsystem.
struct QualityPolicy {
  /// Deepest rung the controller may step down to.
  Rung max_rung = Rung::kExact;
  /// Error contract: rungs whose a-priori per-frame bound exceeds this
  /// are rejected (the controller falls back toward exact). 0 admits
  /// only the exact rung; 255 admits everything.
  int max_error = 255;
  /// Approximate rung: skip folding the occluded side of a blend once
  /// the front accumulation's alpha reaches this value. Must be in
  /// [128, 255]; higher = tighter bound, fewer skips.
  int saturation = 240;
  /// Progressive rung: box-downsample factor for the coarse pass
  /// (>= 2).
  int coarse_factor = 4;
  /// Service layer: on admission-queue overflow, step the session's
  /// quality class down one rung instead of shedding a request.
  bool degrade_before_shed = false;

  /// True when the policy can ever leave the exact rung.
  [[nodiscard]] bool engaged() const { return max_rung != Rung::kExact; }
};

/// A-priori per-frame max-pixel-error bound of the approximate rung.
///
/// A single skipped blend discards a back contribution attenuated by
/// the saturated front: per channel <= 255 - saturation. Skips in
/// composition trees can chain, but every later skipped region for the
/// same pixel sits behind yet another saturated accumulation, so the
/// discarded mass decays geometrically by (255-sat)/255 per level:
/// total <= (255-sat) * 255/sat <= 2*(255-sat) for sat >= 128. The
/// +16 slack absorbs round-to-nearest drift across blend levels.
/// Saturations below 128 break the geometric argument and bound at
/// 255 (the policy check rejects them anyway).
[[nodiscard]] int approx_error_bound(int saturation);

/// A-priori per-frame max-pixel-error bound of the progressive rung's
/// coarse (unrefined) delivery, computed from the actual partials:
/// for every coarse cell, replacing each rank's pixels by their cell
/// box-average perturbs the composite by at most the sum over ranks of
/// that rank's in-cell (value range + alpha range); the bound is the
/// worst cell, plus rounding slack (one LSB per rank for the box
/// average, plus blend-tree drift), clamped to 255. Walks each partial
/// in bands of `coarse_factor` rows, visits only the cells that overlap
/// a band's non-blank columns, and returns 255 as soon as one cell's
/// running sum reaches the clamp. All partials must share dimensions.
[[nodiscard]] int progressive_error_bound(
    std::span<const img::Image> partials, int coarse_factor);

/// Live pressure signals a controller steps the ladder by. All fields
/// describe the PREVIOUS frame / current queue — deterministic
/// quantities in virtual time.
struct PressureSignals {
  bool deadline_missed = false;  ///< last frame blew its deadline
  bool stragglers = false;       ///< straggler detector / hedges fired
  bool peer_loss = false;        ///< a peer died or blocks were lost
  int queue_depth = 0;           ///< admission queue depth (service)
  int queue_cap = 0;             ///< admission queue capacity (0 = n/a)

  [[nodiscard]] bool any() const {
    return deadline_missed || stragglers || peer_loss ||
           (queue_cap > 0 && queue_depth >= queue_cap);
  }
};

/// Steps a rung one position down (degrade) or up (recover) the
/// ladder, clamped to [kExact, floor].
[[nodiscard]] Rung step_down(Rung r, Rung floor);
[[nodiscard]] Rung step_up(Rung r);

/// Per-sequence ladder state machine: under pressure, step one rung
/// down per frame (never past policy.max_rung); once pressure clears,
/// recover one rung per frame back toward exact. Hysteresis is one
/// frame in each direction — deterministic and replayable.
class QualityController {
 public:
  explicit QualityController(const QualityPolicy& policy)
      : policy_(policy) {}

  /// Chooses the rung for the next frame from the pressure signals.
  Rung choose(const PressureSignals& p) {
    if (!policy_.engaged()) return Rung::kExact;
    current_ = p.any() ? step_down(current_, policy_.max_rung)
                       : step_up(current_);
    return current_;
  }

  [[nodiscard]] Rung current() const { return current_; }
  void reset() { current_ = Rung::kExact; }
  [[nodiscard]] const QualityPolicy& policy() const { return policy_; }

 private:
  QualityPolicy policy_;
  Rung current_ = Rung::kExact;
};

/// The error contract applied to a proposed rung: the executed rung
/// and the a-priori bound it reports.
struct RungChoice {
  Rung rung = Rung::kExact;
  int bound = 0;
};

/// Returns the a-priori bound of `r` under `policy`; `partials` are
/// needed only for the progressive rung (pass {} otherwise, which
/// bounds progressive at 255).
[[nodiscard]] int rung_error_bound(Rung r, const QualityPolicy& policy,
                                   std::span<const img::Image> partials);

/// Enforces the contract: walks `proposed` back toward exact until the
/// rung's a-priori bound fits under policy.max_error, and returns the
/// first admitted rung with its bound. Always terminates at kExact
/// (bound 0).
[[nodiscard]] RungChoice enforce_contract(
    Rung proposed, const QualityPolicy& policy,
    std::span<const img::Image> partials);

}  // namespace rtc::quality
