// Deterministic fault injection for the message-passing substrate.
//
// The paper assumes a perfectly reliable SP2 interconnect; a production
// deployment cannot. This module describes faults (FaultPlan), decides
// them reproducibly (FaultInjector), and parameterizes how the runtime
// reacts (ResiliencePolicy).
//
// Determinism: every decision is a pure hash of
// (seed, src, dst, tag, seq, attempt) — independent of thread
// scheduling — so a faulty run is exactly as reproducible in virtual
// time as a clean one. Re-running a chaos experiment with the same seed
// replays the same drops, bit-flips, delays and crashes.
//
// Recovery model (see docs/fault_model.md): every message is framed and
// CRC-checksummed (frame.hpp). A dropped or corrupted delivery is
// detected — by retransmit timeout or by CRC/NACK respectively — and
// the sender retransmits with exponential backoff, up to
// ResiliencePolicy::retries times. Each failed attempt charges
// `timeout * 2^attempt + Ts + wire_time(payload)` of virtual time to
// the message's availability, so retries delay the receiver exactly as
// a real reliable protocol would. A message whose retry budget is
// exhausted is *lost*: the receiver observes CommError::kMessageLost
// (or a nullopt from try_recv) at the virtual time it gave up waiting.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "rtc/comm/network_model.hpp"

namespace rtc::comm {

/// How the runtime reacts to wire faults and dead peers.
struct ResiliencePolicy {
  /// Retransmissions attempted per message before declaring it lost.
  int retries = 4;
  /// Base retransmit timeout in *virtual* seconds; attempt i waits
  /// timeout * 2^i (exponential backoff).
  double timeout = 0.01;
  enum class PeerLoss {
    kThrow,  ///< recv throws CommError (fail-stop diagnostics)
    kBlank,  ///< compositors substitute an all-blank block and continue
    /// Like kBlank within a pass, but after the pass the survivors run
    /// the failure detector (membership.hpp), agree on a new membership
    /// epoch, and re-composite from scratch over the survivor schedule.
    kRecompose,
  };
  PeerLoss on_peer_loss = PeerLoss::kThrow;
  /// True for every mode in which a lost contribution degrades the
  /// result instead of aborting the run. Compositors branch on this —
  /// not on `== kBlank` — so recomposition inherits the blank-and-
  /// continue wire behavior inside each pass.
  [[nodiscard]] bool degrade_on_loss() const {
    return on_peer_loss != PeerLoss::kThrow;
  }

  /// Per-link circuit breaker (0 disables). After this many consecutive
  /// failed direct delivery attempts to one peer the link *opens*:
  /// while open — and when `relay` is set — traffic detours
  /// store-and-forward through a healthy third rank instead of burning
  /// the retry budget on a bad cable.
  int breaker_threshold = 0;
  /// Virtual seconds an open link waits before a half-open probe (one
  /// direct attempt; success closes the link, failure re-opens it).
  double breaker_cooldown = 0.05;
  /// Allow routing around open links through a relay rank.
  bool relay = false;

  // --- fail-slow tolerance (straggler detection + hedging) ---------

  /// Straggler detector threshold (0 disables). A peer's message is
  /// observed "slow" when its delivery ran more than this multiple of
  /// the cost model's healthy transfer time (costmodel::
  /// healthy_transfer_time); e.g. 3.0 flags arrivals 3x the model.
  /// Detection is sender-side: the sender compares the shaped delivery
  /// delay of its own sends against the expectation, so the decision
  /// rides the deterministic message DAG.
  double straggler_multiple = 0.0;
  /// Consecutive slow observations on one link before the peer is
  /// flagged a straggler. One healthy delivery unflags it.
  int straggler_window = 2;
  /// Hedge sends to flagged stragglers through the relay path (first
  /// arrival wins; the loser is deduped by sequence number like any
  /// injected duplicate). Independent of the circuit breaker: hedging
  /// never opens a link or consumes breaker state.
  bool hedge = false;
};

/// A seeded schedule of faults. All rates are per-delivery-attempt
/// probabilities in [0, 1]; crashes are threshold-triggered.
struct FaultPlan {
  std::uint64_t seed = 0;

  double drop = 0.0;       ///< P(attempt silently dropped)
  double corrupt = 0.0;    ///< P(attempt arrives with a flipped bit)
  double duplicate = 0.0;  ///< P(message delivered twice)
  double delay = 0.0;      ///< P(delay spike on the message)
  double delay_mean = 0.0; ///< mean extra virtual seconds per spike

  /// Rank death. A rank crashes just before completing send number
  /// `after_sends + 1`, or at the first comm operation once its
  /// virtual clock reaches `at_time` — whichever triggers first.
  struct Crash {
    int rank = -1;
    int after_sends = -1;  ///< -1: no message-count trigger
    double at_time = std::numeric_limits<double>::infinity();
  };
  std::vector<Crash> crashes;

  /// Extra fault rates on one directed link (src -> dst), added on top
  /// of the global rates. Models a chronically bad cable without
  /// degrading the whole fabric — the circuit breaker's natural prey.
  struct LinkFault {
    int src = -1;
    int dst = -1;
    double drop = 0.0;
    double corrupt = 0.0;
    double duplicate = 0.0;
    double delay = 0.0;
    double delay_mean = 0.0;
    [[nodiscard]] bool any() const {
      return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || delay > 0.0;
    }
  };
  std::vector<LinkFault> links;

  /// Fail-slow: a rank whose *compute* runs `factor` times slower than
  /// the cost model (thermal throttling, a noisy neighbor). Charged on
  /// the virtual clock — every compute/codec/blend charge on that rank
  /// is multiplied — so schedules are perturbed realistically. Unlike
  /// wire faults this is chronic, not per-message.
  struct Slow {
    int rank = -1;
    double factor = 1.0;
  };
  std::vector<Slow> slows;

  /// Fail-slow: a directed link with chronic jitter. Every message on
  /// src -> dst arrives late by a deterministic `mean * (0.5 + u)`
  /// extra virtual seconds (u seeded per message) — a congested or
  /// flapping path, as opposed to the probabilistic delay spikes.
  struct Jitter {
    int src = -1;
    int dst = -1;
    double mean = 0.0;
  };
  std::vector<Jitter> jitters;

  [[nodiscard]] bool any_wire_faults() const {
    if (drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || delay > 0.0)
      return true;
    for (const LinkFault& l : links)
      if (l.any()) return true;
    return false;
  }
  /// True when any fail-slow injection (compute slowdown or link
  /// jitter) is configured with a nonzero magnitude.
  [[nodiscard]] bool any_fail_slow() const {
    for (const Slow& s : slows)
      if (s.factor > 1.0) return true;
    for (const Jitter& j : jitters)
      if (j.mean > 0.0) return true;
    return false;
  }
  [[nodiscard]] bool enabled() const {
    return any_wire_faults() || !crashes.empty() || any_fail_slow();
  }
  /// The chronic part: fail-slow faults model a degraded node, not an
  /// event, so slows, jitters and their seed apply on every frame.
  [[nodiscard]] FaultPlan chronic() const {
    FaultPlan p;
    p.seed = seed;
    p.slows = slows;
    p.jitters = jitters;
    return p;
  }
};

/// Everything the injector decided about one message, resolved at send
/// time (the decisions depend only on the plan and the message key, so
/// resolving them eagerly keeps the virtual-time DAG deterministic).
struct WireShaping {
  double extra_delay = 0.0;  ///< virtual seconds added to availability
  int retransmits = 0;       ///< resends performed
  int drops = 0;             ///< attempts that vanished on the wire
  int crc_failures = 0;      ///< attempts that arrived damaged
  bool delayed = false;      ///< a delay spike fired
  bool duplicate = false;    ///< deliver a second copy
  bool lost = false;         ///< retry budget exhausted
  /// When lost via corruption, the delivered frame keeps the damage so
  /// the receiver's CRC check (not an oracle) detects it; salt picks
  /// the flipped bit.
  bool corrupt_delivery = false;
  std::uint64_t corrupt_salt = 0;
};

/// Pure-function fault decider over a FaultPlan.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Resolves the fault outcome of message (src -> dst, tag, seq) of
  /// `payload_bytes`, including all retry accounting under `policy`.
  [[nodiscard]] WireShaping shape(int src, int dst, int tag,
                                  std::uint32_t seq,
                                  std::int64_t payload_bytes,
                                  const NetworkModel& model,
                                  const ResiliencePolicy& policy) const;

  /// Per-attempt / per-message decisions for callers that manage their
  /// own delivery loop (the circuit breaker re-routes mid-message).
  /// These compute the exact hashes shape() uses, so a breaker-disabled
  /// run replays bit-identically through either API.
  [[nodiscard]] bool attempt_dropped(int src, int dst, int tag,
                                     std::uint32_t seq, int attempt) const;
  [[nodiscard]] bool attempt_corrupted(int src, int dst, int tag,
                                       std::uint32_t seq, int attempt) const;
  /// Extra virtual seconds from a delay spike (0 when none fired);
  /// `delayed` reports whether the coin came up.
  [[nodiscard]] double delay_spike(int src, int dst, int tag,
                                   std::uint32_t seq, bool* delayed) const;
  [[nodiscard]] bool duplicated(int src, int dst, int tag,
                                std::uint32_t seq) const;

  /// Fail-slow: this rank's chronic compute slowdown factor (1.0 when
  /// the plan lists none). Constant per rank, cached by the runtime.
  [[nodiscard]] double compute_slowdown(int rank) const;

  /// Fail-slow: extra virtual seconds of chronic jitter on one message
  /// over the directed link src -> dst (0 when the link has none).
  /// Always fires on a configured link; only the magnitude is seeded.
  [[nodiscard]] double link_jitter(int src, int dst, int tag,
                                   std::uint32_t seq) const;

  /// True when `rank` must die now: `sends_attempted` counts the
  /// in-progress send (1-based), `clock` is the rank's virtual time.
  [[nodiscard]] bool should_crash(int rank, int sends_attempted,
                                  double clock) const;

  /// Flips one deterministically-chosen bit of `frame` (for lost
  /// corrupt deliveries).
  static void flip_bit(std::vector<std::byte>& frame, std::uint64_t salt);

 private:
  [[nodiscard]] double uniform(int src, int dst, int tag, std::uint32_t seq,
                               int attempt, std::uint64_t salt) const;
  [[nodiscard]] const FaultPlan::LinkFault* link(int src, int dst) const;

  FaultPlan plan_;
};

}  // namespace rtc::comm
