// Per-rank and aggregate traffic/timing statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "rtc/obs/span.hpp"

namespace rtc::comm {

/// The additive per-rank counters, and nothing else: every member is an
/// int64 a run only ever adds to, with one kRankCounters row below.
/// Totals, the fault predicates, reset and the cross-run fold all walk
/// that table, so a new counter needs its member and its row only.
struct RankCounters {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;
  std::int64_t pixels_composited = 0;
  // Fault/recovery counters (all zero on a clean run). Wire-level
  // counters are accounted at the receiver, which is where the
  // protocol observes them (a retransmit is seen as a late arrival).
  std::int64_t retransmits = 0;           ///< resends this rank absorbed
  std::int64_t crc_failures = 0;          ///< damaged frames detected
  std::int64_t drops_detected = 0;        ///< drops recovered by timeout
  std::int64_t duplicates_discarded = 0;  ///< repeated sequence numbers
  std::int64_t delays_injected = 0;       ///< delay spikes absorbed
  std::int64_t lost_messages = 0;         ///< retry budget exhausted
  std::int64_t lost_pixels = 0;           ///< pixels substituted blank
  // Self-healing counters (membership/recompose/relay layer; all zero
  // on a clean run and under kThrow/kBlank policies).
  std::int64_t recomposes = 0;        ///< survivor-recomposition passes
  std::int64_t relayed_messages = 0;  ///< own sends detoured via a relay
  std::int64_t relayed_bytes = 0;
  std::int64_t relay_through_messages = 0;  ///< messages forwarded for others
  std::int64_t relay_through_bytes = 0;
  std::int64_t breaker_trips = 0;   ///< per-link circuit breakers opened
  std::int64_t breaker_probes = 0;  ///< half-open probe attempts
  // Fail-slow counters (straggler detection / hedging / deadline
  // layer; all zero with no fail-slow plan, no detector and no frame
  // deadline — clean runs are byte-identical to the legacy format).
  std::int64_t jitter_delays = 0;      ///< chronic link-jitter arrivals
  std::int64_t stragglers_flagged = 0; ///< peer flagged slow (transitions)
  std::int64_t hedged_sends = 0;       ///< sends duplicated via a relay
  std::int64_t hedged_bytes = 0;
  std::int64_t hedge_wins = 0;  ///< hedges that beat (or saved) the direct copy
  std::int64_t deadline_misses = 0;  ///< arrivals past the frame deadline
  std::int64_t stale_tiles = 0;   ///< late blocks substituted from last frame
  std::int64_t stale_pixels = 0;  ///< pixels in those substituted blocks
  // Quality-ladder counters (approximate rung; zero on exact runs).
  std::int64_t approx_skipped_pixels = 0;  ///< blends skipped: front
                                           ///< alpha already saturated
  // Temporal-coherence cache counters (frame pipeline; zero when no
  // cache is installed). Accounted at the sender, which owns the cache.
  std::int64_t coherence_hits = 0;    ///< blocks unchanged since last frame
  std::int64_t coherence_misses = 0;  ///< blocks re-encoded fresh
  std::int64_t coherence_bytes_saved = 0;  ///< wire bytes not resent
};

/// A rank counter, named by its member (&RankCounters::retransmits).
using RankCounter = std::int64_t RankCounters::*;

/// What a nonzero counter says about a run, in increasing order:
/// has_faults() reads every row at or above kRecovered and degraded()
/// every row at kDegrades, so has_faults() ⊇ degraded() by construction.
enum class CounterEffect : std::uint8_t {
  kNone,       ///< traffic, work and cache accounting
  kRecovered,  ///< fault activity that left the image bit-exact
  kDegrades,   ///< the image is no longer guaranteed bit-exact
};

struct CounterRow {
  RankCounter field;
  CounterEffect effect;
};

inline constexpr CounterRow kRankCounters[] = {
    {&RankCounters::messages_sent, CounterEffect::kNone},
    {&RankCounters::bytes_sent, CounterEffect::kNone},
    {&RankCounters::messages_received, CounterEffect::kNone},
    {&RankCounters::bytes_received, CounterEffect::kNone},
    {&RankCounters::pixels_composited, CounterEffect::kNone},
    {&RankCounters::retransmits, CounterEffect::kRecovered},
    {&RankCounters::crc_failures, CounterEffect::kRecovered},
    {&RankCounters::drops_detected, CounterEffect::kRecovered},
    {&RankCounters::duplicates_discarded, CounterEffect::kRecovered},
    {&RankCounters::delays_injected, CounterEffect::kRecovered},
    {&RankCounters::lost_messages, CounterEffect::kDegrades},
    {&RankCounters::lost_pixels, CounterEffect::kDegrades},
    {&RankCounters::recomposes, CounterEffect::kRecovered},
    {&RankCounters::relayed_messages, CounterEffect::kRecovered},
    {&RankCounters::relayed_bytes, CounterEffect::kRecovered},
    {&RankCounters::relay_through_messages, CounterEffect::kRecovered},
    {&RankCounters::relay_through_bytes, CounterEffect::kRecovered},
    {&RankCounters::breaker_trips, CounterEffect::kRecovered},
    {&RankCounters::breaker_probes, CounterEffect::kRecovered},
    {&RankCounters::jitter_delays, CounterEffect::kRecovered},
    {&RankCounters::stragglers_flagged, CounterEffect::kRecovered},
    {&RankCounters::hedged_sends, CounterEffect::kRecovered},
    {&RankCounters::hedged_bytes, CounterEffect::kRecovered},
    {&RankCounters::hedge_wins, CounterEffect::kRecovered},
    {&RankCounters::deadline_misses, CounterEffect::kDegrades},
    // A stale tile with no pixels changes nothing; stale_pixels is the
    // row that degrades.
    {&RankCounters::stale_tiles, CounterEffect::kRecovered},
    {&RankCounters::stale_pixels, CounterEffect::kDegrades},
    {&RankCounters::approx_skipped_pixels, CounterEffect::kDegrades},
    {&RankCounters::coherence_hits, CounterEffect::kNone},
    {&RankCounters::coherence_misses, CounterEffect::kNone},
    {&RankCounters::coherence_bytes_saved, CounterEffect::kNone},
};
// Together: every RankCounters field has exactly one row.
static_assert(sizeof(RankCounters) ==
                  std::size(kRankCounters) * sizeof(std::int64_t),
              "a RankCounters field has no kRankCounters row");
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kRankCounters); ++i)
        for (std::size_t j = 0; j < i; ++j)
          if (kRankCounters[i].field == kRankCounters[j].field) return false;
      return true;
    }(),
    "a RankCounters field has two kRankCounters rows");

struct RankStats : RankCounters {
  /// Block ids the compositor had to substitute blank (degradation).
  std::vector<std::int64_t> lost_blocks;
  std::uint32_t membership_epoch = 0;  ///< final agreed membership epoch
  /// Wire-frame sequence numbers this rank consumed: [seq_first,
  /// seq_last] (seq_last < seq_first when no message was sent). The
  /// range is disjoint across frames when World::set_seq_epoch is
  /// bumped per frame — the cross-frame leakage test pins this.
  std::uint32_t seq_first = 0;
  std::uint32_t seq_last = 0;
  bool crashed = false;  ///< this rank died under a fault plan
  double clock = 0.0;  ///< final virtual time of this rank (seconds)
  /// (id, virtual time) checkpoints recorded via Comm::mark — the
  /// compositors mark the end of each communication step so benches
  /// can print per-step timing next to the per-step model rows.
  std::vector<std::pair<int, double>> marks;
  /// Observability spans (obs layer), only populated when the World has
  /// set_trace({.enabled = true}). Drained from the rank's ring after
  /// the rank threads join.
  std::vector<obs::Span> spans;
  /// Spans lost to ring overflow (capacity too small for the run).
  std::uint64_t spans_dropped = 0;

  /// Zeroes every fault/traffic/coherence counter and clears the
  /// per-run vectors, for callers that accumulate a RankStats across
  /// frames and must prove no cross-frame leakage. Equivalent to
  /// assigning a fresh RankStats.
  void reset_counters() { *this = RankStats{}; }
};

/// Folds one run's rank `src` into `dst`, an accumulator over runs laid
/// on one timeline (the render service's submissions): every
/// kRankCounters row and spans_dropped add, lost blocks append, the
/// membership epoch takes the max and `crashed` ORs. The clock, marks
/// and spans shift by `v_shift`, and the spans are stamped `frame`.
/// seq_first/seq_last are per-run window bounds with no meaningful sum,
/// so they are left alone.
inline void fold_rank(RankStats& dst, const RankStats& src, double v_shift,
                      int frame) {
  for (const CounterRow& row : kRankCounters)
    dst.*row.field += src.*row.field;
  dst.lost_blocks.insert(dst.lost_blocks.end(), src.lost_blocks.begin(),
                         src.lost_blocks.end());
  dst.membership_epoch = std::max(dst.membership_epoch, src.membership_epoch);
  dst.crashed = dst.crashed || src.crashed;
  dst.clock = std::max(dst.clock, v_shift + src.clock);
  for (const auto& [id, t] : src.marks)
    dst.marks.emplace_back(id, v_shift + t);
  for (obs::Span s : src.spans) {
    s.v_begin += v_shift;
    s.v_end += v_shift;
    s.frame = frame;
    dst.spans.push_back(s);
  }
  dst.spans_dropped += src.spans_dropped;
}

/// Per-session admission/latency counters from the render-service
/// front end (src/rtc/service). Sessions are service clients, not
/// ranks: one world of P ranks serves N of these concurrently. Empty
/// for non-service runs, so every legacy output format is untouched.
struct SessionStats {
  int session = -1;
  int priority = 0;  ///< admission class (0 served first)
  std::int64_t arrivals = 0;   ///< requests the traffic source emitted
  std::int64_t admitted = 0;   ///< requests that entered the queue
  std::int64_t shed = 0;       ///< oldest queued request dropped (cap)
  std::int64_t rejected = 0;   ///< arriving request dropped (cap)
  std::int64_t expired = 0;    ///< dropped at dispatch: deadline passed
  std::int64_t delivered = 0;  ///< requests completed
  std::int64_t batches_led = 0;     ///< submissions this session headed
  std::int64_t batches_joined = 0;  ///< rode another session's submission
  std::int64_t degraded = 0;  ///< deliveries from a degraded submission
  int queue_peak = 0;         ///< deepest the session queue ever got
  double latency_sum = 0.0;   ///< summed arrival->delivery (virtual s)
  double latency_max = 0.0;
  // Quality-ladder accounting (zero unless --degrade-before-shed /
  // a quality policy engaged for this session).
  std::int64_t quality_degrades = 0;  ///< admission stepped the class down
  int quality_floor = 0;     ///< deepest quality::Rung a delivery ran at
  std::int64_t stale_pixels = 0;  ///< stale-substituted px in deliveries
  int max_pixel_error = 0;   ///< worst reported error on its deliveries

  [[nodiscard]] std::int64_t dropped() const {
    return shed + rejected + expired;
  }
  [[nodiscard]] double latency_mean() const {
    return delivered > 0 ? latency_sum / static_cast<double>(delivered)
                         : 0.0;
  }
};

struct RunStats {
  std::vector<RankStats> ranks;

  /// Render-service per-session counters (empty outside service runs).
  std::vector<SessionStats> sessions;

  /// Measured degradation bound for deadline-bounded frames: the max
  /// per-channel pixel deviation of the delivered image from the exact
  /// composite of the surviving contributions (0-255). Computed by the
  /// harness only when stale substitution, a deadline miss, or a
  /// quality-ladder rung below exact degraded the image; 0 otherwise.
  /// The ONE per-frame measured-error accumulator: staleness (PR 7)
  /// and the approximate/progressive quality rungs all fold into it.
  int max_pixel_error = 0;

  // --- quality-ladder run fields (all zero on exact runs) ----------

  /// Executed quality rung (quality::Rung as int; 0 = exact). For
  /// multi-frame/service aggregation: the deepest rung executed.
  int quality_rung = 0;
  /// A-priori per-frame max-pixel-error bound the executed rung
  /// reported (>= max_pixel_error by the error contract; 0 for exact).
  int error_bound = 0;
  /// Pixels delivered from a progressive coarse pass that was never
  /// refined (deadline expired before the full-resolution pass).
  std::int64_t coarse_pixels = 0;

  /// Virtual-time makespan: the paper's "composition time".
  [[nodiscard]] double makespan() const {
    double m = 0.0;
    for (const RankStats& r : ranks) m = r.clock > m ? r.clock : m;
    return m;
  }

  /// One rank counter summed over every rank.
  [[nodiscard]] std::int64_t total(RankCounter field) const {
    std::int64_t n = 0;
    for (const RankStats& r : ranks) n += r.*field;
    return n;
  }

  /// One session counter summed over every session (0 with none).
  [[nodiscard]] std::int64_t session_total(
      std::int64_t SessionStats::*field) const {
    std::int64_t n = 0;
    for (const SessionStats& s : sessions) n += s.*field;
    return n;
  }

  [[nodiscard]] std::int64_t total_bytes_sent() const {
    return total(&RankCounters::bytes_sent);
  }
  [[nodiscard]] std::int64_t total_messages() const {
    return total(&RankCounters::messages_sent);
  }

  [[nodiscard]] std::int64_t max_messages_sent_by_rank() const {
    std::int64_t n = 0;
    for (const RankStats& r : ranks)
      n = r.messages_sent > n ? r.messages_sent : n;
    return n;
  }

  // --- fault/degradation aggregates -------------------------------

  [[nodiscard]] std::int64_t total_retransmits() const {
    return total(&RankCounters::retransmits);
  }
  [[nodiscard]] std::int64_t total_crc_failures() const {
    return total(&RankCounters::crc_failures);
  }
  [[nodiscard]] std::int64_t total_drops_detected() const {
    return total(&RankCounters::drops_detected);
  }
  [[nodiscard]] std::int64_t total_duplicates_discarded() const {
    return total(&RankCounters::duplicates_discarded);
  }
  [[nodiscard]] std::int64_t total_delays_injected() const {
    return total(&RankCounters::delays_injected);
  }
  [[nodiscard]] std::int64_t total_lost_messages() const {
    return total(&RankCounters::lost_messages);
  }
  [[nodiscard]] std::int64_t total_lost_pixels() const {
    return total(&RankCounters::lost_pixels);
  }

  /// Every block id any rank substituted blank, in rank order.
  [[nodiscard]] std::vector<std::int64_t> all_lost_blocks() const {
    std::vector<std::int64_t> out;
    for (const RankStats& r : ranks)
      out.insert(out.end(), r.lost_blocks.begin(), r.lost_blocks.end());
    return out;
  }

  [[nodiscard]] std::vector<int> dead_ranks() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < ranks.size(); ++i)
      if (ranks[i].crashed) out.push_back(static_cast<int>(i));
    return out;
  }

  /// True when the result is not guaranteed bit-exact: a rank crashed,
  /// a kDegrades counter is nonzero (work lost and substituted blank, a
  /// frame deadline expired and stale content stood in, approximate
  /// blends were skipped), or a coarse pass was delivered unrefined.
  [[nodiscard]] bool degraded() const {
    return any_counter_at(CounterEffect::kDegrades);
  }

  /// True when the run saw *any* fault activity at all: everything
  /// degraded() sees, plus faults that were fully recovered (kRecovered
  /// counters such as retransmits, relays and dedup) and a membership
  /// change. A superset of degraded() by construction; the frame
  /// pipeline uses it for epoch hygiene checks across frame
  /// boundaries.
  [[nodiscard]] bool has_faults() const {
    return max_membership_epoch() > 0 ||
           any_counter_at(CounterEffect::kRecovered);
  }

  // --- self-healing aggregates ------------------------------------

  [[nodiscard]] std::int64_t total_recomposes() const {
    return total(&RankCounters::recomposes);
  }

  /// Highest membership epoch any survivor agreed on (0: no change).
  [[nodiscard]] std::uint32_t max_membership_epoch() const {
    std::uint32_t e = 0;
    for (const RankStats& r : ranks)
      e = r.membership_epoch > e ? r.membership_epoch : e;
    return e;
  }

  [[nodiscard]] std::int64_t total_relayed_messages() const {
    return total(&RankCounters::relayed_messages);
  }
  [[nodiscard]] std::int64_t total_relayed_bytes() const {
    return total(&RankCounters::relayed_bytes);
  }
  [[nodiscard]] std::int64_t total_breaker_trips() const {
    return total(&RankCounters::breaker_trips);
  }

  // --- fail-slow aggregates (straggler/hedge/deadline layer) -------

  [[nodiscard]] std::int64_t total_jitter_delays() const {
    return total(&RankCounters::jitter_delays);
  }
  [[nodiscard]] std::int64_t total_stragglers_flagged() const {
    return total(&RankCounters::stragglers_flagged);
  }
  [[nodiscard]] std::int64_t total_hedged_sends() const {
    return total(&RankCounters::hedged_sends);
  }
  [[nodiscard]] std::int64_t total_hedged_bytes() const {
    return total(&RankCounters::hedged_bytes);
  }
  [[nodiscard]] std::int64_t total_hedge_wins() const {
    return total(&RankCounters::hedge_wins);
  }
  [[nodiscard]] std::int64_t total_deadline_misses() const {
    return total(&RankCounters::deadline_misses);
  }
  [[nodiscard]] std::int64_t total_stale_tiles() const {
    return total(&RankCounters::stale_tiles);
  }
  [[nodiscard]] std::int64_t total_stale_pixels() const {
    return total(&RankCounters::stale_pixels);
  }

  // --- quality-ladder aggregates -----------------------------------

  [[nodiscard]] std::int64_t total_approx_skipped_pixels() const {
    return total(&RankCounters::approx_skipped_pixels);
  }

  /// True when the quality ladder left the exact rung this run.
  [[nodiscard]] bool quality_degraded() const { return quality_rung != 0; }

  // --- temporal-coherence aggregates (frame pipeline) -------------

  [[nodiscard]] std::int64_t total_coherence_hits() const {
    return total(&RankCounters::coherence_hits);
  }
  [[nodiscard]] std::int64_t total_coherence_misses() const {
    return total(&RankCounters::coherence_misses);
  }
  [[nodiscard]] std::int64_t total_coherence_bytes_saved() const {
    return total(&RankCounters::coherence_bytes_saved);
  }

  /// Fraction of coherence-cache lookups that hit (0 with no lookups).
  [[nodiscard]] double coherence_hit_rate() const {
    const std::int64_t h = total_coherence_hits();
    const std::int64_t m = total_coherence_misses();
    return h + m > 0 ? static_cast<double>(h) / static_cast<double>(h + m)
                     : 0.0;
  }

  /// Resets to a fresh RunStats that keeps only the rank count
  /// (frame-boundary hygiene for accumulating callers).
  void reset_counters() {
    const std::size_t p = ranks.size();
    *this = RunStats{};
    ranks.resize(p);
  }

  // --- render-service aggregates (empty sessions => all zero) ------

  [[nodiscard]] std::int64_t total_session_arrivals() const {
    return session_total(&SessionStats::arrivals);
  }
  [[nodiscard]] std::int64_t total_session_delivered() const {
    return session_total(&SessionStats::delivered);
  }
  /// Requests dropped for any reason (cap shed, cap reject, expiry).
  [[nodiscard]] std::int64_t total_session_drops() const {
    return total_session_sheds() + total_session_rejects() +
           total_session_expiries();
  }
  [[nodiscard]] std::int64_t total_session_sheds() const {
    return session_total(&SessionStats::shed);
  }
  [[nodiscard]] std::int64_t total_session_rejects() const {
    return session_total(&SessionStats::rejected);
  }
  [[nodiscard]] std::int64_t total_session_expiries() const {
    return session_total(&SessionStats::expired);
  }
  [[nodiscard]] std::int64_t total_batches_joined() const {
    return session_total(&SessionStats::batches_joined);
  }
  /// Quality-class steps the admission layer took across sessions
  /// (degrade-before-shed); 0 whenever the ladder never engaged.
  [[nodiscard]] std::int64_t total_session_quality_degrades() const {
    return session_total(&SessionStats::quality_degrades);
  }
  /// Stale-substituted pixels delivered across sessions (deadline
  /// staleness plus kStale quality-class serves).
  [[nodiscard]] std::int64_t total_session_stale_pixels() const {
    return session_total(&SessionStats::stale_pixels);
  }

  /// Deepest quality rung any session's deliveries hit (as int).
  [[nodiscard]] int session_quality_floor() const {
    int f = 0;
    for (const SessionStats& s : sessions)
      if (s.quality_floor > f) f = s.quality_floor;
    return f;
  }

  // --- observability aggregates -----------------------------------

  /// True when at least one rank carries drained obs spans.
  [[nodiscard]] bool has_spans() const {
    for (const RankStats& r : ranks)
      if (!r.spans.empty()) return true;
    return false;
  }

  [[nodiscard]] std::uint64_t total_spans_dropped() const {
    std::uint64_t n = 0;
    for (const RankStats& r : ranks) n += r.spans_dropped;
    return n;
  }

  /// Latest virtual time any rank recorded for checkpoint `id`
  /// (-infinity if nobody marked it).
  [[nodiscard]] double mark_end(int id) const {
    double m = -1.0;
    for (const RankStats& r : ranks)
      for (const auto& [mid, t] : r.marks)
        if (mid == id && t > m) m = t;
    return m;
  }

 private:
  /// A rank crashed, a counter whose effect is `at_least` or worse is
  /// nonzero on some rank, or a coarse pass went out unrefined.
  [[nodiscard]] bool any_counter_at(CounterEffect at_least) const {
    for (const RankStats& r : ranks) {
      if (r.crashed) return true;
      for (const CounterRow& row : kRankCounters)
        if (row.effect >= at_least && r.*row.field != 0) return true;
    }
    return coarse_pixels > 0;
  }
};

}  // namespace rtc::comm
