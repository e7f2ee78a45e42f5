// Render-service front end: N interactive sessions over one P-rank
// frame pipeline.
//
// run_service is a deterministic discrete-event loop on the virtual
// clock. A seeded TrafficGen emits an open-loop arrival schedule; an
// AdmissionController gates each arrival into its session's bounded
// queue (shed-oldest or reject-new at the cap, freshness expiry at
// dispatch); a RequestBatcher coalesces compatible queue fronts into
// one submission; and each submission runs the SAME render → composite
// path the sweep harness uses — frames::render_view for the lead's
// camera pose, harness::run_composition for the collective — placed on
// the shared timeline by the FrameScheduler (max_in_flight gates
// admission exactly as in frames::run_sequence).
//
// Event loop invariant: the next submission dispatches at
//   t = max(scheduler admission floor, earliest pending arrival)
// so time only moves forward, idle periods fast-forward to the next
// arrival, and a backlogged pipeline naturally batches — arrivals
// accumulate in queues while the floor is in the future, which is
// where the admission policy earns its keep.
//
// Determinism: arrivals are a pure function of the traffic config,
// admission and batching are pure functions of queue state, and each
// composition is the same collective the single-shot harness runs —
// so the whole service run (timings, sheds, images) is bit-identical
// across repeats and across the threaded/pooled executors.
//
// A zero-shed single-session run delivers images byte-identical to
// frames::run_sequence over the same views: the front end adds
// scheduling, never pixels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "rtc/frames/pipeline.hpp"
#include "rtc/frames/scheduler.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/obs/span.hpp"
#include "rtc/service/admission.hpp"
#include "rtc/service/batcher.hpp"
#include "rtc/service/session.hpp"
#include "rtc/service/traffic.hpp"

namespace rtc::service {

struct ServiceConfig {
  // Scene shared by every session (sessions differ only in camera).
  std::string dataset = "engine";
  int ranks = 8;
  int volume_n = 64;
  int image_size = 256;
  std::string renderer = "shearwarp";

  /// Per-submission composition settings. `fault` applies only at
  /// `fault_submission`; `frame_id`, `seq_epoch`, `coherence`, `stale`
  /// are overwritten per submission. record_spans also arms the
  /// service-level instants (kAdmit/kShed/kBatch).
  harness::CompositionConfig comp;

  /// Pipeline depth M (FrameScheduler); 1 = strictly sequential.
  int max_in_flight = 2;

  /// Synthetic load (sessions, rates, orbit, seed, priorities).
  TrafficConfig traffic;

  /// Overload policy at the per-session queue cap.
  AdmissionPolicy admission = AdmissionPolicy::kShedOldest;
  int queue_cap = 8;
  /// Per-request freshness deadline (virtual s; 0 = none): queued
  /// requests older than this at dispatch are dropped as expired.
  double session_deadline = 0.0;

  /// Batcher view-quantization grid (degrees); <= 0 disables
  /// coalescing.
  double quant_deg = 1.0;

  /// Per-session temporal-coherence caching across submissions.
  bool coherence = true;

  /// Submission index whose composition runs under comp.fault (-1:
  /// none). Chronic fail-slow faults (slows, jitters) apply to every
  /// submission regardless, as in frames::run_sequence.
  int fault_submission = -1;
};

/// One pipeline submission: a batch rendered and composited once.
struct Submission {
  frames::FrameTiming timing;  ///< placement on the service timeline
  int lead_session = 0;
  int riders = 0;             ///< coalesced requests beyond the lead
  double yaw_deg = 0.0;
  int axis = 0;
  double render_time = 0.0;
  double composite_time = 0.0;
  bool degraded = false;
  std::int64_t lost_pixels = 0;
  img::Image image;  ///< assembled view (when comp.gather)
};

/// One completed request: when it arrived, when its submission was
/// delivered, and what it cost the client to wait.
struct Delivery {
  int session = 0;
  std::int64_t seq = 0;
  int submission = 0;
  double arrival = 0.0;
  double done = 0.0;  ///< the submission's composite_end
  bool degraded = false;
  [[nodiscard]] double latency() const { return done - arrival; }
};

struct ServiceResult {
  std::vector<Submission> submissions;
  std::vector<Delivery> deliveries;  ///< in delivery order
  /// Merged per-rank traffic/fault counters across every submission
  /// (spans shifted onto the service timeline and frame-stamped with
  /// the submission index) plus the per-session admission table
  /// (stats.sessions). After a mid-run rank loss the survivor
  /// renumbering folds into the lowest rank slots — totals stay exact,
  /// per-rank attribution is approximate from that point on.
  comm::RunStats stats;
  /// Service-level spans: kAdmit/kShed instants at arrival/dispatch,
  /// kBatch at each dispatch, and per-submission kRender/kQueueWait/
  /// kCompute intervals (frame = submission index). Only populated
  /// when comp.record_spans.
  std::vector<obs::Span> service_spans;
  double makespan = 0.0;
  double total_queue_wait = 0.0;  ///< scheduler backpressure, not queues
  /// Ranks permanently removed mid-run (PeerLoss::kRecompose); the
  /// recomposition passes and membership epoch are in `stats`.
  int ranks_lost = 0;

  [[nodiscard]] double latency_mean() const;
  /// p-th latency percentile (nearest-rank on the sorted latencies);
  /// 0 when nothing was delivered.
  [[nodiscard]] double latency_percentile(double p) const;
  [[nodiscard]] double latency_max() const;
  [[nodiscard]] double delivered_per_second() const {
    return makespan > 0.0
               ? static_cast<double>(deliveries.size()) / makespan
               : 0.0;
  }
};

/// Runs the configured service simulation to completion (every arrival
/// admitted/shed and every queue drained). Deterministic in virtual
/// time; see the file comment.
[[nodiscard]] ServiceResult run_service(const ServiceConfig& cfg);

/// Per-session admission/latency table plus service summary for
/// CLI/example output. Degradation lines appear only when a
/// submission degraded, so clean runs keep a stable format.
void print_service(std::ostream& os, const ServiceConfig& cfg,
                   const ServiceResult& res);

}  // namespace rtc::service
