#include "rtc/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <utility>

#include "rtc/common/check.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/quality/quality.hpp"

namespace rtc::service {

double ServiceResult::latency_mean() const {
  if (deliveries.empty()) return 0.0;
  double s = 0.0;
  for (const Delivery& d : deliveries) s += d.latency();
  return s / static_cast<double>(deliveries.size());
}

double ServiceResult::latency_percentile(double p) const {
  if (deliveries.empty()) return 0.0;
  std::vector<double> lat;
  lat.reserve(deliveries.size());
  for (const Delivery& d : deliveries) lat.push_back(d.latency());
  std::sort(lat.begin(), lat.end());
  const double n = static_cast<double>(lat.size());
  // Nearest-rank: smallest latency with at least p% of samples at or
  // below it.
  std::size_t idx = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (idx > 0) --idx;
  if (idx >= lat.size()) idx = lat.size() - 1;
  return lat[idx];
}

double ServiceResult::latency_max() const {
  double m = 0.0;
  for (const Delivery& d : deliveries)
    if (d.latency() > m) m = d.latency();
  return m;
}

ServiceResult run_service(const ServiceConfig& cfg) {
  RTC_CHECK_MSG(cfg.ranks >= 1, "need at least one rank");
  RTC_CHECK_MSG(cfg.max_in_flight >= 1, "need at least one frame in flight");

  const TrafficGen traffic(cfg.traffic);
  const std::vector<Request> arrivals = traffic.generate();

  std::vector<Session> sessions;
  sessions.reserve(static_cast<std::size_t>(cfg.traffic.sessions));
  for (int s = 0; s < cfg.traffic.sessions; ++s) {
    SessionConfig sc;
    sc.priority = traffic.priority_of(s);
    sc.queue_cap = cfg.queue_cap;
    sc.deadline = cfg.session_deadline;
    sessions.emplace_back(s, sc, cfg.ranks);
  }

  AdmissionController admission(cfg.admission, cfg.comp.record_spans,
                                cfg.comp.quality);
  RequestBatcher batcher(cfg.quant_deg);

  // An engaged quality ladder needs each submission's image — the
  // kStale class re-serves a session's last frame — so it forces
  // gathering even when the caller didn't ask to keep images. Gated on
  // engaged(): plain runs keep their timings (the gather stage is part
  // of the collective) byte-identical.
  const bool gather = cfg.comp.gather || cfg.comp.quality.engaged();
  harness::CompositionConfig comp = cfg.comp;
  comp.gather = gather;
  // Survivor set, per-submission config and timeline, shared with
  // frames::run_sequence.
  frames::FrameStep step(std::move(comp), cfg.ranks, cfg.fault_submission,
                         cfg.max_in_flight);

  ServiceResult out;
  out.stats.ranks.resize(static_cast<std::size_t>(cfg.ranks));

  const auto all_idle = [&sessions]() {
    for (const Session& s : sessions)
      if (!s.idle()) return false;
    return true;
  };

  std::size_t next = 0;
  const auto pull_arrivals = [&](double until) {
    while (next < arrivals.size() && arrivals[next].arrival <= until) {
      const Request& r = arrivals[next];
      admission.offer(sessions[static_cast<std::size_t>(r.session)], r,
                      r.arrival, out.service_spans);
      ++next;
    }
  };

  int submission = 0;
  while (true) {
    // Dispatch time: the pipeline's admission floor, fast-forwarded to
    // the next arrival when every queue is empty.
    double t = step.scheduler().next_admission_floor();
    pull_arrivals(t);
    if (all_idle()) {
      if (next == arrivals.size()) break;
      t = std::max(t, arrivals[next].arrival);
      pull_arrivals(t);
    }
    // Freshness expiry is a dispatch-time decision: a request is only
    // ever served at a floor, so that is where staleness is assessed.
    for (Session& s : sessions)
      admission.expire(s, t, out.service_spans);
    if (all_idle()) continue;

    Batch batch = batcher.next_batch(sessions);
    Session& lead = sessions[static_cast<std::size_t>(batch.lead.session)];
    if (cfg.comp.record_spans) {
      obs::Span b = frames::frame_span(obs::SpanKind::kBatch, submission, t, t);
      b.step = lead.id();
      b.aux = batch.size();
      out.service_spans.push_back(b);
    }

    // One rung up per clean dispatch once the session's queue drained
    // to half its cap — the recovery half of degrade-before-shed.
    // Deterministic: a pure function of queue state at dispatch.
    const auto recover = [&](int session_id) {
      Session& s = sessions[static_cast<std::size_t>(session_id)];
      if (static_cast<int>(s.queue.size()) * 2 <= s.config.queue_cap)
        s.quality_class = quality::step_up(s.quality_class);
    };
    // Every batched request completes at the submission's composite_end
    // and carries the frame's error numbers: the rung it ran at, its
    // pixel error and the stale pixels it served.
    const auto deliver_batch = [&](const Submission& sub, int rung,
                                   int max_error, std::int64_t stale_px) {
      const auto deliver = [&](const Request& r) {
        Session& s = sessions[static_cast<std::size_t>(r.session)];
        Delivery d;
        d.session = r.session;
        d.seq = r.seq;
        d.submission = submission;
        d.arrival = r.arrival;
        d.done = sub.timing.composite_end;
        d.degraded = sub.degraded;
        out.deliveries.push_back(d);
        s.stats.delivered += 1;
        s.stats.latency_sum += d.latency();
        if (d.latency() > s.stats.latency_max)
          s.stats.latency_max = d.latency();
        if (sub.degraded) s.stats.degraded += 1;
        s.stats.quality_floor = std::max(s.stats.quality_floor, rung);
        s.stats.max_pixel_error = std::max(s.stats.max_pixel_error, max_error);
        s.stats.stale_pixels += stale_px;
      };
      deliver(batch.lead);
      for (const Request& r : batch.riders) deliver(r);
      recover(batch.lead.session);
      for (const Request& r : batch.riders) recover(r.session);
    };

    // The batch executes at its LEAD's quality class, through the
    // frame's rung rule. Stale/blank classes the contract admits never
    // render or composite: the session's last delivered image (or a
    // blank frame) goes out in zero virtual time, which is what drains
    // an overloaded queue without shedding.
    const quality::Rung rung = step.frame_rung(lead.quality_class);
    Submission sub;
    sub.lead_session = lead.id();
    sub.riders = static_cast<int>(batch.riders.size());
    sub.yaw_deg = batch.lead.yaw_deg;
    if (rung >= quality::Rung::kStale) {
      const bool stale_serve = rung == quality::Rung::kStale &&
                               lead.last_image.pixel_count() > 0;
      sub.degraded = true;
      sub.timing = step.admit(0.0, 0.0, t, nullptr);
      if (cfg.comp.record_spans) {
        obs::Span d =
            frames::frame_span(obs::SpanKind::kDegrade, submission, t, t);
        d.step = lead.id();
        d.aux = static_cast<std::int64_t>(rung);
        out.service_spans.push_back(d);
      }
      // 255 is the stale/blank rungs' a-priori bound; nothing is
      // measured here since no reference was composited.
      deliver_batch(sub, static_cast<int>(rung), 255,
                    stale_serve ? std::int64_t{cfg.image_size} *
                                      cfg.image_size
                                : 0);
      if (static_cast<int>(rung) > out.stats.quality_rung)
        out.stats.quality_rung = static_cast<int>(rung);
      if (out.stats.error_bound < 255) out.stats.error_bound = 255;
      if (gather) {
        sub.image = stale_serve ? lead.last_image
                                : img::Image(cfg.image_size, cfg.image_size);
      }
      out.submissions.push_back(std::move(sub));
      ++submission;
      continue;
    }

    frames::ViewSpec view;
    view.dataset = cfg.dataset;
    view.volume_n = cfg.volume_n;
    view.image_size = cfg.image_size;
    view.yaw_deg = batch.lead.yaw_deg;
    view.pitch_deg = batch.lead.pitch_deg;
    view.renderer = cfg.renderer;
    const harness::RenderedScene rs =
        frames::render_view(view, step.ranks(), sub.axis);
    sub.render_time = harness::render_stage_time(rs);

    // Everything else runs through the normal collective;
    // run_composition enforces the error contract against the actual
    // partials and may demote further.
    harness::CompositionRun run = harness::run_composition(
        step.config(submission, rung,
                    cfg.coherence ? lead.cache.get() : nullptr,
                    lead.stale.get()),
        rs.partials);
    sub.composite_time = step.composite_time(run);
    sub.degraded = run.degraded;
    sub.lost_pixels = run.lost_pixels;
    sub.timing = step.admit(sub.render_time, sub.composite_time, t,
                            cfg.comp.record_spans ? &out.service_spans
                                                  : nullptr);

    // Fold the collective's counters onto the service timeline. The
    // composite occupies [composite_start, composite_end].
    for (int r = 0; r < step.ranks(); ++r)
      comm::fold_rank(out.stats.ranks[static_cast<std::size_t>(r)],
                      run.stats.ranks[static_cast<std::size_t>(r)],
                      sub.timing.composite_start, submission);
    if (run.stats.max_pixel_error > out.stats.max_pixel_error)
      out.stats.max_pixel_error = run.stats.max_pixel_error;
    if (run.stats.quality_rung > out.stats.quality_rung)
      out.stats.quality_rung = run.stats.quality_rung;
    if (run.stats.error_bound > out.stats.error_bound)
      out.stats.error_bound = run.stats.error_bound;
    out.stats.coarse_pixels += run.stats.coarse_pixels;

    deliver_batch(sub, run.stats.quality_rung, run.stats.max_pixel_error,
                  run.stats.total_stale_pixels());
    // Remember the frame for each served session: the kStale class
    // re-serves it instantly under overload.
    if (gather && run.image.pixel_count() > 0) {
      lead.last_image = run.image;
      for (const Request& r : batch.riders)
        sessions[static_cast<std::size_t>(r.session)].last_image = run.image;
    }

    // The survivor renumbering re-keys every cache/stale slot in EVERY
    // session, not just the one that was in flight.
    if (step.drop_dead(run.stats))
      for (Session& s : sessions) s.reset_rank_state(step.ranks());

    if (gather) sub.image = std::move(run.image);
    out.submissions.push_back(std::move(sub));
    ++submission;
  }

  for (Session& s : sessions)
    out.stats.sessions.push_back(s.stats);
  out.ranks_lost = step.ranks_lost();
  out.makespan = step.scheduler().makespan();
  out.total_queue_wait = step.scheduler().total_queue_wait();
  return out;
}

void print_service(std::ostream& os, const ServiceConfig& cfg,
                   const ServiceResult& res) {
  // New columns append after the legacy ones so downstream parsers
  // keyed on column position (the chaos harness reads "degr" at $9)
  // keep working.
  harness::Table t({"session", "prio", "arrived", "admitted", "dropped",
                    "delivered", "led", "joined", "degr", "q-peak",
                    "lat mean", "lat max", "stale_px", "max_err"});
  for (const comm::SessionStats& s : res.stats.sessions) {
    t.add_row({std::to_string(s.session), std::to_string(s.priority),
               std::to_string(s.arrivals), std::to_string(s.admitted),
               std::to_string(s.dropped()), std::to_string(s.delivered),
               std::to_string(s.batches_led),
               std::to_string(s.batches_joined), std::to_string(s.degraded),
               std::to_string(s.queue_peak),
               harness::Table::num(s.latency_mean(), 4),
               harness::Table::num(s.latency_max, 4),
               std::to_string(s.stale_pixels),
               std::to_string(s.max_pixel_error)});
  }
  t.print(os);
  const std::int64_t coalesced = res.stats.total_batches_joined();
  os << "\nservice: " << res.stats.sessions.size() << " session(s), "
     << admission_policy_name(cfg.admission) << " @ cap " << cfg.queue_cap
     << ", depth " << cfg.max_in_flight << "\n"
     << "load: " << res.stats.total_session_arrivals() << " arrivals, "
     << res.stats.total_session_delivered() << " delivered in "
     << res.submissions.size() << " submission(s) (" << coalesced
     << " coalesced), " << res.stats.total_session_drops() << " dropped ("
     << res.stats.total_session_sheds() << " shed, "
     << res.stats.total_session_rejects() << " rejected, "
     << res.stats.total_session_expiries() << " expired)\n"
     << "timeline: makespan " << harness::Table::num(res.makespan, 4)
     << " s, " << harness::Table::num(res.delivered_per_second(), 2)
     << " deliveries/s, pipeline queue wait "
     << harness::Table::num(res.total_queue_wait, 4) << " s\n"
     << "latency: mean " << harness::Table::num(res.latency_mean(), 4)
     << " s, p95 " << harness::Table::num(res.latency_percentile(95.0), 4)
     << " s, max " << harness::Table::num(res.latency_max(), 4) << " s\n";
  // Degradation report only when something degraded — clean runs keep
  // a stable format (and the chaos harness parses this line).
  std::vector<int> degraded_sessions;
  for (const comm::SessionStats& s : res.stats.sessions)
    if (s.degraded > 0) degraded_sessions.push_back(s.session);
  if (!degraded_sessions.empty()) {
    os << "degraded: session(s)";
    for (const int s : degraded_sessions) os << " " << s;
    os << "\n";
  }
  const std::int64_t recomposes = res.stats.total_recomposes();
  if (res.ranks_lost > 0 || recomposes > 0)
    os << "recovery: " << res.ranks_lost << " rank(s) lost, " << recomposes
       << " recomposition pass(es), membership epoch "
       << res.stats.max_membership_epoch() << "\n";
  // Quality-ladder report only when the ladder moved, so clean runs
  // keep the legacy format byte-for-byte.
  if (res.stats.quality_rung != 0 ||
      res.stats.total_session_quality_degrades() > 0) {
    os << "quality: "
       << res.stats.total_session_quality_degrades()
       << " class step(s), floor "
       << quality::rung_name(static_cast<quality::Rung>(
              std::max(res.stats.quality_rung,
                       res.stats.session_quality_floor())))
       << ", bound " << res.stats.error_bound << ", err "
       << res.stats.max_pixel_error << ", stale_px "
       << res.stats.total_session_stale_pixels() << "\n";
  }
}

}  // namespace rtc::service
