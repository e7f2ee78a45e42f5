#include "rtc/service/admission.hpp"

#include "rtc/common/check.hpp"

namespace rtc::service {

AdmissionPolicy parse_admission_policy(const std::string& s) {
  if (s == "shed-oldest") return AdmissionPolicy::kShedOldest;
  if (s == "reject-new") return AdmissionPolicy::kRejectNew;
  RTC_CHECK_MSG(false, "unknown admission policy (want shed-oldest or "
                       "reject-new)");
  return AdmissionPolicy::kShedOldest;
}

const char* admission_policy_name(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kShedOldest:
      return "shed-oldest";
    case AdmissionPolicy::kRejectNew:
      return "reject-new";
  }
  return "?";
}

namespace {

obs::Span instant(obs::SpanKind kind, int session, std::int64_t aux,
                  double now) {
  obs::Span s;
  s.kind = kind;
  s.step = session;
  s.aux = aux;
  s.v_begin = now;
  s.v_end = now;
  return s;
}

}  // namespace

void AdmissionController::note_shed(Session& s, double now, ShedCause cause,
                                    std::vector<obs::Span>& spans) {
  switch (cause) {
    case kCauseReject:
      s.stats.rejected += 1;
      break;
    case kCauseShedOldest:
      s.stats.shed += 1;
      break;
    case kCauseExpired:
      s.stats.expired += 1;
      break;
  }
  if (record_spans_)
    spans.push_back(instant(obs::SpanKind::kShed, s.id(), cause, now));
}

void AdmissionController::offer(Session& s, const Request& r, double now,
                                std::vector<obs::Span>& spans) {
  RTC_CHECK(r.session == s.id());
  s.stats.arrivals += 1;
  const int cap = s.config.queue_cap;
  RTC_CHECK_MSG(cap >= 1, "session queue cap must be at least 1");
  if (static_cast<int>(s.queue.size()) >= cap) {
    if (quality_.degrade_before_shed && quality_.engaged()) {
      // Degrade-before-shed: trade fidelity for completeness. Step the
      // session's quality class one rung down (clamped at the policy's
      // max_rung) and admit beyond the cap — the deeper classes serve
      // faster, so the queue drains instead of overflowing, and no
      // request is ever dropped. The class is a request, not a serve:
      // the frame's rung rule may compose at a shallower rung, so the
      // session's floor moves only when a frame is delivered.
      const quality::Rung next =
          quality::step_down(s.quality_class, quality_.max_rung);
      if (next != s.quality_class) {
        s.quality_class = next;
        s.stats.quality_degrades += 1;
        if (record_spans_)
          spans.push_back(instant(obs::SpanKind::kDegrade, s.id(),
                                  static_cast<std::int64_t>(next), now));
      }
    } else if (policy_ == AdmissionPolicy::kRejectNew) {
      note_shed(s, now, kCauseReject, spans);
      return;
    } else {
      // kShedOldest: the front is the oldest — evict it to make room.
      s.queue.pop_front();
      note_shed(s, now, kCauseShedOldest, spans);
    }
  }
  s.queue.push_back(r);
  s.stats.admitted += 1;
  const int depth = static_cast<int>(s.queue.size());
  if (depth > s.stats.queue_peak) s.stats.queue_peak = depth;
  if (record_spans_)
    spans.push_back(instant(obs::SpanKind::kAdmit, s.id(), depth, now));
}

int AdmissionController::expire(Session& s, double now,
                                std::vector<obs::Span>& spans) {
  const double deadline = s.config.deadline;
  if (deadline <= 0.0) return 0;
  int dropped = 0;
  while (!s.queue.empty() && now - s.queue.front().arrival > deadline) {
    s.queue.pop_front();
    note_shed(s, now, kCauseExpired, spans);
    ++dropped;
  }
  return dropped;
}

}  // namespace rtc::service
