// Render-service front end: traffic determinism, admission policies,
// request batching, end-to-end conservation laws, executor
// determinism, the zero-shed ≡ run_sequence identity, the error
// contract on the stale/blank classes, and fault isolation to the crash
// submission's sessions.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>
#include <vector>

#include "rtc/comm/fault.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/frames/pipeline.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/service/admission.hpp"
#include "rtc/service/batcher.hpp"
#include "rtc/service/service.hpp"
#include "rtc/service/session.hpp"
#include "rtc/service/traffic.hpp"

namespace rtc::service {
namespace {

bool images_equal(const img::Image& a, const img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  return std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size_bytes()) == 0;
}

// ---------------------------------------------------------------- traffic

TEST(TrafficGen, DeterministicSortedAndOnOrbit) {
  TrafficConfig tc;
  tc.sessions = 4;
  tc.requests_per_session = 32;
  tc.arrival_rate = 100.0;
  tc.seed = 7;
  tc.yaw0_deg = 10.0;
  tc.yaw_step_deg = 15.0;
  const TrafficGen gen(tc);
  const std::vector<Request> a = gen.generate();
  const std::vector<Request> b = gen.generate();
  ASSERT_EQ(a.size(), 4u * 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    // Every request sits on the shared orbit.
    const double want =
        std::fmod(10.0 + 15.0 * static_cast<double>(a[i].seq), 360.0);
    EXPECT_DOUBLE_EQ(a[i].yaw_deg, want);
    EXPECT_GT(a[i].arrival, 0.0);
  }
}

TEST(TrafficGen, SeedChangesSchedule) {
  TrafficConfig tc;
  tc.sessions = 2;
  tc.requests_per_session = 16;
  TrafficConfig tc2 = tc;
  tc2.seed = tc.seed + 1;
  const std::vector<Request> a = TrafficGen(tc).generate();
  const std::vector<Request> b = TrafficGen(tc2).generate();
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].arrival != b[i].arrival || a[i].session != b[i].session)
      any_differs = true;
  EXPECT_TRUE(any_differs);
}

TEST(TrafficGen, PriorityClassesCycle) {
  TrafficConfig tc;
  tc.priority_classes = 3;
  const TrafficGen gen(tc);
  EXPECT_EQ(gen.priority_of(0), 0);
  EXPECT_EQ(gen.priority_of(1), 1);
  EXPECT_EQ(gen.priority_of(2), 2);
  EXPECT_EQ(gen.priority_of(3), 0);
}

// -------------------------------------------------------------- admission

Request req(int session, std::int64_t seq, double arrival) {
  Request r;
  r.session = session;
  r.seq = seq;
  r.arrival = arrival;
  return r;
}

TEST(Admission, ShedOldestDropsTheFront) {
  SessionConfig sc;
  sc.queue_cap = 2;
  Session s(0, sc, 4);
  AdmissionController adm(AdmissionPolicy::kShedOldest, true);
  std::vector<obs::Span> spans;
  adm.offer(s, req(0, 0, 0.1), 0.1, spans);
  adm.offer(s, req(0, 1, 0.2), 0.2, spans);
  adm.offer(s, req(0, 2, 0.3), 0.3, spans);  // cap: seq 0 is shed
  ASSERT_EQ(s.queue.size(), 2u);
  EXPECT_EQ(s.queue.front().seq, 1);
  EXPECT_EQ(s.queue.back().seq, 2);
  EXPECT_EQ(s.stats.arrivals, 3);
  EXPECT_EQ(s.stats.admitted, 3);
  EXPECT_EQ(s.stats.shed, 1);
  EXPECT_EQ(s.stats.rejected, 0);
  EXPECT_EQ(s.stats.queue_peak, 2);
  // Spans: 3 admits + 1 shed, shed cause 1 (shed-oldest).
  int admits = 0, sheds = 0;
  for (const obs::Span& sp : spans) {
    if (sp.kind == obs::SpanKind::kAdmit) ++admits;
    if (sp.kind == obs::SpanKind::kShed) {
      ++sheds;
      EXPECT_EQ(sp.aux, 1);
    }
  }
  EXPECT_EQ(admits, 3);
  EXPECT_EQ(sheds, 1);
}

TEST(Admission, RejectNewKeepsTheQueue) {
  SessionConfig sc;
  sc.queue_cap = 2;
  Session s(0, sc, 4);
  AdmissionController adm(AdmissionPolicy::kRejectNew, true);
  std::vector<obs::Span> spans;
  adm.offer(s, req(0, 0, 0.1), 0.1, spans);
  adm.offer(s, req(0, 1, 0.2), 0.2, spans);
  adm.offer(s, req(0, 2, 0.3), 0.3, spans);  // cap: seq 2 is refused
  ASSERT_EQ(s.queue.size(), 2u);
  EXPECT_EQ(s.queue.front().seq, 0);
  EXPECT_EQ(s.queue.back().seq, 1);
  EXPECT_EQ(s.stats.admitted, 2);
  EXPECT_EQ(s.stats.rejected, 1);
  EXPECT_EQ(s.stats.shed, 0);
}

TEST(Admission, ExpiryDropsStaleFronts) {
  SessionConfig sc;
  sc.queue_cap = 8;
  sc.deadline = 0.5;
  Session s(0, sc, 4);
  AdmissionController adm(AdmissionPolicy::kShedOldest, true);
  std::vector<obs::Span> spans;
  adm.offer(s, req(0, 0, 0.1), 0.1, spans);
  adm.offer(s, req(0, 1, 0.4), 0.4, spans);
  adm.offer(s, req(0, 2, 0.9), 0.9, spans);
  // At t=1.0 only seq 0 (age 0.9) is stale; 1 (0.6) is too. 2 stays.
  const int dropped = adm.expire(s, 1.0, spans);
  EXPECT_EQ(dropped, 2);
  ASSERT_EQ(s.queue.size(), 1u);
  EXPECT_EQ(s.queue.front().seq, 2);
  EXPECT_EQ(s.stats.expired, 2);
  for (const obs::Span& sp : spans) {
    if (sp.kind == obs::SpanKind::kShed) {
      EXPECT_EQ(sp.aux, 2);
    }
  }
}

TEST(Admission, PolicyNamesRoundTrip) {
  EXPECT_EQ(parse_admission_policy("shed-oldest"),
            AdmissionPolicy::kShedOldest);
  EXPECT_EQ(parse_admission_policy("reject-new"), AdmissionPolicy::kRejectNew);
  EXPECT_STREQ(admission_policy_name(AdmissionPolicy::kShedOldest),
               "shed-oldest");
  EXPECT_STREQ(admission_policy_name(AdmissionPolicy::kRejectNew),
               "reject-new");
}

// ---------------------------------------------------------------- batcher

std::vector<Session> make_sessions(int n, int ranks, int priority_classes) {
  std::vector<Session> out;
  for (int i = 0; i < n; ++i) {
    SessionConfig sc;
    sc.priority = i % priority_classes;
    out.emplace_back(i, sc, ranks);
  }
  return out;
}

TEST(Batcher, CoalescesMatchingFrontsOnly) {
  std::vector<Session> s = make_sessions(3, 4, 1);
  Request a = req(0, 0, 0.1);
  a.yaw_deg = 30.0;
  Request b = req(1, 0, 0.2);
  b.yaw_deg = 30.3;  // same 1-degree cell as a
  Request b2 = req(1, 1, 0.25);
  b2.yaw_deg = 30.1;  // also matching, but NOT at the front once b pops
  Request c = req(2, 0, 0.3);
  c.yaw_deg = 45.0;  // different view
  s[0].queue.push_back(a);
  s[1].queue.push_back(b);
  s[1].queue.push_back(b2);
  s[2].queue.push_back(c);
  RequestBatcher batcher(1.0);
  const Batch batch = batcher.next_batch(s);
  EXPECT_EQ(batch.lead.session, 0);
  ASSERT_EQ(batch.riders.size(), 1u);
  EXPECT_EQ(batch.riders[0].session, 1);
  EXPECT_EQ(batch.riders[0].seq, 0);
  // b2 stays queued: only queue fronts may ride, preserving
  // per-session arrival order.
  ASSERT_EQ(s[1].queue.size(), 1u);
  EXPECT_EQ(s[1].queue.front().seq, 1);
  EXPECT_EQ(s[2].queue.size(), 1u);
  EXPECT_EQ(s[0].stats.batches_led, 1);
  EXPECT_EQ(s[1].stats.batches_joined, 1);
}

TEST(Batcher, QuantZeroDisablesCoalescing) {
  std::vector<Session> s = make_sessions(2, 4, 1);
  Request a = req(0, 0, 0.1);
  Request b = req(1, 0, 0.2);  // identical pose
  s[0].queue.push_back(a);
  s[1].queue.push_back(b);
  RequestBatcher batcher(0.0);
  const Batch batch = batcher.next_batch(s);
  EXPECT_EQ(batch.size(), 1);
  EXPECT_FALSE(s[1].idle());
}

TEST(Batcher, HigherPriorityClassLeadsFirst) {
  std::vector<Session> s = make_sessions(4, 4, 2);  // prio 0,1,0,1
  Request lo = req(1, 0, 0.05);
  lo.yaw_deg = 200.0;
  s[1].queue.push_back(lo);  // priority 1 arrived first...
  Request hi = req(2, 0, 0.1);
  hi.yaw_deg = 100.0;
  s[2].queue.push_back(hi);  // ...but priority 0 leads
  RequestBatcher batcher(1.0);
  const Batch batch = batcher.next_batch(s);
  EXPECT_EQ(batch.lead.session, 2);
}

TEST(Batcher, RoundRobinWithinClass) {
  std::vector<Session> s = make_sessions(3, 4, 1);
  for (int i = 0; i < 3; ++i)
    for (int k = 0; k < 2; ++k) {
      Request r = req(i, k, 0.1);
      r.yaw_deg = static_cast<double>(100 * i);  // no coalescing overlap
      s[static_cast<std::size_t>(i)].queue.push_back(r);
    }
  RequestBatcher batcher(1.0);
  std::vector<int> leads;
  for (int i = 0; i < 6; ++i)
    leads.push_back(batcher.next_batch(s).lead.session);
  EXPECT_EQ(leads, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

// ----------------------------------------------------------- run_service

ServiceConfig small_service() {
  ServiceConfig sc;
  sc.ranks = 4;
  sc.volume_n = 32;
  sc.image_size = 64;
  sc.traffic.sessions = 3;
  sc.traffic.requests_per_session = 4;
  sc.traffic.arrival_rate = 100.0;
  sc.queue_cap = 2;
  return sc;
}

TEST(RunService, ConservationLaws) {
  ServiceConfig sc = small_service();
  const ServiceResult res = run_service(sc);
  ASSERT_EQ(res.stats.sessions.size(), 3u);
  std::int64_t delivered = 0;
  for (const comm::SessionStats& s : res.stats.sessions) {
    EXPECT_EQ(s.arrivals, 4);
    // Every arrival is admitted or rejected; every admitted request is
    // delivered, shed, or expired (queues drain before return).
    EXPECT_EQ(s.arrivals, s.admitted + s.rejected);
    EXPECT_EQ(s.admitted, s.delivered + s.shed + s.expired);
    EXPECT_LE(s.queue_peak, sc.queue_cap);
    delivered += s.delivered;
  }
  EXPECT_EQ(delivered, static_cast<std::int64_t>(res.deliveries.size()));
  // Each submission delivers 1 + riders requests.
  std::int64_t by_submission = 0;
  for (const Submission& sub : res.submissions)
    by_submission += 1 + sub.riders;
  EXPECT_EQ(by_submission, delivered);
  EXPECT_GT(res.makespan, 0.0);
  for (const Delivery& d : res.deliveries) EXPECT_GE(d.latency(), 0.0);
}

TEST(RunService, DeterministicAcrossExecutors) {
  ServiceConfig sc = small_service();
  sc.comp.gather = true;
  sc.comp.executor.kind = comm::ExecutorKind::kPooled;
  const ServiceResult a = run_service(sc);
  sc.comp.executor.kind = comm::ExecutorKind::kThreaded;
  const ServiceResult b = run_service(sc);
  ASSERT_EQ(a.submissions.size(), b.submissions.size());
  for (std::size_t i = 0; i < a.submissions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.submissions[i].timing.composite_end,
                     b.submissions[i].timing.composite_end);
    EXPECT_TRUE(images_equal(a.submissions[i].image, b.submissions[i].image));
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i)
    EXPECT_DOUBLE_EQ(a.deliveries[i].latency(), b.deliveries[i].latency());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(RunService, OverloadShedsUnderShedOldestAndRejectsUnderRejectNew) {
  ServiceConfig sc = small_service();
  sc.traffic.requests_per_session = 16;
  sc.traffic.arrival_rate = 5000.0;  // far beyond service capacity
  sc.queue_cap = 2;
  sc.quant_deg = 0.0;  // no coalescing: every request costs a render
  sc.admission = AdmissionPolicy::kShedOldest;
  const ServiceResult shed = run_service(sc);
  EXPECT_GT(shed.stats.total_session_sheds(), 0);
  EXPECT_EQ(shed.stats.total_session_rejects(), 0);
  sc.admission = AdmissionPolicy::kRejectNew;
  const ServiceResult rej = run_service(sc);
  EXPECT_GT(rej.stats.total_session_rejects(), 0);
  EXPECT_EQ(rej.stats.total_session_sheds(), 0);
  // Both served the same offered load.
  EXPECT_EQ(shed.stats.total_session_arrivals(),
            rej.stats.total_session_arrivals());
}

TEST(RunService, SessionDeadlineExpiresStaleWork) {
  ServiceConfig sc = small_service();
  sc.traffic.requests_per_session = 16;
  sc.traffic.arrival_rate = 5000.0;
  sc.queue_cap = 16;  // cap never binds; only freshness drops
  sc.quant_deg = 0.0;
  sc.session_deadline = 0.01;
  const ServiceResult res = run_service(sc);
  EXPECT_GT(res.stats.total_session_expiries(), 0);
  EXPECT_EQ(res.stats.total_session_sheds(), 0);
  // Delivered requests waited no longer than deadline before dispatch;
  // latency additionally includes render+composite time.
  for (const Delivery& d : res.deliveries) {
    const Submission& sub =
        res.submissions[static_cast<std::size_t>(d.submission)];
    EXPECT_LE(sub.timing.render_start - d.arrival,
              sc.session_deadline + 1e-12);
  }
}

TEST(RunService, ServiceSpansRecordAdmissionDecisions) {
  ServiceConfig sc = small_service();
  sc.comp.record_spans = true;
  const ServiceResult res = run_service(sc);
  int admits = 0, batches = 0;
  for (const obs::Span& s : res.service_spans) {
    if (s.kind == obs::SpanKind::kAdmit) ++admits;
    if (s.kind == obs::SpanKind::kBatch) ++batches;
  }
  EXPECT_EQ(admits, 12);  // every arrival admitted in this config
  EXPECT_EQ(batches, static_cast<int>(res.submissions.size()));
  // Per-rank spans were merged and frame-stamped with the submission
  // (a -DRTC_OBS=OFF build records no rank spans to stamp).
  ASSERT_FALSE(res.stats.ranks.empty());
#if !defined(RTC_OBS_DISABLED)
  bool any_stamped = false;
  for (const obs::Span& s : res.stats.ranks[0].spans)
    if (s.frame >= 0) any_stamped = true;
  EXPECT_TRUE(any_stamped);
#endif
}

// The acceptance identity: a zero-shed single-session run delivers
// images byte-identical to frames::run_sequence over the same views —
// the front end adds scheduling, never pixels.
TEST(RunService, ZeroShedMatchesRunSequenceByteForByte) {
  ServiceConfig sc;
  sc.ranks = 4;
  sc.volume_n = 32;
  sc.image_size = 64;
  sc.comp.gather = true;
  sc.traffic.sessions = 1;
  sc.traffic.requests_per_session = 4;
  sc.traffic.arrival_rate = 2.0;  // slow: queues never fill
  sc.traffic.yaw0_deg = 0.0;
  sc.traffic.yaw_step_deg = 10.0;
  sc.traffic.pitch_deg = 15.0;
  sc.queue_cap = 8;
  const ServiceResult res = run_service(sc);
  EXPECT_EQ(res.stats.total_session_drops(), 0);
  ASSERT_EQ(res.submissions.size(), 4u);

  frames::PipelineConfig pc;
  pc.ranks = 4;
  pc.volume_n = 32;
  pc.image_size = 64;
  pc.frames = 4;
  pc.yaw0_deg = 0.0;
  pc.sweep_deg = 40.0;  // yaw = 0, 10, 20, 30 — the service's orbit
  pc.pitch_deg = 15.0;
  pc.comp.gather = true;
  const frames::SequenceResult seq = frames::run_sequence(pc);
  ASSERT_EQ(seq.frames.size(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_DOUBLE_EQ(res.submissions[f].yaw_deg, seq.frames[f].yaw_deg);
    EXPECT_TRUE(
        images_equal(res.submissions[f].image, seq.frames[f].run.image))
        << "submission " << f;
  }
}

// The error contract binds the stale/blank classes too: under a
// max_error below their a-priori 255, an overloaded session whose class
// steps down to stale composes at the deepest rung the contract admits
// instead. A full-width contract keeps serving stale frames; the fold
// pins that run's frames, errors and latencies.
TEST(RunService, MaxErrorBindsStaleAndBlankClasses) {
  ServiceConfig sc;
  sc.ranks = 4;
  sc.volume_n = 24;
  sc.image_size = 32;
  sc.comp.gather = true;
  sc.comp.record_spans = true;
  sc.traffic.sessions = 4;
  sc.traffic.requests_per_session = 6;
  sc.traffic.arrival_rate = 400.0;
  sc.queue_cap = 2;
  sc.comp.quality.max_rung = quality::Rung::kStale;
  sc.comp.quality.degrade_before_shed = true;
  // A stale/blank serve is a frame-stamped kDegrade instant (class
  // steps at admission carry no frame).
  const auto stale_serves = [](const ServiceResult& r) {
    int n = 0;
    for (const obs::Span& s : r.service_spans)
      if (s.kind == obs::SpanKind::kDegrade && s.frame >= 0) ++n;
    return n;
  };

  const ServiceResult full = run_service(sc);
  ASSERT_GT(stale_serves(full), 0) << "the overload must reach stale";
  EXPECT_EQ(full.stats.error_bound, 255);
  std::uint64_t fold = 1469598103934665603ull;
  const auto mix = [&fold](std::uint64_t v) {
    fold = (fold ^ v) * 1099511628211ull;
  };
  for (const Submission& sub : full.submissions)
    mix(frames::hash_pixels(sub.image.pixels()));
  for (const comm::SessionStats& s : full.stats.sessions) {
    mix(static_cast<std::uint64_t>(s.max_pixel_error));
    mix(static_cast<std::uint64_t>(s.stale_pixels));
    mix(static_cast<std::uint64_t>(s.quality_floor));
  }
  for (const Delivery& d : full.deliveries)
    mix(std::bit_cast<std::uint64_t>(d.latency()));
  mix(static_cast<std::uint64_t>(full.stats.max_pixel_error));
  EXPECT_EQ(fold, 0x2505e304dad363b9ull) << "0x" << std::hex << fold;

  sc.comp.quality.max_error = 46;  // the approx bound at saturation 240
  const ServiceResult bound = run_service(sc);
  EXPECT_EQ(stale_serves(bound), 0);
  EXPECT_EQ(bound.stats.total_session_drops(), 0);
  EXPECT_LE(bound.stats.quality_rung,
            static_cast<int>(quality::Rung::kProgressive));
  EXPECT_LE(bound.stats.error_bound, 46);
  EXPECT_LE(bound.stats.max_pixel_error, 46);
  for (const comm::SessionStats& s : bound.stats.sessions) {
    EXPECT_LE(s.max_pixel_error, 46) << "session " << s.session;
    EXPECT_EQ(s.stale_pixels, 0) << "session " << s.session;
  }
  // No blank frame either: every submission composed a real image.
  for (const Submission& sub : bound.submissions)
    EXPECT_GT(img::count_non_blank(sub.image.pixels()), 0);
}

// Fault isolation: a crash injected at one submission degrades exactly
// that submission's sessions; under kRecompose later submissions
// re-partition over the survivors and stay clean.
TEST(RunService, CrashDegradesOnlyTheFaultSubmissionsSessions) {
  ServiceConfig sc = small_service();
  sc.comp.gather = true;
  sc.quant_deg = 0.0;
  sc.comp.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  comm::FaultPlan::Crash crash;
  crash.rank = 1;
  crash.after_sends = 0;
  sc.comp.fault.crashes.push_back(crash);
  sc.fault_submission = 2;
  const ServiceResult res = run_service(sc);
  ASSERT_GT(res.submissions.size(), 3u);
  std::set<int> degraded_sessions;
  for (const Delivery& d : res.deliveries)
    if (d.degraded) degraded_sessions.insert(d.session);
  // Exactly the fault submission degraded.
  for (std::size_t i = 0; i < res.submissions.size(); ++i)
    EXPECT_EQ(res.submissions[i].degraded, static_cast<int>(i) == 2)
        << "submission " << i;
  const Submission& faulted = res.submissions[2];
  EXPECT_EQ(degraded_sessions.size(),
            static_cast<std::size_t>(1 + faulted.riders));
  EXPECT_TRUE(degraded_sessions.count(faulted.lead_session) == 1);
  // The per-session table agrees with the delivery log.
  for (const comm::SessionStats& s : res.stats.sessions)
    EXPECT_EQ(s.degraded > 0, degraded_sessions.count(s.session) == 1);
  EXPECT_EQ(res.ranks_lost, 1);
}

}  // namespace
}  // namespace rtc::service
