// Fail-slow injection and tolerance in the comm substrate: chronic
// compute slowdowns charge the virtual clock, seeded link jitter delays
// deliveries deterministically, the straggler detector flags a
// chronically slow link from the sender's own observations, hedged
// sends race a relay copy against the direct path (first arrival wins,
// the loser dedups for free), and a frame deadline clamps receiver
// waits while substituting last frame's content for late blocks.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "rtc/comm/fault.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/comm/stats.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::comm {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out;
  for (const char* p = s; *p != '\0'; ++p)
    out.push_back(static_cast<std::byte>(*p));
  return out;
}

FaultPlan slow_plan(int rank, double factor) {
  FaultPlan plan;
  plan.seed = 21;
  FaultPlan::Slow s;
  s.rank = rank;
  s.factor = factor;
  plan.slows.push_back(s);
  return plan;
}

FaultPlan jitter_plan(int src, int dst, double mean) {
  FaultPlan plan;
  plan.seed = 21;
  FaultPlan::Jitter j;
  j.src = src;
  j.dst = dst;
  j.mean = mean;
  plan.jitters.push_back(j);
  return plan;
}

std::vector<img::Image> make_partials(int ranks) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        24, 10, 9000u + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

TEST(FailSlow, PlanEnablementNeedsNonzeroMagnitudes) {
  FaultPlan plan;
  plan.seed = 7;
  EXPECT_FALSE(plan.enabled());
  FaultPlan::Slow s;
  s.rank = 1;
  s.factor = 1.0;  // a 1x "slowdown" is not a fault
  plan.slows.push_back(s);
  EXPECT_FALSE(plan.enabled());
  plan.slows.back().factor = 2.0;
  EXPECT_TRUE(plan.enabled());

  FaultPlan jp;
  jp.seed = 7;
  FaultPlan::Jitter j;
  j.src = 0;
  j.dst = 1;
  j.mean = 0.0;  // zero-mean jitter is not a fault either
  jp.jitters.push_back(j);
  EXPECT_FALSE(jp.enabled());
  jp.jitters.back().mean = 0.001;
  EXPECT_TRUE(jp.enabled());
}

TEST(FailSlow, ComputeSlowdownScalesLocalCharges) {
  World healthy(2, sp2_hps_model());
  World slowed(2, sp2_hps_model());
  slowed.set_fault_plan(slow_plan(1, 8.0));
  const auto body = [](Comm& c) { c.compute(0.01); };
  const RunResult h = healthy.run(body);
  const RunResult s = slowed.run(body);
  EXPECT_DOUBLE_EQ(h.stats.ranks[0].clock, 0.01);
  EXPECT_DOUBLE_EQ(s.stats.ranks[0].clock, 0.01);  // rank 0 untouched
  EXPECT_DOUBLE_EQ(s.stats.ranks[1].clock, 0.08);  // rank 1 is 8x slower
}

TEST(FailSlow, JitterDelaysAreSeededDeterministicAndLossless) {
  const auto partials = make_partials(4);
  harness::CompositionConfig cfg;
  cfg.method = "direct";
  cfg.gather = true;
  const harness::CompositionRun ref = harness::run_composition(cfg, partials);

  cfg.fault = jitter_plan(1, 0, 0.005);
  const harness::CompositionRun a = harness::run_composition(cfg, partials);
  const harness::CompositionRun b = harness::run_composition(cfg, partials);

  // Jitter delays, it never corrupts: the image and byte counts match
  // the no-fault run; only the clock moved.
  EXPECT_EQ(img::max_channel_diff(a.image, ref.image), 0);
  EXPECT_GT(a.stats.total_jitter_delays(), 0);
  EXPECT_GT(a.time, ref.time);
  EXPECT_TRUE(a.stats.has_faults());
  EXPECT_FALSE(a.degraded);
  // Same seed, same plan: bit-identical replay.
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.stats.total_jitter_delays(), b.stats.total_jitter_delays());
}

TEST(FailSlow, StragglerDetectorFlagsAndHedgesThroughRelay) {
  // Rank 0 streams messages to rank 1 over a link with chronic jitter
  // far beyond the healthy transfer time; rank 2 is the (healthy)
  // relay. The detector needs `straggler_window` slow observations to
  // flag the link, so the first two sends go unhedged.
  constexpr int kSends = 8;
  World w(3, sp2_hps_model());
  w.set_fault_plan(jitter_plan(0, 1, 0.05));
  ResiliencePolicy rp;
  rp.straggler_multiple = 3.0;
  rp.straggler_window = 2;
  rp.hedge = true;
  w.set_resilience(rp);

  std::vector<std::vector<std::byte>> got;
  const RunResult rr = w.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kSends; ++i) c.send(1, 7, bytes_of("payload"));
    } else if (c.rank() == 1) {
      for (int i = 0; i < kSends; ++i) got.push_back(c.recv(0, 7));
    }
  });

  const RankStats& sender = rr.stats.ranks[0];
  EXPECT_EQ(sender.stragglers_flagged, 1);
  EXPECT_EQ(sender.hedged_sends, kSends - rp.straggler_window);
  EXPECT_GT(sender.hedged_bytes, 0);
  // The relay path has no jitter, so every hedge beats the direct copy;
  // the relay rank carried the forwarded traffic.
  EXPECT_EQ(sender.hedge_wins, sender.hedged_sends);
  EXPECT_EQ(rr.stats.ranks[2].relay_through_messages, sender.hedge_wins);
  // Every losing direct copy arrived later and deduped for free. The
  // very last loser is still sitting in the mailbox when the receiver
  // finishes its 8th message, so it is never even counted.
  EXPECT_EQ(rr.stats.ranks[1].duplicates_discarded, sender.hedge_wins - 1);
  EXPECT_EQ(rr.stats.total_lost_messages(), 0);
  // No breaker involvement: hedging never trips or opens circuits.
  EXPECT_EQ(rr.stats.total_breaker_trips(), 0);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSends));
  for (const auto& p : got) EXPECT_EQ(p, bytes_of("payload"));
}

TEST(FailSlow, HealthyDeliveriesClearTheStragglerFlag) {
  // Same topology, but the jitter run is bracketed by healthy Worlds:
  // detector state lives inside one World::run, so a fresh run starts
  // unflagged and a healthy link never hedges.
  World w(3, sp2_hps_model());
  ResiliencePolicy rp;
  rp.straggler_multiple = 3.0;
  rp.straggler_window = 2;
  rp.hedge = true;
  w.set_resilience(rp);
  const RunResult rr = w.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) c.send(1, 7, bytes_of("x"));
    } else if (c.rank() == 1) {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(c.recv(0, 7), bytes_of("x"));
    }
  });
  EXPECT_EQ(rr.stats.ranks[0].stragglers_flagged, 0);
  EXPECT_EQ(rr.stats.ranks[0].hedged_sends, 0);
}

TEST(FailSlow, DeadlineClampsWaitAndSubstitutesLastFrame) {
  // Three "frames" through one World + StaleStore, like the sequence
  // driver runs them. Frame 0 is on time and seeds the store; frame 1
  // is jittered past the deadline and must deliver frame 0's bytes;
  // frame 2 is jittered again and must deliver frame 1's *real* (late)
  // bytes — the store refreshes from late arrivals, so substitution is
  // always exactly one frame old.
  constexpr double kDeadline = 0.01;
  World w(2, sp2_hps_model());
  w.set_deadline(kDeadline);
  StaleStore store(2);
  w.set_stale(&store);
  ResiliencePolicy rp;
  rp.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  w.set_resilience(rp);

  std::vector<std::byte> got;
  bool stale = false;
  const auto frame = [&](std::uint32_t epoch, const char* payload) {
    w.set_seq_epoch(epoch);
    return w.run([&](Comm& c) {
      if (c.rank() == 1) {
        c.send(0, 3, bytes_of(payload));
      } else {
        got = c.recv(1, 3);
        stale = c.last_recv_stale();
      }
    });
  };

  const RunResult f0 = frame(0, "frame0");
  EXPECT_EQ(got, bytes_of("frame0"));
  EXPECT_FALSE(stale);
  EXPECT_EQ(f0.stats.total_deadline_misses(), 0);

  w.set_fault_plan(jitter_plan(1, 0, 10.0));  // always past the deadline
  const RunResult f1 = frame(1, "frame1");
  EXPECT_EQ(got, bytes_of("frame0"));  // substituted, one frame old
  EXPECT_TRUE(stale);
  EXPECT_EQ(f1.stats.total_deadline_misses(), 1);
  // The receiver stopped waiting at the deadline instead of riding out
  // the 10-second jitter.
  EXPECT_LE(f1.stats.ranks[0].clock, kDeadline + 1e-12);

  const RunResult f2 = frame(2, "frame2");
  EXPECT_EQ(got, bytes_of("frame1"));  // refreshed by frame 1's late bytes
  EXPECT_TRUE(stale);
  EXPECT_EQ(f2.stats.total_deadline_misses(), 1);
}

TEST(FailSlow, DeadlineWithColdStoreDegradesToLoss) {
  // No prior frame to substitute from: the late block is a loss, not a
  // crash — recv() under kBlank surfaces it as kLost via try_recv.
  World w(2, sp2_hps_model());
  w.set_deadline(0.01);
  StaleStore store(2);
  w.set_stale(&store);
  ResiliencePolicy rp;
  rp.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  w.set_resilience(rp);
  w.set_fault_plan(jitter_plan(1, 0, 10.0));
  bool lost = false;
  const RunResult rr = w.run([&](Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 3, bytes_of("late"));
    } else {
      lost = !c.try_recv(1, 3).has_value();
    }
  });
  EXPECT_TRUE(lost);
  EXPECT_EQ(rr.stats.total_deadline_misses(), 1);
  EXPECT_EQ(rr.stats.total_lost_messages(), 1);
  EXPECT_EQ(rr.stats.total_stale_tiles(), 0);
}

TEST(FailSlow, ControlPlaneIgnoresTheDeadline) {
  // Control-plane tags ride the reliable channel: the deadline (like
  // fault shaping) must never clamp or drop them, or membership floods
  // would starve. Here the data message is jittered past the deadline
  // while the control message on the same link sails through.
  World w(2, sp2_hps_model());
  w.set_deadline(0.01);
  ResiliencePolicy rp;
  rp.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  w.set_resilience(rp);
  w.set_fault_plan(jitter_plan(1, 0, 10.0));
  std::vector<std::byte> got;
  bool data_lost = false;
  const RunResult rr = w.run([&](Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 3, bytes_of("data"));
      c.send(0, kControlTagBase + 5, bytes_of("ctl"));
    } else {
      got = c.recv(1, kControlTagBase + 5);
      data_lost = !c.try_recv(1, 3).has_value();
    }
  });
  EXPECT_EQ(got, bytes_of("ctl"));
  EXPECT_TRUE(data_lost);  // cold store: the late data block is a loss
  EXPECT_EQ(rr.stats.total_deadline_misses(), 1);  // the data tag only
}

TEST(FailSlow, ZeroFaultRunsKeepAllNewCountersZero) {
  const auto partials = make_partials(4);
  harness::CompositionConfig cfg;
  cfg.method = "bswap";
  cfg.gather = true;
  const harness::CompositionRun run = harness::run_composition(cfg, partials);
  EXPECT_FALSE(run.stats.has_faults());
  EXPECT_EQ(run.stats.total_jitter_delays(), 0);
  EXPECT_EQ(run.stats.total_stragglers_flagged(), 0);
  EXPECT_EQ(run.stats.total_hedged_sends(), 0);
  EXPECT_EQ(run.stats.total_hedge_wins(), 0);
  EXPECT_EQ(run.stats.total_deadline_misses(), 0);
  EXPECT_EQ(run.stats.total_stale_tiles(), 0);
  EXPECT_EQ(run.stats.total_stale_pixels(), 0);
  EXPECT_EQ(run.stats.max_pixel_error, 0);
  // fault_summary keeps the legacy byte-exact format.
  EXPECT_EQ(harness::fault_summary(run.stats),
            "retx=0 crc=0 drops=0 dups=0 lost_msgs=0 lost_px=0 dead=[] ok");
}

}  // namespace
}  // namespace rtc::comm
