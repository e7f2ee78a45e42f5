// Frame-boundary hygiene in the comm substrate: per-frame sequence
// epochs keep wire numbering disjoint across frames, and the
// resettable state (BufferPool, RankStats/RunStats counters) provably
// carries nothing from one frame into the next.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "rtc/comm/buffer_pool.hpp"
#include "rtc/comm/stats.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/harness/experiment.hpp"
#include "testutil.hpp"

namespace rtc::comm {
namespace {

std::vector<img::Image> make_partials(int ranks) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        24, 10, 6000u + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

harness::CompositionRun run_epoch(std::uint32_t epoch,
                                  const std::vector<img::Image>& partials) {
  harness::CompositionConfig cfg;
  cfg.method = "bswap";
  cfg.gather = true;
  cfg.seq_epoch = epoch;
  return harness::run_composition(cfg, partials);
}

TEST(SeqEpoch, EpochZeroReproducesHistoricalNumbering) {
  const auto partials = make_partials(4);
  const harness::CompositionRun run = run_epoch(0, partials);
  for (const RankStats& r : run.stats.ranks) {
    if (r.messages_sent == 0) continue;
    EXPECT_EQ(r.seq_first, 1u);  // counters start at 1, as always
    EXPECT_EQ(r.seq_last,
              static_cast<std::uint32_t>(r.messages_sent));
  }
}

TEST(SeqEpoch, FramesOccupyDisjointSequenceRanges) {
  const auto partials = make_partials(4);
  const harness::CompositionRun f0 = run_epoch(0, partials);
  const harness::CompositionRun f1 = run_epoch(1, partials);
  const std::uint32_t base1 = std::uint32_t{1} << World::kSeqEpochBits;
  for (std::size_t r = 0; r < f0.stats.ranks.size(); ++r) {
    const RankStats& a = f0.stats.ranks[r];
    const RankStats& b = f1.stats.ranks[r];
    if (a.messages_sent == 0) continue;
    // Epoch 0 stays below the epoch-1 base; epoch 1 starts right at it.
    EXPECT_LT(a.seq_last, base1);
    EXPECT_EQ(b.seq_first, base1 + 1);
    EXPECT_GT(b.seq_first, a.seq_last);  // disjoint, strictly above
    // Same schedule, same traffic: only the epoch base moved.
    EXPECT_EQ(b.seq_last - b.seq_first, a.seq_last - a.seq_first);
  }
  // The epoch is invisible to the virtual clock and the pixels.
  EXPECT_EQ(f0.time, f1.time);
  EXPECT_EQ(img::max_channel_diff(f0.image, f1.image), 0);
}

TEST(SeqEpoch, RejectsEpochsBeyondTheFieldWidth) {
  World w(2, sp2_hps_model());
  w.set_seq_epoch((std::uint32_t{1} << (32 - World::kSeqEpochBits)) - 1);
  EXPECT_THROW(
      w.set_seq_epoch(std::uint32_t{1} << (32 - World::kSeqEpochBits)),
      ContractError);
}

TEST(BufferPool, ReuseAccountingAndReset) {
  BufferPool pool;
  std::vector<std::byte> b = pool.acquire();
  EXPECT_EQ(pool.misses(), 1u);  // empty pool: a fresh buffer
  b.resize(64);
  pool.release(std::move(b));
  EXPECT_EQ(pool.free_buffers(), 1u);

  std::vector<std::byte> c = pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(c.empty());           // cleared...
  EXPECT_GE(c.capacity(), 64u);     // ...but the capacity survived
  pool.release(std::move(c));

  // Frame boundary: nothing — capacity or counters — survives reset.
  pool.reset();
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  std::vector<std::byte> d = pool.acquire();
  EXPECT_EQ(pool.misses(), 1u);  // cold again
  pool.release(std::move(d));
}

TEST(BufferPool, CapacitylessBuffersAreNotPooled) {
  BufferPool pool;
  pool.release({});
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(Stats, RankCountersResetToFreshState) {
  RankStats r;
  r.messages_sent = 7;
  r.bytes_sent = 123;
  r.coherence_hits = 3;
  r.coherence_bytes_saved = 99;
  r.seq_first = 5;
  r.seq_last = 11;
  r.lost_blocks.push_back(2);
  r.crashed = true;
  r.clock = 1.5;
  r.reset_counters();
  EXPECT_EQ(r.messages_sent, 0);
  EXPECT_EQ(r.bytes_sent, 0);
  EXPECT_EQ(r.coherence_hits, 0);
  EXPECT_EQ(r.coherence_bytes_saved, 0);
  EXPECT_EQ(r.seq_first, 0u);
  EXPECT_EQ(r.seq_last, 0u);
  EXPECT_TRUE(r.lost_blocks.empty());
  EXPECT_FALSE(r.crashed);
  EXPECT_EQ(r.clock, 0.0);
}

TEST(Stats, ResetAlsoClearsRecoveryCounters) {
  RankStats r;
  r.recomposes = 2;
  r.membership_epoch = 3;
  r.relayed_messages = 4;
  r.relayed_bytes = 100;
  r.relay_through_messages = 1;
  r.relay_through_bytes = 50;
  r.breaker_trips = 1;
  r.breaker_probes = 2;
  r.reset_counters();
  EXPECT_EQ(r.recomposes, 0);
  EXPECT_EQ(r.membership_epoch, 0u);
  EXPECT_EQ(r.relayed_messages, 0);
  EXPECT_EQ(r.relayed_bytes, 0);
  EXPECT_EQ(r.relay_through_messages, 0);
  EXPECT_EQ(r.relay_through_bytes, 0);
  EXPECT_EQ(r.breaker_trips, 0);
  EXPECT_EQ(r.breaker_probes, 0);
}

TEST(Stats, EveryCounterRowDrivesPredicatesResetAndFold) {
  // Each kRankCounters row, set alone on one rank of a fresh RunStats:
  // its effect decides both predicates, so has_faults() ⊇ degraded()
  // holds row by row; reset_counters() clears it; the fold adds it.
  for (std::size_t i = 0; i < std::size(kRankCounters); ++i) {
    SCOPED_TRACE("kRankCounters row " + std::to_string(i));
    const CounterRow& row = kRankCounters[i];
    RunStats s;
    s.ranks.resize(2);
    EXPECT_FALSE(s.has_faults());
    s.ranks[1].*row.field = 3;
    EXPECT_EQ(s.total(row.field), 3);
    EXPECT_EQ(s.has_faults(), row.effect != CounterEffect::kNone);
    EXPECT_EQ(s.degraded(), row.effect == CounterEffect::kDegrades);

    RankStats acc;
    fold_rank(acc, s.ranks[1], 0.0, 0);
    fold_rank(acc, s.ranks[1], 0.0, 1);
    EXPECT_EQ(acc.*row.field, 6);

    s.reset_counters();
    ASSERT_EQ(s.ranks.size(), 2u);
    EXPECT_EQ(s.total(row.field), 0);
    EXPECT_FALSE(s.has_faults());
  }
}

TEST(Stats, CrashEpochAndCoarsePixelsOutsideTheTable) {
  RunStats s;
  s.ranks.resize(2);
  s.ranks[1].crashed = true;
  EXPECT_TRUE(s.has_faults());
  EXPECT_TRUE(s.degraded());
  s.reset_counters();
  EXPECT_FALSE(s.has_faults());

  // A membership change is recovered activity: the image stays exact.
  s.ranks[1].membership_epoch = 1;
  EXPECT_TRUE(s.has_faults());
  EXPECT_FALSE(s.degraded());
  s.reset_counters();
  EXPECT_FALSE(s.has_faults());

  // An unrefined coarse pass degrades the image, so it is a fault too.
  s.coarse_pixels = 64;
  EXPECT_TRUE(s.has_faults());
  EXPECT_TRUE(s.degraded());
  s.reset_counters();
  EXPECT_FALSE(s.has_faults());
  EXPECT_EQ(s.coarse_pixels, 0);

  // The fold ORs crashed, keeps the highest epoch, and shifts times.
  RankStats a;
  a.membership_epoch = 2;
  a.clock = 1.0;
  RankStats b;
  b.crashed = true;
  b.membership_epoch = 1;
  b.clock = 0.5;
  b.marks.emplace_back(1, 0.25);
  b.spans.push_back(obs::Span{});
  b.spans.back().v_end = 0.5;
  fold_rank(a, b, 2.0, 7);
  EXPECT_TRUE(a.crashed);
  EXPECT_EQ(a.membership_epoch, 2u);
  EXPECT_EQ(a.clock, 2.5);
  ASSERT_EQ(a.marks.size(), 1u);
  EXPECT_EQ(a.marks[0].second, 2.25);
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].v_begin, 2.0);
  EXPECT_EQ(a.spans[0].v_end, 2.5);
  EXPECT_EQ(a.spans[0].frame, 7);
}

TEST(Stats, CrashSpanningAFrameBoundaryDoesNotLeakThroughReset) {
  // The frame pipeline accumulates into one RunStats per frame and
  // resets at the boundary. A crash-and-recompose frame must leave a
  // resettable record: after reset_counters() the accumulator is
  // indistinguishable from a clean frame's, and the *next* frame's
  // own stats (fresh World, survivors only) stay fault-free.
  const auto partials = make_partials(4);
  harness::CompositionConfig cfg;
  cfg.method = "bswap";
  cfg.gather = true;
  cfg.seq_epoch = 0;  // "frame 0"
  cfg.fault.seed = 606;
  cfg.fault.crashes.push_back({.rank = 3, .after_sends = 0});
  cfg.resilience.retries = 6;
  cfg.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kRecompose;
  harness::CompositionRun frame0 = harness::run_composition(cfg, partials);
  EXPECT_TRUE(frame0.stats.has_faults());
  EXPECT_TRUE(frame0.stats.degraded());
  EXPECT_EQ(frame0.stats.max_membership_epoch(), 1u);

  RunStats acc = frame0.stats;  // pipeline-style accumulator
  acc.reset_counters();
  EXPECT_FALSE(acc.has_faults());
  EXPECT_FALSE(acc.degraded());
  EXPECT_EQ(acc.max_membership_epoch(), 0u);
  EXPECT_EQ(acc.total_recomposes(), 0);
  ASSERT_EQ(acc.ranks.size(), 4u);  // rank slots survive the reset

  // "Frame 1": the survivors on a fresh World, crash plan spent.
  harness::CompositionConfig next;
  next.method = "bswap_any";
  next.gather = true;
  next.seq_epoch = 1;
  next.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kRecompose;
  const std::vector<img::Image> surv(partials.begin(), partials.end() - 1);
  const harness::CompositionRun frame1 =
      harness::run_composition(next, surv);
  EXPECT_FALSE(frame1.stats.has_faults());
  EXPECT_FALSE(frame1.stats.degraded());
  EXPECT_EQ(frame1.stats.max_membership_epoch(), 0u);
}

TEST(Stats, RunResetPreservesRankCountOnly) {
  RunStats s;
  s.ranks.resize(3);
  s.ranks[0].coherence_hits = 4;
  s.ranks[2].lost_pixels = 10;
  EXPECT_GT(s.total_coherence_hits(), 0);
  EXPECT_TRUE(s.degraded());
  s.reset_counters();
  ASSERT_EQ(s.ranks.size(), 3u);
  EXPECT_EQ(s.total_coherence_hits(), 0);
  EXPECT_EQ(s.total_lost_pixels(), 0);
  EXPECT_FALSE(s.degraded());
  EXPECT_EQ(s.coherence_hit_rate(), 0.0);
}

}  // namespace
}  // namespace rtc::comm
