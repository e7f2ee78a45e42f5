// Executor equivalence: the pooled fiber executor must be a drop-in
// replacement for thread-per-rank. Virtual time depends only on the
// message DAG, so every observable — makespan, per-rank clocks, fault
// counters, the composited image — must be bit-identical across
// executors, with or without injected faults. Plus the scaling
// contract itself: thousands of ranks run on a bounded worker pool,
// and the legacy threaded path refuses rank counts it cannot carry.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "rtc/comm/error.hpp"
#include "rtc/comm/executor.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::comm {
namespace {

struct Capture {
  double time = 0.0;
  double delivery = 0.0;
  std::vector<double> clocks;
  std::string faults;
  img::Image image;
};

Capture run_with(ExecutorKind kind, harness::CompositionConfig cfg,
                 const std::vector<img::Image>& partials) {
  cfg.executor.kind = kind;
  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);
  Capture c;
  c.time = run.time;
  c.delivery = run.delivery_time;
  for (const auto& r : run.stats.ranks) c.clocks.push_back(r.clock);
  c.faults = harness::fault_summary(run.stats);
  c.image = run.image;
  return c;
}

std::vector<img::Image> make_partials(int ranks) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        33, 21, 4200u + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

void expect_identical(const Capture& pooled, const Capture& threaded,
                      const std::string& label) {
  // EXPECT_EQ on doubles: bit-identical is the contract, not "close".
  EXPECT_EQ(pooled.time, threaded.time) << label;
  EXPECT_EQ(pooled.delivery, threaded.delivery) << label;
  ASSERT_EQ(pooled.clocks.size(), threaded.clocks.size()) << label;
  for (std::size_t i = 0; i < pooled.clocks.size(); ++i)
    EXPECT_EQ(pooled.clocks[i], threaded.clocks[i])
        << label << " rank " << i;
  EXPECT_EQ(pooled.faults, threaded.faults) << label;
  EXPECT_TRUE(pooled.image == threaded.image) << label;
}

TEST(ExecutorKindNames, RoundTripAndReject) {
  EXPECT_EQ(parse_executor_kind("pooled"), ExecutorKind::kPooled);
  EXPECT_EQ(parse_executor_kind("threaded"), ExecutorKind::kThreaded);
  EXPECT_FALSE(parse_executor_kind("fibers").has_value());
  EXPECT_FALSE(parse_executor_kind("").has_value());
  EXPECT_EQ(to_string(ExecutorKind::kPooled), "pooled");
  EXPECT_EQ(to_string(ExecutorKind::kThreaded), "threaded");
}

using Case = std::tuple<std::string /*method*/, int /*ranks*/,
                        int /*blocks*/>;

class ExecutorEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ExecutorEquivalence, CleanRunBitIdentical) {
  const auto [method, ranks, blocks] = GetParam();
  const auto partials = make_partials(ranks);
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.gather = true;
  const Capture pooled = run_with(ExecutorKind::kPooled, cfg, partials);
  const Capture threaded = run_with(ExecutorKind::kThreaded, cfg, partials);
  expect_identical(pooled, threaded, method);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ExecutorEquivalence,
    ::testing::Values(Case{"bswap", 16, 1}, Case{"bswap_any", 11, 1},
                      Case{"direct", 7, 1}, Case{"pp", 6, 6},
                      Case{"rt", 5, 3}, Case{"rt_2n", 9, 4},
                      Case{"rt_n", 32, 2}, Case{"hier", 32, 2}));

TEST(ExecutorEquivalence, WireFaultsBitIdentical) {
  // Drops, corruption and duplicates exercise retransmit timers and
  // dedup windows — all virtual-time machinery that must not notice
  // which executor is underneath.
  const auto partials = make_partials(12);
  harness::CompositionConfig cfg;
  cfg.method = "rt_2n";
  cfg.initial_blocks = 4;
  cfg.gather = true;
  cfg.fault.seed = 77;
  cfg.fault.drop = 0.08;
  cfg.fault.corrupt = 0.05;
  cfg.fault.duplicate = 0.05;
  cfg.resilience.retries = 4;
  const Capture pooled = run_with(ExecutorKind::kPooled, cfg, partials);
  const Capture threaded = run_with(ExecutorKind::kThreaded, cfg, partials);
  expect_identical(pooled, threaded, "rt_2n faulty");
}

TEST(ExecutorEquivalence, CrashAndRecomposeBitIdentical) {
  // Crash recovery re-runs the compositor over the survivor view —
  // membership epochs, barrier re-entry and the second pass must all
  // agree across executors.
  const auto partials = make_partials(8);
  harness::CompositionConfig cfg;
  cfg.method = "bswap_any";
  cfg.gather = true;
  FaultPlan::Crash crash;
  crash.rank = 3;
  crash.after_sends = 1;
  cfg.fault.crashes.push_back(crash);
  cfg.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kRecompose;
  const Capture pooled = run_with(ExecutorKind::kPooled, cfg, partials);
  const Capture threaded = run_with(ExecutorKind::kThreaded, cfg, partials);
  expect_identical(pooled, threaded, "recompose");
}

TEST(ExecutorEquivalence, BlankSubstitutionBitIdentical) {
  const auto partials = make_partials(9);
  harness::CompositionConfig cfg;
  cfg.method = "direct";
  cfg.gather = true;
  FaultPlan::Crash crash;
  crash.rank = 5;
  crash.after_sends = 0;
  cfg.fault.crashes.push_back(crash);
  cfg.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  const Capture pooled = run_with(ExecutorKind::kPooled, cfg, partials);
  const Capture threaded = run_with(ExecutorKind::kThreaded, cfg, partials);
  expect_identical(pooled, threaded, "blank-on-loss");
}

TEST(PooledExecutorTest, DeadlockTimesOutWithFullContext) {
  // The pooled deadlock breaker must surface the same typed CommError
  // as a threaded recv timeout: rank, peer, tag, clock, elapsed wall
  // time at least the configured grace, and a mailbox snapshot.
  World world(2, NetworkModel{});
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::kPooled;
  world.set_executor(cfg);
  world.set_recv_timeout(0.2);
  try {
    world.run([](Comm& c) {
      if (c.rank() == 0) {
        c.compute(1.5);
        (void)c.recv(1, 9);  // never sent
      }
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), 9);
    EXPECT_DOUBLE_EQ(e.virtual_time(), 1.5);
    EXPECT_GE(e.elapsed(), 0.2);
    EXPECT_EQ(e.mailbox_snapshot(), "empty");
  }
}

TEST(PooledExecutorTest, RunsThousandsOfRanksOnABoundedPool) {
  // Thread-per-rank would need 2048 kernel threads (and die on most
  // default rlimits); the fiber pool runs the same program on a
  // handful of workers. A neighbor ring forces every fiber through at
  // least one park/wake cycle.
  const int p = 2048;
  World world(p, NetworkModel{});
  // Pooled explicitly: P=2048 is past the threaded executor's rank
  // cap, and the TSan gate runs under RTC_EXECUTOR=threaded.
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::kPooled;
  world.set_executor(cfg);
  const RunResult r = world.run([p](Comm& c) {
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    c.send(next, 1, std::vector<std::byte>(64));
    const std::vector<std::byte> m = c.recv(prev, 1);
    EXPECT_EQ(m.size(), 64u);
  });
  EXPECT_EQ(r.stats.total_messages(), p);
  // Every rank's clock advanced identically: same send + same recv.
  EXPECT_EQ(r.stats.ranks[0].clock,
            r.stats.ranks[static_cast<std::size_t>(p) - 1].clock);
}

TEST(PooledExecutorTest, HonorsExplicitWorkerAndStackSizing) {
  World world(64, NetworkModel{});
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::kPooled;
  cfg.workers = 3;
  cfg.stack_bytes = 128 * 1024;
  world.set_executor(cfg);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() > 0) c.send(0, 7, std::vector<std::byte>(16));
    if (c.rank() == 0)
      for (int s = 1; s < 64; ++s) (void)c.recv(s, 7);
  });
  EXPECT_EQ(r.stats.total_messages(), 63);
}

TEST(ThreadedExecutorTest, RefusesAbsurdRankCounts) {
  // Oversubscription guard: the threaded path must fail fast with a
  // pointer at the pooled executor instead of exhausting the machine.
  World world(16, NetworkModel{});
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::kThreaded;
  cfg.max_threaded_ranks = 8;
  world.set_executor(cfg);
  try {
    world.run([](Comm&) {});
    FAIL() << "expected the rank-cap contract failure";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank cap"), std::string::npos) << what;
    EXPECT_NE(what.find("pooled"), std::string::npos) << what;
  }
}

TEST(ThreadedExecutorTest, DefaultCapAllowsThePaperOperatingPoint) {
  // P=32 (the paper's machine size) must keep working threaded without
  // any configuration — only absurd counts are refused by default.
  World world(32, NetworkModel{});
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::kThreaded;
  world.set_executor(cfg);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 1) c.send(0, 1, std::vector<std::byte>(8));
    if (c.rank() == 0) (void)c.recv(1, 1);
  });
  EXPECT_EQ(r.stats.total_messages(), 1);
}

}  // namespace
}  // namespace rtc::comm
