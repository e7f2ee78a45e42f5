// The dry-run predictor must reproduce the simulator's virtual time
// exactly for uncompressed runs — this pins the two implementations of
// the timing semantics to each other, for every schedule-built method
// and every network preset (topology latency and cloud jitter included).
#include "rtc/core/predictor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "rtc/harness/experiment.hpp"
#include "testutil.hpp"

namespace rtc::core {
namespace {

using Case = std::tuple<std::string /*method*/, std::string /*preset*/>;

class PredictorMatchesSimulator : public ::testing::TestWithParam<Case> {};

TEST_P(PredictorMatchesSimulator, EveryRankBitForBit) {
  const auto& [method, preset] = GetParam();
  comm::NetworkModel net;
  ASSERT_TRUE(comm::topology_preset(preset.c_str(), &net));
  const int w = 24, h = 16;
  // Binary swap and direct send always start from one block.
  const bool blocked = method.rfind("rt", 0) == 0;

  for (const int p : {1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 33, 64}) {
    if (any_p_method(method, p) != method) continue;
    std::vector<img::Image> partials;
    for (int r = 0; r < p; ++r)
      partials.push_back(test::random_image(
          w, h, 300u + static_cast<std::uint32_t>(r), 0.3));
    for (const int n : {1, 2, 3, 4}) {
      if (n > 1 && !blocked) break;
      if (method == "rt_2n" && n % 2 != 0) continue;
      SCOPED_TRACE("P=" + std::to_string(p) + " N=" + std::to_string(n));
      harness::CompositionConfig cfg;
      cfg.method = method;
      cfg.initial_blocks = n;
      cfg.net = net;
      cfg.gather = false;
      const harness::CompositionRun run =
          harness::run_composition(cfg, partials);
      const Prediction pred = predict_time(
          build_schedule(method, p, n, /*root=*/0),
          static_cast<std::int64_t>(w) * h, 2, net);

      EXPECT_EQ(pred.makespan, run.time);
      EXPECT_EQ(pred.total_bytes, run.stats.total_bytes_sent());
      EXPECT_EQ(pred.total_messages, run.stats.total_messages());
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(pred.rank_clock[static_cast<std::size_t>(r)],
                  run.stats.ranks[static_cast<std::size_t>(r)].clock)
            << "rank " << r;
    }
  }
}

// "flat" is the sp2 preset.
INSTANTIATE_TEST_SUITE_P(
    Sweep, PredictorMatchesSimulator,
    ::testing::Combine(::testing::Values("rt", "rt_n", "rt_2n", "bswap",
                                         "bswap_any", "direct"),
                       ::testing::Values("sp2", "paper", "fat-tree",
                                         "dragonfly", "cloud")));

TEST(Predictor, StepsAreMonotoneInTime) {
  const Schedule sched = build_rt_schedule(16, 4, RtVariant::kGeneralized);
  const Prediction pred =
      predict_time(sched, 512 * 512, 2, comm::sp2_hps_model());
  ASSERT_EQ(pred.steps.size(), sched.steps.size());
  double prev = 0.0;
  for (const StepPrediction& sp : pred.steps) {
    EXPECT_GT(sp.end_time, prev);
    prev = sp.end_time;
    EXPECT_GE(sp.max_rank_sends, 1);
    EXPECT_GT(sp.max_rank_bytes, 0);
  }
  EXPECT_DOUBLE_EQ(pred.makespan, pred.steps.back().end_time);
}

TEST(Predictor, ScalesWithNetworkConstants) {
  const Schedule sched = build_rt_schedule(8, 2, RtVariant::kGeneralized);
  comm::NetworkModel base = comm::sp2_hps_model();
  comm::NetworkModel slow = base;
  slow.tp_byte *= 10.0;
  const double t0 = predict_time(sched, 512 * 512, 2, base).makespan;
  const double t1 = predict_time(sched, 512 * 512, 2, slow).makespan;
  EXPECT_GT(t1, t0);
  comm::NetworkModel chatty = base;
  chatty.ts *= 10.0;
  EXPECT_GT(predict_time(sched, 512 * 512, 2, chatty).makespan, t0);
  comm::NetworkModel far = base;
  far.hop_latency = 1e-3;
  EXPECT_GT(predict_time(sched, 512 * 512, 2, far).makespan, t0);
}

TEST(Predictor, SingleRankIsFree) {
  const Schedule sched = build_rt_schedule(1, 4, RtVariant::kGeneralized);
  EXPECT_DOUBLE_EQ(
      predict_time(sched, 1000, 2, comm::sp2_hps_model()).makespan, 0.0);
}

}  // namespace
}  // namespace rtc::core
