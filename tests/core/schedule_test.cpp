// Structural invariants of the schedule builders: the reconstructed
// rotate-tiling schedule, binary swap and direct send.
#include "rtc/core/schedule.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <tuple>

#include "rtc/common/check.hpp"

namespace rtc::core {
namespace {

int ceil_log2(int p) {
  int s = 0;
  while ((1 << s) < p) ++s;
  return s;
}

using Case = std::tuple<int /*ranks*/, int /*blocks*/>;

class ScheduleProperty : public ::testing::TestWithParam<Case> {};

TEST_P(ScheduleProperty, StepCountIsCeilLog2P) {
  const auto [p, b0] = GetParam();
  const Schedule s = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  EXPECT_EQ(static_cast<int>(s.steps.size()), ceil_log2(p));
}

/// Every builder at (p, b0): the RT variants whose applicability rule
/// holds, bswap_any (and bswap at powers of two), and direct send to
/// the front-most and the back-most rank.
std::vector<std::pair<std::string, Schedule>> every_builder(int p, int b0) {
  std::vector<std::pair<std::string, Schedule>> out;
  for (const char* m : {"rt", "rt_n", "rt_2n", "bswap", "bswap_any"}) {
    if (any_p_method(m, p) != m) continue;
    if (std::string(m) == "rt_2n" && b0 % 2 != 0) continue;
    out.emplace_back(m, build_schedule(m, p, b0, /*root=*/0));
  }
  out.emplace_back("direct@0", build_direct_schedule(p, 0));
  out.emplace_back("direct@last", build_direct_schedule(p, p - 1));
  return out;
}

/// Replays `s` on symbolic coverage intervals, splitting every tile
/// down to each step's depth: every merge must fuse depth-adjacent
/// intervals held by the claimed owners, on the correct side, and every
/// final block must end as one copy of [0, P-1] at its final owner.
void replay_coverage(const Schedule& s) {
  struct Interval {
    int owner, lo, hi;
  };
  std::vector<std::vector<Interval>> cov(
      static_cast<std::size_t>(s.initial_blocks));
  for (auto& c : cov)
    for (int r = 0; r < s.ranks; ++r) c.push_back({r, r, r});
  int depth = 0;
  const auto split_to = [&](int d) {
    for (; depth < d; ++depth) {
      std::vector<std::vector<Interval>> split;
      split.reserve(cov.size() * 2);
      for (auto& c : cov) {
        split.push_back(c);
        split.push_back(std::move(c));
      }
      cov = std::move(split);
    }
  };

  for (std::size_t step = 0; step < s.steps.size(); ++step) {
    const Step& st = s.steps[step];
    ASSERT_GE(st.depth, depth) << "step " << step << " un-splits blocks";
    split_to(st.depth);
    for (const Merge& m : st.merges) {
      ASSERT_GE(m.block, 0);
      ASSERT_LT(m.block, static_cast<std::int64_t>(cov.size()));
      auto& c = cov[static_cast<std::size_t>(m.block)];
      // Locate sender's and receiver's intervals.
      int si = -1, ri = -1;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c[i].owner == m.sender) si = static_cast<int>(i);
        if (c[i].owner == m.receiver) ri = static_cast<int>(i);
      }
      ASSERT_GE(si, 0) << "sender holds no copy";
      ASSERT_GE(ri, 0) << "receiver holds no copy";
      ASSERT_NE(si, ri);
      const Interval& a = c[static_cast<std::size_t>(si)];
      const Interval& b = c[static_cast<std::size_t>(ri)];
      // Depth adjacency: the intervals must touch.
      EXPECT_TRUE(a.hi + 1 == b.lo || b.hi + 1 == a.lo)
          << "non-adjacent merge at step " << step;
      EXPECT_EQ(m.sender_front, a.lo < b.lo);
      Interval merged{m.receiver, std::min(a.lo, b.lo),
                      std::max(a.hi, b.hi)};
      c.erase(c.begin() + std::max(si, ri));
      c.erase(c.begin() + std::min(si, ri));
      c.push_back(merged);
    }
  }
  ASSERT_GE(s.final_depth, depth);
  split_to(s.final_depth);

  ASSERT_EQ(cov.size(), s.final_owner.size());
  for (std::size_t b = 0; b < cov.size(); ++b) {
    ASSERT_EQ(cov[b].size(), 1u) << "block " << b << " did not converge";
    EXPECT_EQ(cov[b][0].lo, 0);
    EXPECT_EQ(cov[b][0].hi, s.ranks - 1);
    EXPECT_EQ(cov[b][0].owner, s.final_owner[b]);
  }
}

TEST_P(ScheduleProperty, EveryBuilderConvergesOrderCorrectly) {
  const auto [p, b0] = GetParam();
  for (const auto& [name, s] : every_builder(p, b0)) {
    SCOPED_TRACE(name);
    replay_coverage(s);
  }
}

TEST_P(ScheduleProperty, RtStepsAreTaggedAndSplitOncePerStep) {
  const auto [p, b0] = GetParam();
  const Schedule s = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    EXPECT_EQ(s.steps[k].tag, static_cast<int>(k) + 1);
    EXPECT_EQ(s.steps[k].depth, static_cast<int>(k));
  }
}

TEST_P(ScheduleProperty, BlockSizesHalveEachStep) {
  const auto [p, b0] = GetParam();
  for (const auto& [name, s] : every_builder(p, b0)) {
    SCOPED_TRACE(name);
    for (const Step& st : s.steps) {
      for (const Merge& m : st.merges) {
        EXPECT_GE(m.block, 0);
        EXPECT_LT(m.block, static_cast<std::int64_t>(s.initial_blocks)
                               << st.depth);
      }
    }
  }
}

TEST_P(ScheduleProperty, LoadIsBalanced) {
  const auto [p, b0] = GetParam();
  const Schedule s = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    const auto merges =
        static_cast<std::int64_t>(s.steps[k].merges.size());
    const std::int64_t ideal = (merges + p - 1) / p;  // ceil
    // Even P pairs perfectly every step: within one message of ideal.
    // Odd P (the 2N_RT regime) carries idle copies across steps whose
    // forced late pairings concentrate load; measured worst case over
    // a wide sweep stays within ~1.5x ideal plus a constant.
    const std::int64_t slack = (p % 2 == 0) ? 1 : ideal / 2 + 2;
    for (int r = 0; r < p; ++r) {
      EXPECT_LE(s.sends_in_step(r, static_cast<int>(k)), ideal + slack);
      EXPECT_LE(s.recvs_in_step(r, static_cast<int>(k)), ideal + slack);
    }
  }
}

TEST_P(ScheduleProperty, FinalBlocksSpreadOverRanks) {
  const auto [p, b0] = GetParam();
  const Schedule s = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  const auto blocks = static_cast<std::int64_t>(s.final_owner.size());
  std::map<int, std::int64_t> per_rank;
  for (const int owner : s.final_owner) ++per_rank[owner];
  // Rotation spreads ownership: within one block of ideal for even P,
  // within ~1.5x ideal for odd P (idle-copy concentration).
  const std::int64_t ideal = (blocks + p - 1) / p;
  const std::int64_t slack = (p % 2 == 0) ? 1 : ideal / 2 + 2;
  for (const auto& [rank, n] : per_rank) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, p);
    EXPECT_LE(n, ideal + slack);
  }
}

TEST_P(ScheduleProperty, DeterministicAcrossCalls) {
  const auto [p, b0] = GetParam();
  const Schedule a = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  const Schedule b = build_rt_schedule(p, b0, RtVariant::kGeneralized);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t k = 0; k < a.steps.size(); ++k) {
    ASSERT_EQ(a.steps[k].merges.size(), b.steps[k].merges.size());
    for (std::size_t i = 0; i < a.steps[k].merges.size(); ++i) {
      EXPECT_EQ(a.steps[k].merges[i].block, b.steps[k].merges[i].block);
      EXPECT_EQ(a.steps[k].merges[i].sender, b.steps[k].merges[i].sender);
      EXPECT_EQ(a.steps[k].merges[i].receiver,
                b.steps[k].merges[i].receiver);
    }
  }
  EXPECT_EQ(a.final_owner, b.final_owner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13,
                                         16, 17, 31, 32, 33, 48),
                       ::testing::Values(1, 2, 3, 4, 6, 8)));

TEST(Schedule, VariantValidation) {
  EXPECT_THROW(build_rt_schedule(3, 2, RtVariant::kNrt), ContractError);
  EXPECT_NO_THROW(build_rt_schedule(4, 3, RtVariant::kNrt));
  EXPECT_THROW(build_rt_schedule(4, 3, RtVariant::kTwoNrt), ContractError);
  EXPECT_NO_THROW(build_rt_schedule(3, 4, RtVariant::kTwoNrt));
  EXPECT_NO_THROW(build_rt_schedule(3, 3, RtVariant::kGeneralized));
  EXPECT_THROW(build_rt_schedule(0, 1, RtVariant::kGeneralized),
               ContractError);
  EXPECT_THROW(build_rt_schedule(2, 0, RtVariant::kGeneralized),
               ContractError);
}

TEST(Schedule, SingleRankHasNoSteps) {
  const Schedule s = build_rt_schedule(1, 4, RtVariant::kGeneralized);
  EXPECT_TRUE(s.steps.empty());
  EXPECT_EQ(s.final_owner, std::vector<int>(4, 0));
  EXPECT_EQ(s.owned_blocks(0).size(), 4u);
}

TEST(Schedule, Figure1ShapePThreeBlocksFour) {
  // The paper's Figure 1 configuration: P=3, four initial blocks.
  // Two steps; step 1 has one merge per block (4 total, one copy of
  // each tile idles); step 2 completes all 8 half-blocks.
  const Schedule s = build_rt_schedule(3, 4, RtVariant::kTwoNrt);
  ASSERT_EQ(s.steps.size(), 2u);
  EXPECT_EQ(s.steps[0].merges.size(), 4u);
  EXPECT_EQ(s.steps[1].merges.size(), 8u);
  EXPECT_EQ(s.final_owner.size(), 8u);
  // Final image spread: every rank owns 2 or 3 of the 8 blocks, as in
  // the worked example (3/2/3).
  std::array<int, 3> owned{};
  for (const int o : s.final_owner) ++owned[static_cast<std::size_t>(o)];
  for (const int n : owned) {
    EXPECT_GE(n, 2);
    EXPECT_LE(n, 3);
  }
}

TEST(Schedule, Figure2ShapePFourBlocksThree) {
  // Figure 2: P=4, three initial blocks (N_RT). Two steps; every tile
  // pairs perfectly (even P), so step 1 merges 2 pairs per tile.
  const Schedule s = build_rt_schedule(4, 3, RtVariant::kNrt);
  ASSERT_EQ(s.steps.size(), 2u);
  EXPECT_EQ(s.steps[0].merges.size(), 6u);   // 3 tiles * 2 pairs
  EXPECT_EQ(s.steps[1].merges.size(), 6u);   // 6 half-tiles * 1 pair
  EXPECT_EQ(s.final_owner.size(), 6u);
}

TEST(Schedule, NamesOfVariants) {
  EXPECT_EQ(to_string(RtVariant::kNrt), "N_RT");
  EXPECT_EQ(to_string(RtVariant::kTwoNrt), "2N_RT");
  EXPECT_EQ(to_string(RtVariant::kGeneralized), "RT");
}

TEST(Schedule, BinarySwapExchangesHalvesOncePerStep) {
  // P=8: three steps, tag k at depth k; every rank sends and receives
  // exactly one block per step, and owns one eighth at the end.
  const Schedule s = build_schedule("bswap", 8, /*initial_blocks=*/5, 0);
  EXPECT_EQ(s.initial_blocks, 1);
  ASSERT_EQ(s.steps.size(), 3u);
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    EXPECT_EQ(s.steps[k].tag, static_cast<int>(k) + 1);
    EXPECT_EQ(s.steps[k].depth, static_cast<int>(k) + 1);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(s.sends_in_step(r, static_cast<int>(k)), 1);
      EXPECT_EQ(s.recvs_in_step(r, static_cast<int>(k)), 1);
    }
  }
  EXPECT_EQ(s.final_depth, 3);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(s.owned_blocks(r).size(), 1u);
}

TEST(Schedule, BinarySwapFoldsTheRanksPastAPowerOfTwo) {
  // P=6 = 4 + 2: a whole-image fold step (tag 0) merges ranks 1 -> 0
  // and 3 -> 2; then four units swap over two steps and the folded-away
  // ranks 1 and 3 own nothing.
  const Schedule s = build_bswap_schedule(6);
  ASSERT_EQ(s.steps.size(), 3u);
  const Step& fold = s.steps[0];
  EXPECT_EQ(fold.tag, 0);
  EXPECT_EQ(fold.depth, 0);
  ASSERT_EQ(fold.merges.size(), 2u);
  EXPECT_EQ(fold.merges[0].sender, 1);
  EXPECT_EQ(fold.merges[0].receiver, 0);
  EXPECT_EQ(fold.merges[1].sender, 3);
  EXPECT_EQ(fold.merges[1].receiver, 2);
  EXPECT_EQ(s.steps[1].tag, 1);
  EXPECT_EQ(s.steps[2].tag, 2);
  EXPECT_EQ(s.final_depth, 2);
  EXPECT_TRUE(s.owned_blocks(1).empty());
  EXPECT_TRUE(s.owned_blocks(3).empty());
  // Without ranks past a power of two there is no fold: bswap_any is
  // bswap.
  EXPECT_EQ(build_bswap_schedule(8).steps.front().tag, 1);
}

TEST(Schedule, DirectSendFoldsOutwardFromTheRoot) {
  const Schedule s = build_direct_schedule(5, 2);
  EXPECT_TRUE(s.ends_at_root);
  EXPECT_EQ(s.final_owner, std::vector<int>{2});
  ASSERT_EQ(s.steps.size(), 1u);
  EXPECT_EQ(s.steps[0].tag, 1);
  std::vector<int> senders;
  for (const Merge& m : s.steps[0].merges) {
    EXPECT_EQ(m.receiver, 2);
    EXPECT_EQ(m.sender_front, m.sender < 2);
    senders.push_back(m.sender);
  }
  EXPECT_EQ(senders, (std::vector<int>{3, 4, 1, 0}));
  EXPECT_TRUE(build_direct_schedule(1, 0).steps.empty());
}

TEST(Schedule, DispatchAppliesEachApplicabilityRule) {
  EXPECT_THROW((void)build_schedule("bswap", 6, 1, 0), ContractError);
  EXPECT_NO_THROW((void)build_schedule("bswap_any", 6, 1, 0));
  EXPECT_THROW((void)build_schedule("rt_n", 5, 3, 0), ContractError);
  EXPECT_THROW((void)build_schedule("rt_2n", 5, 3, 0), ContractError);
  EXPECT_THROW((void)build_schedule("pp", 4, 1, 0), ContractError);
  EXPECT_TRUE(is_schedule_method("direct"));
  EXPECT_FALSE(is_schedule_method("radix"));
}

TEST(Schedule, AnyPMethodFallsBackOnlyWhereTheRuleBreaks) {
  EXPECT_EQ(any_p_method("bswap", 6), "bswap_any");
  EXPECT_EQ(any_p_method("bswap", 8), "bswap");
  EXPECT_EQ(any_p_method("rt_n", 7), "rt");
  EXPECT_EQ(any_p_method("rt_n", 1), "rt_n");
  EXPECT_EQ(any_p_method("rt_n", 6), "rt_n");
  EXPECT_EQ(any_p_method("rt_2n", 7), "rt_2n");
  EXPECT_EQ(any_p_method("pp", 7), "pp");
}

TEST(ScheduleBuilder, ContractErrorsNameTheSourceBelowSrc) {
  // The message names the file from src/ down, so it reads the same in
  // every checkout of a commit.
  std::string what;
  try {
    (void)build_schedule("rt_n", 5, 1, 0);
  } catch (const ContractError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find(" at rtc/core/schedule.cpp:"), std::string::npos)
      << what;
  EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  EXPECT_STREQ(detail::source_path("/x/src/y/src/rtc/a.cpp"), "rtc/a.cpp");
  EXPECT_STREQ(detail::source_path("src/rtc/a.cpp"), "rtc/a.cpp");
  EXPECT_STREQ(detail::source_path("/x/mysrc/b.cpp"), "b.cpp");
  EXPECT_STREQ(detail::source_path("c.cpp"), "c.cpp");
}

}  // namespace
}  // namespace rtc::core
