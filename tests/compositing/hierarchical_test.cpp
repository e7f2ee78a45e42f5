// Two-level ("hier") composition: intra-group compositing followed by
// a cross-leader pass must be pixel-exact against the sequential
// reference for any P / group-size split — contiguous groups preserve
// the depth order "over" needs. Plus the topology-aware network
// models the large-P runs charge: hop counts, deterministic jitter,
// and the bit-identical flat default.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "rtc/comm/network_model.hpp"
#include "rtc/core/hierarchical.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::compositing {
namespace {

std::vector<img::Image> make_partials(int ranks, int w = 31, int h = 17) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        w, h, 9000u + static_cast<std::uint32_t>(r), 0.35,
        /*binary_alpha=*/true));
  return out;
}

harness::CompositionRun run_hier(const std::vector<img::Image>& partials,
                                 int group_size,
                                 const std::string& intra = "rt",
                                 const std::string& inter = "bswap_any",
                                 comm::ExecutorConfig executor = {}) {
  harness::CompositionConfig cfg;
  cfg.executor = executor;
  cfg.method = "hier";
  cfg.initial_blocks = 2;
  cfg.gather = true;
  cfg.group_size = group_size;
  cfg.hier_intra = intra;
  cfg.hier_inter = inter;
  return harness::run_composition(cfg, partials);
}

TEST(HierDefaults, GroupSizeIsCeilSqrt) {
  EXPECT_EQ(core::default_group_size(1), 1);
  EXPECT_EQ(core::default_group_size(4), 2);
  EXPECT_EQ(core::default_group_size(5), 3);
  EXPECT_EQ(core::default_group_size(32), 6);
  EXPECT_EQ(core::default_group_size(1024), 32);
  EXPECT_EQ(core::default_group_size(4096), 64);
}

using Case = std::tuple<int /*ranks*/, int /*group_size*/>;

class HierEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(HierEquivalence, BinaryAlphaExactlyMatchesReference) {
  const auto [ranks, group] = GetParam();
  const auto partials = make_partials(ranks);
  const img::Image ref = img::composite_reference(partials);
  const harness::CompositionRun run = run_hier(partials, group);
  ASSERT_EQ(run.image.width(), ref.width());
  EXPECT_EQ(img::max_channel_diff(run.image, ref), 0)
      << "P=" << ranks << " group=" << group;
}

INSTANTIATE_TEST_SUITE_P(
    Splits, HierEquivalence,
    ::testing::Values(Case{8, 4}, Case{8, 3}, Case{8, 0}, Case{32, 8},
                      Case{32, 5}, Case{32, 0}, Case{33, 8}, Case{33, 0},
                      Case{48, 7}, Case{5, 2},
                      // degenerate splits: one group / groups of one
                      Case{9, 9}, Case{9, 1}, Case{9, 64}, Case{1, 1}));

TEST(Hierarchical, IntraAndInterMethodsAreSwappable) {
  const auto partials = make_partials(24);
  const img::Image ref = img::composite_reference(partials);
  for (const auto& [intra, inter] :
       std::vector<std::pair<std::string, std::string>>{
           {"direct", "direct"},
           {"bswap_any", "rt_2n"},
           {"rt_2n", "pp_exact"}}) {
    const harness::CompositionRun run = run_hier(partials, 6, intra, inter);
    EXPECT_EQ(img::max_channel_diff(run.image, ref), 0)
        << intra << " / " << inter;
  }
}

TEST(Hierarchical, RejectsRecursiveHier) {
  const auto partials = make_partials(8);
  EXPECT_THROW((void)run_hier(partials, 4, "hier", "bswap_any"),
               std::logic_error);
  EXPECT_THROW((void)run_hier(partials, 4, "rt", "hier"),
               std::logic_error);
}

TEST(Hierarchical, RejectsRecomposePolicy) {
  // The recovery driver re-runs compositors over survivor group views;
  // hier installs its own group views, and the two can't nest yet.
  const auto partials = make_partials(8);
  harness::CompositionConfig cfg;
  cfg.method = "hier";
  cfg.gather = true;
  cfg.resilience.on_peer_loss =
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  EXPECT_THROW((void)harness::run_composition(cfg, partials),
               std::logic_error);
}

TEST(Hierarchical, ThousandRankSmokeIsExactAndDeterministic) {
  // The headline scaling configuration: P=1024 in groups of 32, tiny
  // frames so the reference composite stays cheap. Exactness and
  // run-to-run bit-identical virtual time both must hold.
  const int p = 1024;
  std::vector<img::Image> partials;
  for (int r = 0; r < p; ++r)
    partials.push_back(test::random_image(
        16, 8, 100u + static_cast<std::uint32_t>(r), 0.5,
        /*binary_alpha=*/true));
  const img::Image ref = img::composite_reference(partials);
  // Pooled explicitly: P=1024 is past the threaded executor's rank cap,
  // and the TSan gate runs under RTC_EXECUTOR=threaded.
  comm::ExecutorConfig pooled;
  pooled.kind = comm::ExecutorKind::kPooled;
  const harness::CompositionRun a =
      run_hier(partials, 32, "rt", "bswap_any", pooled);
  const harness::CompositionRun b =
      run_hier(partials, 32, "rt", "bswap_any", pooled);
  EXPECT_EQ(img::max_channel_diff(a.image, ref), 0);
  EXPECT_EQ(a.time, b.time);
  EXPECT_TRUE(a.image == b.image);
}

// ---- topology-aware network models ------------------------------

TEST(TopologyModels, HopCountsFollowTheWiring) {
  comm::NetworkModel ft = comm::fat_tree_model();
  // radix 32: 16 hosts per edge switch, 256 per pod; same switch = 2
  // hops, same pod = 4, cross-pod = 6.
  EXPECT_EQ(ft.hops(0, 1), 2);
  EXPECT_EQ(ft.hops(0, 17), 4);
  EXPECT_EQ(ft.hops(0, 256), 6);
  EXPECT_EQ(ft.hops(0, 0), 0);

  comm::NetworkModel df = comm::dragonfly_model();
  // radix 64: 16 hosts per router, 1024-rank groups; same router = 1
  // hop, same group = 2, global (minimal route) = 3.
  EXPECT_EQ(df.hops(0, 1), 1);
  EXPECT_EQ(df.hops(0, 17), 2);
  EXPECT_EQ(df.hops(0, 2000), 3);

  const comm::NetworkModel flat = comm::sp2_hps_model();
  EXPECT_EQ(flat.hops(0, 1), 1);
  EXPECT_EQ(flat.hops(3, 900), 1);
}

TEST(TopologyModels, FlatDefaultChargesNothingExtra) {
  // The paper-calibrated default must stay bit-identical to the
  // pre-topology build: zero added latency, zero jitter.
  const comm::NetworkModel flat = comm::sp2_hps_model();
  EXPECT_EQ(flat.topology_latency(0, 31), 0.0);
  EXPECT_EQ(flat.jitter(0, 31, 1, 1), 0.0);
}

TEST(TopologyModels, LatencyScalesWithHops) {
  const comm::NetworkModel ft = comm::fat_tree_model();
  EXPECT_GT(ft.hop_latency, 0.0);
  EXPECT_DOUBLE_EQ(ft.topology_latency(0, 1), 2 * ft.hop_latency);
  EXPECT_DOUBLE_EQ(ft.topology_latency(0, 256), 6 * ft.hop_latency);
  EXPECT_EQ(ft.topology_latency(5, 5), 0.0);
}

TEST(TopologyModels, JitterIsDeterministicAndSeeded) {
  const comm::NetworkModel cloud = comm::cloud_model();
  const double j1 = cloud.jitter(3, 7, 2, 11);
  EXPECT_EQ(cloud.jitter(3, 7, 2, 11), j1);  // same key, same draw
  EXPECT_GE(j1, 0.0);
  // Different (src,dst,tag,seq) keys draw independently; at least one
  // of a handful must differ from j1.
  bool differs = false;
  for (int s = 0; s < 8 && !differs; ++s)
    differs = cloud.jitter(3, 7, 2, static_cast<std::uint32_t>(s)) != j1;
  EXPECT_TRUE(differs);

  comm::NetworkModel reseeded = cloud;
  reseeded.jitter_seed ^= 0xabcdefULL;
  EXPECT_NE(reseeded.jitter(3, 7, 2, 11), j1);
}

TEST(TopologyModels, PresetLookupCoversEveryName) {
  comm::NetworkModel m;
  for (const char* name :
       {"flat", "sp2", "paper", "fat-tree", "fattree", "dragonfly",
        "cloud"})
    EXPECT_TRUE(comm::topology_preset(name, &m)) << name;
  EXPECT_FALSE(comm::topology_preset("torus", &m));
  EXPECT_FALSE(comm::topology_preset("", &m));
}

TEST(TopologyModels, NonFlatTopologySlowsCompositionDeterministically) {
  // A latency-bearing topology must (a) strictly increase virtual
  // time over flat and (b) stay deterministic run to run — the whole
  // point of modeling jitter with seeded draws.
  const auto partials = make_partials(16);
  harness::CompositionConfig flat_cfg;
  flat_cfg.method = "bswap";
  flat_cfg.gather = true;
  harness::CompositionConfig cloud_cfg = flat_cfg;
  cloud_cfg.net = comm::cloud_model();
  const double t_flat =
      harness::run_composition(flat_cfg, partials).time;
  const double t_cloud1 =
      harness::run_composition(cloud_cfg, partials).time;
  const double t_cloud2 =
      harness::run_composition(cloud_cfg, partials).time;
  EXPECT_GT(t_cloud1, 0.0);
  EXPECT_EQ(t_cloud1, t_cloud2);
  // cloud has different base constants too, so only assert it moved.
  EXPECT_NE(t_cloud1, t_flat);

  harness::CompositionConfig ft_cfg = flat_cfg;
  ft_cfg.net = comm::sp2_hps_model();
  ft_cfg.net.topology = comm::Topology::kFatTree;
  ft_cfg.net.hop_latency = 1.0e-5;
  const double t_ft = harness::run_composition(ft_cfg, partials).time;
  EXPECT_GT(t_ft, t_flat);  // same constants + per-hop latency
}

}  // namespace
}  // namespace rtc::compositing
