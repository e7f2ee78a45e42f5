// Experiment driver behavior and the end-to-end pipeline invariants
// the figure benches rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>

#include "rtc/common/check.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::harness {
namespace {

TEST(Experiment, VirtualTimeIsDeterministic) {
  std::vector<img::Image> partials;
  for (int r = 0; r < 8; ++r)
    partials.push_back(
        test::random_image(64, 64, 5u + static_cast<std::uint32_t>(r), 0.4));
  CompositionConfig cfg;
  cfg.method = "rt_2n";
  cfg.initial_blocks = 4;
  const double t0 = run_composition(cfg, partials).time;
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(run_composition(cfg, partials).time, t0);
}

TEST(Experiment, CodecReducesBytesOnSparseImages) {
  std::vector<img::Image> partials;
  for (int r = 0; r < 4; ++r)
    partials.push_back(test::banded_image(64, 64, static_cast<std::uint32_t>(r)));
  CompositionConfig raw_cfg;
  raw_cfg.method = "bswap";
  // On a transmission-bound network (the paper's example constants),
  // compression buys time as well as bytes.
  raw_cfg.net = comm::paper_example_model();
  CompositionConfig trle_cfg = raw_cfg;
  trle_cfg.codec = "trle";
  const auto raw = run_composition(raw_cfg, partials);
  const auto trle = run_composition(trle_cfg, partials);
  EXPECT_LT(trle.stats.total_bytes_sent(), raw.stats.total_bytes_sent());
  EXPECT_LT(trle.time, raw.time);
}

TEST(Experiment, GatherReturnsAssembledImageOnlyWhenAsked) {
  std::vector<img::Image> partials;
  for (int r = 0; r < 4; ++r)
    partials.push_back(
        test::random_image(32, 32, 50u + static_cast<std::uint32_t>(r), 0.3,
                           /*binary_alpha=*/true));
  CompositionConfig cfg;
  cfg.method = "rt_n";
  cfg.initial_blocks = 2;
  EXPECT_EQ(run_composition(cfg, partials).image.pixel_count(), 0);
  cfg.gather = true;
  const img::Image got = run_composition(cfg, partials).image;
  EXPECT_EQ(img::max_channel_diff(got, img::composite_reference(partials)),
            0);
}

TEST(Scene, RendersDepthOrderedPartialsThatComposite) {
  const Scene scene = make_scene("engine", 32, 64);
  const auto partials =
      render_partials(scene, 4, PartitionKind::kSlab1D);
  ASSERT_EQ(partials.size(), 4u);
  const img::Image ref = img::composite_reference(partials);
  EXPECT_GT(img::count_non_blank(ref.pixels()), 200);
  // Partial images must have substantial blank area (the compression
  // premise of Section 3).
  for (const auto& p : partials) {
    const double blank =
        1.0 - static_cast<double>(img::count_non_blank(p.pixels())) /
                  static_cast<double>(p.pixel_count());
    EXPECT_GT(blank, 0.4);
  }
}

TEST(Scene, Grid2DPartialsAreNearlyScreenDisjoint) {
  const Scene scene = make_scene("head", 32, 64);
  const auto partials = render_partials(scene, 4, PartitionKind::kGrid2D);
  // Sum of non-blank pixel counts should not wildly exceed the union:
  // 2-D partitions overlap only at brick-boundary interpolation seams
  // (wide at this tiny test resolution, negligible at 512^2).
  std::int64_t total = 0;
  for (const auto& p : partials) total += img::count_non_blank(p.pixels());
  const img::Image merged = img::composite_reference(partials);
  const std::int64_t unioned = img::count_non_blank(merged.pixels());
  EXPECT_LT(total, 2 * unioned);
}

TEST(Scene, AllMethodsAgreeOnTheRenderedScene) {
  const Scene scene = make_scene("brain", 32, 64);
  const auto partials = render_partials(scene, 8, PartitionKind::kSlab1D);
  CompositionConfig cfg;
  cfg.gather = true;
  cfg.method = "bswap";
  const img::Image bs = run_composition(cfg, partials).image;
  for (const char* m : {"pp_exact", "direct", "rt_n", "rt_2n"}) {
    cfg.method = m;
    cfg.initial_blocks = 2;
    const img::Image got = run_composition(cfg, partials).image;
    EXPECT_LE(img::max_channel_diff(got, bs), 8) << m;
  }
}

/// One FNV-1a step.
std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

TEST(RenderScene, PartialBytesArePinned) {
  // Every partial render_scene produced for each (renderer, mode),
  // folded into one FNV-1a hash: two datasets, views whose principal
  // axis is z, x and y, slab, grid and balanced bricks at P = 3 and 4.
  // The constants were recorded from explicit per-brick render_shearwarp
  // / render_raycast / render_splat calls over the same bricks in
  // visibility order, so they pin both the dispatch by name and the
  // renderers' bytes.
  struct Pin {
    const char* renderer;
    render::RenderMode mode;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"shearwarp", render::RenderMode::kComposite, 0x481d91271f99cc5aull},
      {"shearwarp", render::RenderMode::kMip, 0x531282f28533d69bull},
      {"raycast", render::RenderMode::kComposite, 0x6f3fd198c1851cfcull},
      {"raycast", render::RenderMode::kMip, 0x7214f4a7a48318a2ull},
      {"splat", render::RenderMode::kComposite, 0x3e61c41ece255a55ull},
      {"splat", render::RenderMode::kMip, 0xe4f7c5de4f808abdull},
  };
  const std::pair<double, double> views[] = {
      {30.0, 20.0}, {120.0, -35.0}, {250.0, 60.0}};
  for (const Pin& pin : pins) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    for (const char* dataset : {"engine", "head"}) {
      for (const auto& [yaw, pitch] : views) {
        const Scene scene = make_scene(dataset, 20, 40, yaw, pitch);
        for (const PartitionKind kind :
             {PartitionKind::kSlab1D, PartitionKind::kGrid2D,
              PartitionKind::kBalanced1D}) {
          for (const int ranks : {3, 4}) {
            const RenderedScene rs =
                render_scene(scene, ranks, kind, pin.renderer, pin.mode);
            ASSERT_EQ(rs.partials.size(), static_cast<std::size_t>(ranks));
            for (const img::Image& im : rs.partials)
              for (const img::GrayA8 p : im.pixels())
                h = fnv1a(fnv1a(h, p.v), p.a);
          }
        }
      }
    }
    EXPECT_EQ(h, pin.hash) << pin.renderer << " mode "
                           << static_cast<int>(pin.mode) << ": 0x"
                           << std::hex << h;
  }
}

TEST(RenderScene, UnknownRendererIsAContractError) {
  const Scene scene = make_scene("engine", 16, 16);
  EXPECT_THROW(static_cast<void>(
                   render_scene(scene, 2, PartitionKind::kSlab1D, "bogus")),
               ContractError);
}

TEST(Table, AlignsAndFormats) {
  Table t({"method", "time"});
  t.add_row({"bswap", Table::num(1.25, 2)});
  t.add_row({"rt_n", Table::num(0.5, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("method"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("0.50"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), ContractError);
}

}  // namespace
}  // namespace rtc::harness
