// Method-equivalence properties: every compositor must produce the
// sequential front-to-back reference image.
//
// Binary-alpha inputs make integer "over" exactly associative, so any
// schedule/order bug shows up as an exact pixel mismatch; translucent
// inputs check the blending within a small rounding tolerance that
// grows with merge depth.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "rtc/frames/coherence.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::compositing {
namespace {

std::vector<img::Image> make_partials(int ranks, int w, int h,
                                      double blank_ratio, bool binary) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        w, h, 1000u + static_cast<std::uint32_t>(r), blank_ratio, binary));
  return out;
}

img::Image run_gathered(const std::string& method, int blocks,
                        const std::string& codec,
                        const std::vector<img::Image>& partials) {
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.codec = codec;
  cfg.gather = true;
  return harness::run_composition(cfg, partials).image;
}

using Case = std::tuple<std::string /*method*/, int /*ranks*/,
                        int /*blocks*/, std::string /*codec*/>;

class MethodEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(MethodEquivalence, BinaryAlphaExactlyMatchesReference) {
  const auto [method, ranks, blocks, codec] = GetParam();
  const auto partials = make_partials(ranks, 37, 23, 0.35, /*binary=*/true);
  const img::Image ref = img::composite_reference(partials);
  const img::Image got = run_gathered(method, blocks, codec, partials);
  ASSERT_EQ(got.width(), ref.width());
  EXPECT_EQ(img::max_channel_diff(got, ref), 0)
      << method << " P=" << ranks << " N=" << blocks;
}

TEST_P(MethodEquivalence, TranslucentWithinRoundingTolerance) {
  const auto [method, ranks, blocks, codec] = GetParam();
  const auto partials = make_partials(ranks, 37, 23, 0.2, /*binary=*/false);
  const img::Image ref = img::composite_reference(partials);
  const img::Image got = run_gathered(method, blocks, codec, partials);
  // Rounding error accumulates with merge-tree depth; 2 LSB per level.
  int depth = 0;
  while ((1 << depth) < ranks) ++depth;
  EXPECT_LE(img::max_channel_diff(got, ref), 2 * (depth + 1))
      << method << " P=" << ranks << " N=" << blocks;
}

INSTANTIATE_TEST_SUITE_P(
    BinarySwap, MethodEquivalence,
    ::testing::Combine(::testing::Values("bswap"),
                       ::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(1),
                       ::testing::Values("", "trle")));

INSTANTIATE_TEST_SUITE_P(
    BinarySwapAnyP, MethodEquivalence,
    ::testing::Combine(::testing::Values("bswap_any"),
                       ::testing::Values(1, 2, 3, 5, 6, 7, 11, 12, 16,
                                         24, 31, 32, 33),
                       ::testing::Values(1),
                       ::testing::Values("", "trle")));

INSTANTIATE_TEST_SUITE_P(
    PipelinedExact, MethodEquivalence,
    ::testing::Combine(::testing::Values("pp_exact"),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 16),
                       ::testing::Values(1),
                       ::testing::Values("", "trle")));

INSTANTIATE_TEST_SUITE_P(
    DirectSend, MethodEquivalence,
    ::testing::Combine(::testing::Values("direct"),
                       ::testing::Values(1, 2, 3, 5), ::testing::Values(1),
                       ::testing::Values("", "rle", "bbox")));

INSTANTIATE_TEST_SUITE_P(
    RotateTilingEvenP, MethodEquivalence,
    ::testing::Combine(::testing::Values("rt_n"),
                       ::testing::Values(2, 4, 6, 8, 12, 32),
                       ::testing::Values(1, 2, 3, 5),
                       ::testing::Values("", "trle")));

INSTANTIATE_TEST_SUITE_P(
    RotateTilingAnyP, MethodEquivalence,
    ::testing::Combine(::testing::Values("rt_2n"),
                       ::testing::Values(1, 2, 3, 5, 6, 7, 9, 13, 32),
                       ::testing::Values(2, 4, 6),
                       ::testing::Values("", "trle")));

INSTANTIATE_TEST_SUITE_P(
    RotateTilingGeneralized, MethodEquivalence,
    ::testing::Combine(::testing::Values("rt"),
                       ::testing::Values(3, 5, 7, 11),
                       ::testing::Values(1, 3),
                       ::testing::Values("")));

TEST(PipelinedLoose, ExactForScreenDisjointPartials) {
  // Each rank non-blank on its own pixel stripe (a 2-D partition view):
  // composition order is immaterial, so the paper's loose PP is exact.
  const int p = 6, w = 36, h = 12;
  std::vector<img::Image> partials;
  for (int r = 0; r < p; ++r) {
    img::Image im(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = r * (w / p); x < (r + 1) * (w / p); ++x)
        im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(50 + 30 * r),
                                  255};
    partials.push_back(std::move(im));
  }
  const img::Image ref = img::composite_reference(partials);
  const img::Image got = run_gathered("pp", 1, "", partials);
  EXPECT_EQ(img::max_channel_diff(got, ref), 0);
}

TEST(PipelinedLoose, DocumentedSeamDefectOnTranslucentOverlap) {
  // Characterization of the published algorithm's limitation (see
  // pipelined.cpp): with translucent overlapping partials, the ring's
  // wrap seam fuses non-adjacent depth intervals, so the result is NOT
  // the reference composite. pp_exact fixes this (tested above).
  const auto partials = make_partials(5, 24, 8, 0.0, /*binary=*/false);
  const img::Image ref = img::composite_reference(partials);
  const img::Image got = run_gathered("pp", 1, "", partials);
  EXPECT_GT(img::max_channel_diff(got, ref), 2);
}

TEST(Methods, RootAssemblyPlacesEveryPixel) {
  // No pixel of the gathered image may remain default-initialized when
  // inputs are fully opaque.
  const auto partials = make_partials(7, 33, 9, 0.0, /*binary=*/true);
  const img::Image got = run_gathered("rt_2n", 4, "", partials);
  for (const img::GrayA8 px : got.pixels()) EXPECT_EQ(px.a, 255);
}

struct PinnedMethod {
  const char* method;
  int blocks;
  std::vector<int> ranks;  ///< the counts in {1, 3, 5, 8, 12} it allows
  bool schedule;           ///< also runs with aggregate_messages
  std::uint64_t hash;
};

TEST(Methods, GatheredImagesArePinned) {
  // The translucent tests above only bound the rounding error, so they
  // cannot tell a byte-identical refactor from one that reorders a
  // blend. This pins the gathered bytes instead: per method, the
  // FNV-1a hashes (frames::hash_pixels) of every gathered image across
  // P, codec, blend and message aggregation fold into one constant.
  // Odd P leaves idle copies, so some ranks own final blocks they never
  // received into. A wall-clock change must leave every constant as it
  // is; only a deliberate change to blend order or arithmetic may move
  // one.
  const std::vector<PinnedMethod> methods = {
      {"rt_n", 3, {1, 8, 12}, true, 0x2b22bebbe13ce7e3ull},
      {"rt_2n", 4, {1, 3, 5, 8, 12}, true, 0x452f7db06d9dbe7bull},
      {"rt", 3, {1, 3, 5, 8, 12}, true, 0xa7d3d5434a656307ull},
      {"bswap", 1, {1, 8}, true, 0x2ebe579dfd7213e3ull},
      {"bswap_any", 1, {1, 3, 5, 8, 12}, true, 0x10535a7cd912b397ull},
      {"direct", 1, {1, 3, 5, 8, 12}, true, 0x8bdf394323cdb3ull},
      {"radix", 4, {1, 3, 5, 8, 12}, false, 0x93755b3fbab98ddbull},
      {"pp", 1, {1, 3, 5, 8, 12}, false, 0xef4219e8e24d5007ull},
      {"pp_exact", 1, {1, 3, 5, 8, 12}, false, 0x21957601f83c375full},
      {"hier", 2, {1, 3, 5, 8, 12}, false, 0xaec1048b67eb43d3ull},
  };
  for (const PinnedMethod& m : methods) {
    std::uint64_t fold = 1469598103934665603ull;
    for (const int p : m.ranks) {
      const auto partials = make_partials(p, 37, 23, 0.2, /*binary=*/false);
      for (const char* codec : {"", "trle"}) {
        for (const img::BlendMode blend :
             {img::BlendMode::kOver, img::BlendMode::kMax}) {
          for (const bool aggregate : {false, true}) {
            if (aggregate && !m.schedule) continue;
            harness::CompositionConfig cfg;
            cfg.method = m.method;
            cfg.initial_blocks = m.blocks;
            cfg.codec = codec;
            cfg.gather = true;
            cfg.blend = blend;
            cfg.aggregate_messages = aggregate;
            const img::Image got =
                harness::run_composition(cfg, partials).image;
            ASSERT_EQ(got.pixel_count(), 37 * 23)
                << m.method << " P=" << p << " codec=" << codec;
            fold = (fold ^ frames::hash_pixels(got.pixels())) *
                   1099511628211ull;
          }
        }
      }
    }
    EXPECT_EQ(fold, m.hash) << m.method << ": 0x" << std::hex << fold;
  }
}

}  // namespace
}  // namespace rtc::compositing
