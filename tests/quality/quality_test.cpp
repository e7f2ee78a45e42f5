// Quality-degradation ladder: rung parsing, bound math, controller
// dynamics, the down/upsample pair, and the error CONTRACT end to end —
// across seeds, methods and rank counts the reported a-priori bound
// dominates the measured max pixel error, --max-error 0 stays
// byte-identical to the exact path, progressive refines to the exact
// image when the deadline allows, and both executors agree bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "rtc/core/schedule.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/quality/quality.hpp"
#include "rtc/service/service.hpp"
#include "testutil.hpp"

namespace rtc::quality {
namespace {

bool images_equal(const img::Image& a, const img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  return std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size_bytes()) == 0;
}

std::vector<img::Image> make_partials(int ranks, std::uint32_t salt,
                                      int size = 64) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        size, size, salt + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

// ----------------------------------------------------------- rung basics

TEST(Rung, ParseRoundTripsAndRejectsUnknown) {
  for (int i = 0; i < kRungCount; ++i) {
    const Rung r = static_cast<Rung>(i);
    const auto parsed = parse_rung(rung_name(r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_FALSE(parse_rung("lossy").has_value());
  EXPECT_FALSE(parse_rung("").has_value());
  EXPECT_FALSE(parse_rung("Exact").has_value());
}

TEST(Rung, StepDownClampsAtFloorAndStepUpAtExact) {
  EXPECT_EQ(step_down(Rung::kExact, Rung::kBlank), Rung::kApprox);
  EXPECT_EQ(step_down(Rung::kStale, Rung::kBlank), Rung::kBlank);
  EXPECT_EQ(step_down(Rung::kBlank, Rung::kBlank), Rung::kBlank);
  EXPECT_EQ(step_down(Rung::kApprox, Rung::kApprox), Rung::kApprox);
  EXPECT_EQ(step_down(Rung::kExact, Rung::kExact), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kExact), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kApprox), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kBlank), Rung::kStale);
}

TEST(Rung, ApproxBoundMath) {
  EXPECT_EQ(approx_error_bound(255), 16);   // 2*(255-255)+16
  EXPECT_EQ(approx_error_bound(240), 46);   // 2*15+16
  EXPECT_EQ(approx_error_bound(128), 255);  // 2*127+16 clamps
  EXPECT_EQ(approx_error_bound(127), 255);  // below range: worst case
  EXPECT_EQ(approx_error_bound(0), 255);
}

TEST(Rung, ControllerStepsDownUnderPressureAndRecovers) {
  QualityPolicy pol;
  pol.max_rung = Rung::kStale;
  QualityController qc(pol);
  PressureSignals calm;
  PressureSignals hot;
  hot.stragglers = true;
  EXPECT_EQ(qc.choose(calm), Rung::kExact);
  EXPECT_EQ(qc.choose(hot), Rung::kApprox);
  EXPECT_EQ(qc.choose(hot), Rung::kProgressive);
  EXPECT_EQ(qc.choose(hot), Rung::kStale);
  EXPECT_EQ(qc.choose(hot), Rung::kStale);  // clamped at max_rung
  EXPECT_EQ(qc.choose(calm), Rung::kProgressive);
  EXPECT_EQ(qc.choose(calm), Rung::kApprox);
  EXPECT_EQ(qc.choose(calm), Rung::kExact);
}

TEST(Rung, ControllerDisengagedIsConstantExact) {
  QualityController qc(QualityPolicy{});
  PressureSignals hot;
  hot.deadline_missed = true;
  hot.peer_loss = true;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(qc.choose(hot), Rung::kExact);
}

TEST(Rung, QueuePressureNeedsACap) {
  PressureSignals p;
  p.queue_depth = 100;
  EXPECT_FALSE(p.any());  // cap 0 = not a service run
  p.queue_cap = 8;
  EXPECT_TRUE(p.any());
}

TEST(Rung, EnforceContractWalksBackTowardExact) {
  QualityPolicy pol;
  pol.max_rung = Rung::kBlank;
  pol.saturation = 240;  // approx bound 46

  pol.max_error = 255;
  EXPECT_EQ(enforce_contract(Rung::kApprox, pol, {}).rung, Rung::kApprox);
  EXPECT_EQ(enforce_contract(Rung::kApprox, pol, {}).bound, 46);

  // Tight contract: approx (46) rejected, falls back to exact.
  pol.max_error = 20;
  const RungChoice tight = enforce_contract(Rung::kApprox, pol, {});
  EXPECT_EQ(tight.rung, Rung::kExact);
  EXPECT_EQ(tight.bound, 0);

  // Zero: only exact is ever admitted, from any proposed rung.
  pol.max_error = 0;
  for (int i = 0; i < kRungCount; ++i) {
    const RungChoice c = enforce_contract(static_cast<Rung>(i), pol, {});
    EXPECT_EQ(c.rung, Rung::kExact);
    EXPECT_EQ(c.bound, 0);
  }

  // Stale/blank bound at 255: admitted only under a full-width budget.
  pol.max_error = 254;
  EXPECT_LT(static_cast<int>(enforce_contract(Rung::kBlank, pol, {}).rung),
            static_cast<int>(Rung::kStale));
  pol.max_error = 255;
  EXPECT_EQ(enforce_contract(Rung::kBlank, pol, {}).rung, Rung::kBlank);

  // The proposed rung is clamped to the policy's max_rung.
  pol.max_rung = Rung::kApprox;
  EXPECT_EQ(enforce_contract(Rung::kBlank, pol, {}).rung, Rung::kApprox);
}

// ------------------------------------------------------ image-op helpers

TEST(Sampling, DownsampleGeometryAndConstantExactness) {
  img::Image src(10, 7);
  src.fill(img::GrayA8{120, 200});
  const img::Image c = img::downsample(src, 4);
  EXPECT_EQ(c.width(), 3);   // ceil(10/4)
  EXPECT_EQ(c.height(), 2);  // ceil(7/4)
  for (const img::GrayA8& p : c.pixels()) {
    EXPECT_EQ(p.v, 120);  // box average of a constant is the constant
    EXPECT_EQ(p.a, 200);
  }
  const img::Image up = img::upsample(c, 4, 10, 7);
  EXPECT_EQ(up.width(), 10);
  EXPECT_EQ(up.height(), 7);
  EXPECT_TRUE(images_equal(up, src));
}

TEST(Sampling, UpsampleReplicatesCells) {
  img::Image c(2, 1);
  c.at(0, 0) = img::GrayA8{10, 255};
  c.at(1, 0) = img::GrayA8{20, 255};
  const img::Image up = img::upsample(c, 2, 4, 1);
  EXPECT_EQ(up.at(0, 0).v, 10);
  EXPECT_EQ(up.at(1, 0).v, 10);
  EXPECT_EQ(up.at(2, 0).v, 20);
  EXPECT_EQ(up.at(3, 0).v, 20);
}

// The per-cell progressive bound, downsample and upsample the band
// walks replaced, kept as the references the property sweep pins them
// to.
int reference_bound(std::span<const img::Image> partials, int f) {
  if (f < 2 || partials.empty()) return 255;
  const int w = partials[0].width();
  const int h = partials[0].height();
  int worst = 0;
  for (int y0 = 0; y0 < h; y0 += f) {
    for (int x0 = 0; x0 < w; x0 += f) {
      int cell = 0;
      for (const img::Image& p : partials) {
        int vmin = 255, vmax = 0, amin = 255, amax = 0;
        for (int y = y0; y < std::min(h, y0 + f); ++y) {
          for (int x = x0; x < std::min(w, x0 + f); ++x) {
            vmin = std::min(vmin, int{p.at(x, y).v});
            vmax = std::max(vmax, int{p.at(x, y).v});
            amin = std::min(amin, int{p.at(x, y).a});
            amax = std::max(amax, int{p.at(x, y).a});
          }
        }
        cell += (vmax - vmin) + (amax - amin);
      }
      worst = std::max(worst, cell);
    }
  }
  return std::min(255, worst + static_cast<int>(partials.size()) + 8);
}

img::Image reference_downsample(const img::Image& src, int f) {
  img::Image out((src.width() + f - 1) / f, (src.height() + f - 1) / f);
  for (int cy = 0; cy < out.height(); ++cy) {
    for (int cx = 0; cx < out.width(); ++cx) {
      const int x1 = std::min(src.width(), cx * f + f);
      const int y1 = std::min(src.height(), cy * f + f);
      std::uint32_t sv = 0, sa = 0;
      for (int y = cy * f; y < y1; ++y) {
        for (int x = cx * f; x < x1; ++x) {
          sv += src.at(x, y).v;
          sa += src.at(x, y).a;
        }
      }
      const auto n =
          static_cast<std::uint32_t>((x1 - cx * f) * (y1 - cy * f));
      out.at(cx, cy) =
          img::GrayA8{static_cast<std::uint8_t>((sv + n / 2) / n),
                      static_cast<std::uint8_t>((sa + n / 2) / n)};
    }
  }
  return out;
}

img::Image reference_upsample(const img::Image& coarse, int f, int w,
                              int h) {
  img::Image out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) out.at(x, y) = coarse.at(x / f, y / f);
  return out;
}

/// Uniform draw from [lo, hi].
int draw(std::mt19937& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// One pixel of a class the band walks must treat alike: blank, opaque,
/// translucent, or the non-blank {v > 0, a = 0}.
img::GrayA8 class_pixel(std::mt19937& rng) {
  const auto b = [&rng](int lo, int hi) {
    return static_cast<std::uint8_t>(draw(rng, lo, hi));
  };
  switch (draw(rng, 0, 3)) {
    case 0: return img::kBlank;
    case 1: return img::GrayA8{b(0, 255), 255};
    case 2: {
      const std::uint8_t a = b(1, 254);
      return img::GrayA8{b(0, a), a};
    }
    default: return img::GrayA8{b(1, 255), 0};
  }
}

/// A partial of one family: 0 class pixels inside a random rectangle
/// on blank (whole blank bands and columns), 1 class pixels everywhere,
/// 2 a smooth low-alpha gradient whose bound stays under the clamp.
img::Image family_partial(int w, int h, int family, std::mt19937& rng) {
  img::Image im(w, h);
  if (family == 2) {
    const int phase = draw(rng, 0, 7);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const int a = 8 + (x + y + phase) % 4;
        im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(a / 2),
                                  static_cast<std::uint8_t>(a)};
      }
    return im;
  }
  int x0 = 0, x1 = w, y0 = 0, y1 = h;
  if (family == 0) {
    x0 = draw(rng, 0, w - 1);
    x1 = draw(rng, x0 + 1, w);
    y0 = draw(rng, 0, h - 1);
    y1 = draw(rng, y0 + 1, h);
  }
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x) im.at(x, y) = class_pixel(rng);
  return im;
}

TEST(Sampling, BandWalksMatchThePerCellReference) {
  std::mt19937 rng(2601);
  int under_clamp = 0;
  int cases = 0;
  // Every width and every height in 1..70, each paired with random
  // partners, all three families, P 1..6 and factors 1..7.
  for (int side = 1; side <= 70; ++side) {
    for (int rep = 0; rep < 6; ++rep) {
      const int other = draw(rng, 1, 70);
      const int w = rep % 2 == 0 ? side : other;
      const int h = rep % 2 == 0 ? other : side;
      const int family = rep / 2;
      const int p = draw(rng, 1, 6);
      std::vector<img::Image> partials;
      for (int r = 0; r < p; ++r)
        partials.push_back(family_partial(w, h, family, rng));
      for (int f = 1; f <= 7; ++f) {
        const int want = reference_bound(partials, f);
        ASSERT_EQ(progressive_error_bound(partials, f), want)
            << w << "x" << h << " P=" << p << " f=" << f
            << " family=" << family;
        under_clamp += want < 255 ? 1 : 0;
        ++cases;
        for (const img::Image& part : partials) {
          const img::Image coarse = img::downsample(part, f);
          ASSERT_TRUE(images_equal(coarse, reference_downsample(part, f)))
              << w << "x" << h << " f=" << f << " family=" << family;
          ASSERT_TRUE(images_equal(img::upsample(coarse, f, w, h),
                                   reference_upsample(coarse, f, w, h)))
              << w << "x" << h << " f=" << f;
        }
      }
      // The column range the walks skip by: no non-blank pixel of the
      // band lies outside it, and its edge columns hold one.
      const img::Image& im = partials[0];
      const int y0 = draw(rng, 0, h - 1);
      const int y1 = draw(rng, y0 + 1, h);
      int lo = w, hi = 0;
      for (int y = y0; y < y1; ++y)
        for (int x = 0; x < w; ++x)
          if (!img::is_blank(im.at(x, y))) {
            lo = std::min(lo, x);
            hi = std::max(hi, x + 1);
          }
      const img::ColumnRange cols = img::non_blank_columns(im, y0, y1);
      EXPECT_EQ(cols.empty(), lo >= hi);
      if (lo < hi) {
        EXPECT_EQ(cols.begin, lo);
        EXPECT_EQ(cols.end, hi);
      }
    }
  }
  // The smooth family keeps the bound below the clamp, so the sums are
  // compared in full and not only through the early exit.
  EXPECT_GT(under_clamp, cases / 10);
}

TEST(ApproxBlend, SkipsOnlySaturatedFrontsWithinPerPixelBound) {
  const img::Image front = test::random_image(64, 64, 91u, 0.3, true);
  const img::Image back = test::random_image(64, 64, 92u, 0.3, true);
  const int sat = 240;

  img::Image exact = front;
  img::blend_in_place(exact.pixels(), back.pixels(), img::BlendMode::kOver,
                      /*src_front=*/false);
  img::Image approx = front;
  const img::ApproxBlendStats st = img::blend_in_place_approx(
      approx.pixels(), back.pixels(), /*src_front=*/false, sat);
  EXPECT_GT(st.skipped, 0);  // binary alpha: plenty of opaque fronts
  EXPECT_EQ(st.blended + st.skipped,
            static_cast<std::int64_t>(exact.pixel_count()));
  EXPECT_LE(img::max_channel_diff(exact, approx), 255 - sat);

  // Saturation 0 disables the fast path: bit-exact, nothing skipped.
  img::Image off = front;
  const img::ApproxBlendStats st0 = img::blend_in_place_approx(
      off.pixels(), back.pixels(), /*src_front=*/false, 0);
  EXPECT_EQ(st0.skipped, 0);
  EXPECT_TRUE(images_equal(off, exact));
}

// ------------------------------------------------- the contract, end to end

harness::CompositionRun run_rung(const std::vector<img::Image>& partials,
                                 const std::string& method, Rung rung,
                                 const QualityPolicy& pol,
                                 comm::ExecutorKind kind =
                                     comm::ExecutorKind::kPooled) {
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.gather = true;
  cfg.quality = pol;
  cfg.quality_rung = rung;
  cfg.executor.kind = kind;
  return harness::run_composition(cfg, partials);
}

TEST(Contract, ApproxBoundHoldsAcrossSeedsMethodsAndRanks) {
  QualityPolicy pol;
  pol.max_rung = Rung::kApprox;
  for (const std::uint32_t seed : {100u, 900u}) {
    for (const char* method : {"bswap", "rt", "direct"}) {
      for (const int p : {4, 8}) {
        const auto partials = make_partials(p, seed);
        const harness::CompositionRun exact =
            run_rung(partials, method, Rung::kExact, QualityPolicy{});
        const harness::CompositionRun approx =
            run_rung(partials, method, Rung::kApprox, pol);
        ASSERT_EQ(approx.stats.quality_rung,
                  static_cast<int>(Rung::kApprox));
        EXPECT_EQ(approx.stats.error_bound, approx_error_bound(240));
        // The contract, measured two ways: against the exact run of the
        // same method, and against the harness's sequential reference.
        EXPECT_LE(img::max_channel_diff(exact.image, approx.image),
                  approx.stats.error_bound)
            << method << " P=" << p << " seed=" << seed;
        EXPECT_LE(approx.stats.max_pixel_error, approx.stats.error_bound);
        // Approximation must actually engage on binary-alpha content and
        // never slow the modeled frame down.
        EXPECT_GT(approx.stats.total_approx_skipped_pixels(), 0);
        EXPECT_LE(approx.time, exact.time);
      }
    }
  }
}

TEST(Contract, MaxErrorZeroIsByteIdenticalToExact) {
  const auto partials = make_partials(8, 4200u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  pol.max_error = 0;
  const harness::CompositionRun exact =
      run_rung(partials, "bswap", Rung::kExact, QualityPolicy{});
  const harness::CompositionRun gated =
      run_rung(partials, "bswap", Rung::kProgressive, pol);
  EXPECT_EQ(gated.stats.quality_rung, 0);
  EXPECT_EQ(gated.stats.error_bound, 0);
  EXPECT_EQ(gated.stats.max_pixel_error, 0);
  EXPECT_TRUE(images_equal(exact.image, gated.image));
  EXPECT_EQ(exact.time, gated.time);
}

TEST(Contract, ProgressiveRefinesToExactWithoutDeadline) {
  const auto partials = make_partials(4, 5100u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  const harness::CompositionRun exact =
      run_rung(partials, "bswap", Rung::kExact, QualityPolicy{});
  const harness::CompositionRun prog =
      run_rung(partials, "bswap", Rung::kProgressive, pol);
  EXPECT_TRUE(prog.refined);
  EXPECT_EQ(prog.stats.coarse_pixels, 0);
  // First light lands strictly before the refined frame completes, and
  // the refined frame is the exact image bit for bit.
  EXPECT_GT(prog.first_light, 0.0);
  EXPECT_LT(prog.first_light, prog.time);
  EXPECT_TRUE(images_equal(exact.image, prog.image));
  EXPECT_LE(prog.stats.max_pixel_error, prog.stats.error_bound);
}

TEST(Contract, ProgressiveDeliversCoarseWhenDeadlineExpires) {
  const auto partials = make_partials(4, 6200u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  // Dry run to learn when first light lands; a deadline AT first light
  // lets every coarse block through but forbids the refine pass.
  harness::CompositionConfig cfg;
  cfg.method = "bswap";
  cfg.gather = true;
  cfg.quality = pol;
  cfg.quality_rung = Rung::kProgressive;
  const harness::CompositionRun dry = harness::run_composition(cfg, partials);
  ASSERT_GT(dry.first_light, 0.0);

  cfg.deadline = dry.first_light;
  cfg.resilience.on_peer_loss = comm::ResiliencePolicy::PeerLoss::kBlank;
  const harness::CompositionRun coarse =
      harness::run_composition(cfg, partials);
  EXPECT_FALSE(coarse.refined);
  EXPECT_GT(coarse.stats.coarse_pixels, 0);
  EXPECT_EQ(coarse.stats.quality_rung, static_cast<int>(Rung::kProgressive));
  // The delivered image is the upsampled coarse composite; its measured
  // error obeys the reported a-priori bound.
  EXPECT_LE(coarse.stats.max_pixel_error, coarse.stats.error_bound);
  const img::Image expect_coarse = img::upsample(
      img::downsample(img::composite_reference(partials,
                                               img::BlendMode::kOver),
                      pol.coarse_factor),
      pol.coarse_factor, partials[0].width(), partials[0].height());
  // Not asserting byte equality with the downsample-then-composite
  // image (the coarse pass composites downsampled partials, which is
  // not the same as downsampling the composite), but both must stay
  // within the progressive bound of the exact frame.
  EXPECT_LE(img::max_channel_diff(
                coarse.image,
                img::composite_reference(partials, img::BlendMode::kOver)),
            coarse.stats.error_bound);
  (void)expect_coarse;
}

TEST(Contract, ExecutorsAgreeBitExactlyOnDegradedRungs) {
  const auto partials = make_partials(8, 7300u);
  for (const Rung rung : {Rung::kApprox, Rung::kProgressive}) {
    QualityPolicy pol;
    pol.max_rung = rung;
    const harness::CompositionRun pooled = run_rung(
        partials, "bswap", rung, pol, comm::ExecutorKind::kPooled);
    const harness::CompositionRun threaded = run_rung(
        partials, "bswap", rung, pol, comm::ExecutorKind::kThreaded);
    EXPECT_TRUE(images_equal(pooled.image, threaded.image));
    EXPECT_EQ(pooled.time, threaded.time);
    EXPECT_EQ(pooled.stats.max_pixel_error, threaded.stats.max_pixel_error);
    EXPECT_EQ(pooled.stats.error_bound, threaded.stats.error_bound);
    EXPECT_EQ(pooled.stats.total_approx_skipped_pixels(),
              threaded.stats.total_approx_skipped_pixels());
  }
}

/// Rank r's partial for the pinned runs: even ranks translucent noise
/// with blank holes, odd ranks opaque bands (long blank and full TRLE
/// runs, saturated fronts for the approx rung); `smooth` gives every
/// rank a low-alpha gradient whose progressive bound stays under the
/// clamp.
img::Image pinned_partial(int r, bool smooth) {
  const auto seed = 4000u + static_cast<std::uint32_t>(r);
  if (!smooth) {
    return r % 2 == 0 ? test::random_image(37, 23, seed, 0.4, false)
                      : test::banded_image(37, 23, seed, 5 + r % 3);
  }
  img::Image im(37, 23);
  for (int y = 0; y < im.height(); ++y) {
    for (int x = 0; x < im.width(); ++x) {
      const int a = 20 + (x + 2 * y + 3 * r) % 8;
      im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(a / 2),
                                static_cast<std::uint8_t>(a)};
    }
  }
  return im;
}

struct PinnedRung {
  const char* method;
  int blocks;
  std::uint64_t hash;
};

TEST(Quality, DegradedRunsArePinned) {
  // The contract tests above bound the error; this pins the bytes. Per
  // method, every approx and progressive run over P in {3, 8, 16}, raw
  // and trle, noisy and smooth partials (plus a progressive run whose
  // deadline stops it at the coarse pass) folds its gathered image
  // hash, error bound, measured error, skipped blends, coarse pixels
  // and virtual times into one FNV-1a constant. A wall-clock change to
  // the degraded rungs must leave every constant as it is.
  const std::vector<PinnedRung> methods = {
      {"rt_n", 3, 0x7803edd0e8751ec9ull},
      {"rt_2n", 4, 0x521c2f60261f323bull},
      {"bswap", 1, 0x7ea2a3300165ab0cull},
      {"bswap_any", 1, 0x7ea2a3300165ab0cull},
      {"direct", 1, 0x4fc12a690f91c4a5ull},
      {"radix", 4, 0x828001f72c6434bdull},
      {"pp", 1, 0x932ca60843277eb3ull},
  };
  for (const PinnedRung& m : methods) {
    std::uint64_t fold = 1469598103934665603ull;
    const auto mix = [&fold](std::uint64_t v) {
      fold = (fold ^ v) * 1099511628211ull;
    };
    const auto mix_run = [&](const harness::CompositionRun& run) {
      mix(frames::hash_pixels(run.image.pixels()));
      mix(static_cast<std::uint64_t>(run.stats.error_bound));
      mix(static_cast<std::uint64_t>(run.stats.max_pixel_error));
      mix(static_cast<std::uint64_t>(
          run.stats.total_approx_skipped_pixels()));
      mix(static_cast<std::uint64_t>(run.stats.coarse_pixels));
      mix(std::bit_cast<std::uint64_t>(run.time));
      mix(std::bit_cast<std::uint64_t>(run.first_light));
    };
    for (const int p : {3, 8, 16}) {
      for (const bool smooth : {false, true}) {
        std::vector<img::Image> partials;
        for (int r = 0; r < p; ++r)
          partials.push_back(pinned_partial(r, smooth));
        for (const char* codec : {"raw", "trle"}) {
          for (const Rung rung : {Rung::kApprox, Rung::kProgressive}) {
            harness::CompositionConfig cfg;
            cfg.method = core::any_p_method(m.method, p);
            cfg.initial_blocks = m.blocks;
            cfg.codec = codec;
            cfg.gather = true;
            cfg.quality.max_rung = rung;
            cfg.quality_rung = rung;
            const harness::CompositionRun run =
                harness::run_composition(cfg, partials);
            ASSERT_EQ(run.stats.quality_rung, static_cast<int>(rung))
                << m.method << " P=" << p << " codec=" << codec;
            // Both regimes are pinned: skipped blends on the noisy set
            // (radix and pp blend exactly at every rung), a progressive
            // bound below the clamp on the smooth one.
            if (rung == Rung::kApprox && !smooth &&
                core::is_schedule_method(cfg.method)) {
              EXPECT_GT(run.stats.total_approx_skipped_pixels(), 0);
            }
            if (rung == Rung::kProgressive) {
              EXPECT_EQ(run.stats.error_bound < 255, smooth);
            }
            mix_run(run);
            if (rung != Rung::kProgressive || smooth) continue;
            cfg.deadline = run.first_light;
            cfg.resilience.on_peer_loss =
                comm::ResiliencePolicy::PeerLoss::kBlank;
            const harness::CompositionRun coarse =
                harness::run_composition(cfg, partials);
            ASSERT_FALSE(coarse.refined) << m.method << " P=" << p;
            mix_run(coarse);
          }
        }
      }
    }
    EXPECT_EQ(fold, m.hash) << m.method << ": 0x" << std::hex << fold;
  }
}

// ------------------------------------------------------- service ladder

service::ServiceConfig overload_config() {
  service::ServiceConfig sc;
  sc.ranks = 2;
  sc.volume_n = 16;
  sc.image_size = 32;
  sc.comp.method = "bswap";
  sc.queue_cap = 2;
  sc.traffic.sessions = 2;
  sc.traffic.requests_per_session = 10;
  sc.traffic.arrival_rate = 5000.0;  // far beyond what 2 ranks serve
  return sc;
}

TEST(ServiceLadder, DegradeBeforeShedTurnsShedsIntoQualitySteps) {
  const service::ServiceConfig base = overload_config();
  const service::ServiceResult shed_run = service::run_service(base);
  ASSERT_GT(shed_run.stats.total_session_sheds(), 0)
      << "overload config must shed at baseline for this test to bite";

  service::ServiceConfig deg = base;
  deg.comp.quality.max_rung = Rung::kStale;
  deg.comp.quality.degrade_before_shed = true;
  const service::ServiceResult r = service::run_service(deg);
  EXPECT_EQ(r.stats.total_session_drops(), 0);
  EXPECT_EQ(r.stats.total_session_delivered(),
            r.stats.total_session_arrivals());
  EXPECT_GT(r.stats.total_session_quality_degrades(), 0);
  EXPECT_GT(r.stats.session_quality_floor(), 0);

  // Bit-identical replay: same config, same virtual timeline, same
  // per-session books, same delivered frames.
  const service::ServiceResult r2 = service::run_service(deg);
  EXPECT_EQ(r.makespan, r2.makespan);
  ASSERT_EQ(r.submissions.size(), r2.submissions.size());
  for (std::size_t i = 0; i < r.submissions.size(); ++i)
    EXPECT_TRUE(images_equal(r.submissions[i].image, r2.submissions[i].image));
  ASSERT_EQ(r.stats.sessions.size(), r2.stats.sessions.size());
  for (std::size_t i = 0; i < r.stats.sessions.size(); ++i) {
    EXPECT_EQ(r.stats.sessions[i].quality_degrades,
              r2.stats.sessions[i].quality_degrades);
    EXPECT_EQ(r.stats.sessions[i].stale_pixels,
              r2.stats.sessions[i].stale_pixels);
    EXPECT_EQ(r.stats.sessions[i].max_pixel_error,
              r2.stats.sessions[i].max_pixel_error);
  }
}

TEST(ServiceLadder, DisengagedPolicyKeepsBaselineBooks) {
  const service::ServiceConfig base = overload_config();
  const service::ServiceResult a = service::run_service(base);
  // degrade_before_shed without an engaged ladder is inert by design.
  service::ServiceConfig inert = base;
  inert.comp.quality.degrade_before_shed = true;
  const service::ServiceResult b = service::run_service(inert);
  EXPECT_EQ(a.stats.total_session_sheds(), b.stats.total_session_sheds());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(b.stats.total_session_quality_degrades(), 0);
}

}  // namespace
}  // namespace rtc::quality
