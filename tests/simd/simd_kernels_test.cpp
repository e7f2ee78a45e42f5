// Scalar-vs-SIMD exact-equality property suite.
//
// The dispatch contract (simd/kernels.hpp) is that every level writes
// byte-identical results for identical inputs — including the uint8
// wraparound of malformed premultiplied pixels, which packus-style
// saturation would silently "fix". These tests sweep lengths 0..129
// (every vector-width remainder for 8- and 16-pixel strides),
// misaligned span starts, and adversarial pixel classes, comparing
// each supported level against the scalar reference with EXPECT_EQ on
// raw bytes. They also pin codec-level equivalence: TRLE encode must
// produce the same wire bytes and decode_blend the same image at every
// level, and the wire CRC must equal a bytewise reference at every
// level, length and alignment.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "rtc/compress/codec.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/pixel.hpp"
#include "rtc/simd/dispatch.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc {
namespace {

using img::GrayA8;
using simd::SimdLevel;

/// Seed arithmetic without sign-conversion noise.
constexpr std::uint32_t u32(int v) { return static_cast<std::uint32_t>(v); }

/// Levels this machine can actually execute (scalar always).
std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  if (simd::detected_level() >= SimdLevel::kSse2)
    out.push_back(SimdLevel::kSse2);
  if (simd::detected_level() >= SimdLevel::kAvx2)
    out.push_back(SimdLevel::kAvx2);
  return out;
}

/// Pixel generators for the classes where blend arithmetic has edge
/// cases: blank runs (codec identity), fully opaque (inv == 0),
/// saturated-alpha gradients, random valid premultiplied values, and
/// malformed "v > a" pixels that exercise the wraparound path.
std::vector<GrayA8> make_pixels(int cls, std::size_t n,
                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<GrayA8> px(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (cls) {
      case 0:  // all blank
        px[i] = img::kBlank;
        break;
      case 1:  // opaque ramp
        px[i] = GrayA8{static_cast<std::uint8_t>(i * 7), 255};
        break;
      case 2: {  // mixed blank / translucent runs
        const bool blank = ((i / 5) % 2) == 0;
        px[i] = blank ? img::kBlank
                      : GrayA8{static_cast<std::uint8_t>(i),
                               static_cast<std::uint8_t>(128 + (i % 100))};
        break;
      }
      case 3: {  // random, valid premultiplied (v <= a)
        const auto a = static_cast<std::uint8_t>(rng() & 0xff);
        px[i] = GrayA8{static_cast<std::uint8_t>(rng() % (a + 1u)), a};
        break;
      }
      default: {  // adversarial: arbitrary bytes, v > a allowed
        px[i] = GrayA8{static_cast<std::uint8_t>(rng() & 0xff),
                       static_cast<std::uint8_t>(rng() & 0xff)};
        break;
      }
    }
  }
  return px;
}

constexpr int kPixelClasses = 5;

/// Runs `check(level_kernels, scalar_kernels)` for every supported
/// non-scalar level over the length/alignment/class sweep.
template <typename Check>
void sweep(Check&& check) {
  const simd::Kernels& ref = simd::detail::scalar_kernels();
  for (const SimdLevel level : supported_levels()) {
    if (level == SimdLevel::kScalar) continue;
    const simd::Kernels& k = simd::kernels_for(level);
    for (std::size_t n = 0; n <= 129; ++n) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}, std::size_t{7}}) {
        for (int cls = 0; cls < kPixelClasses; ++cls) {
          check(k, ref, n, offset, cls, level);
        }
      }
    }
  }
}

TEST(SimdKernels, OverAndMaxMatchScalarEverywhere) {
  sweep([](const simd::Kernels& k, const simd::Kernels& ref,
           std::size_t n, std::size_t offset, int cls, SimdLevel level) {
    // Misalign deliberately: spans into a larger buffer at `offset`.
    const auto src_all = make_pixels(cls, offset + n, 17u * u32(cls) + 1);
    const auto dst_all =
        make_pixels((cls + 2) % kPixelClasses, offset + n, 99u * u32(cls) + 5);
    struct Case {
      simd::OverFn simd_fn;
      simd::OverFn ref_fn;
    };
    const Case cases[] = {
        {k.over_front, ref.over_front},
        {k.over_back, ref.over_back},
        {k.max_blend, ref.max_blend},
    };
    for (const Case& c : cases) {
      if (offset + n == 0) continue;
      auto got = dst_all;
      auto want = dst_all;
      c.simd_fn(got.data() + offset, src_all.data() + offset, n);
      c.ref_fn(want.data() + offset, src_all.data() + offset, n);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(GrayA8)))
          << "level=" << simd::to_string(level) << " n=" << n
          << " offset=" << offset << " class=" << cls;
    }
  });
}

TEST(SimdKernels, CountAndBlankMaskMatchScalarEverywhere) {
  sweep([](const simd::Kernels& k, const simd::Kernels& ref,
           std::size_t n, std::size_t offset, int cls, SimdLevel level) {
    const auto px_all = make_pixels(cls, offset + n, 7u * u32(cls) + 3);
    const GrayA8* px = px_all.data() + offset;
    ASSERT_EQ(k.count_non_blank(px, n), ref.count_non_blank(px, n))
        << "level=" << simd::to_string(level) << " n=" << n
        << " offset=" << offset << " class=" << cls;
    const std::size_t words = (n + 63) / 64;
    // Poison both outputs so unwritten trailing bits would differ.
    std::vector<std::uint64_t> got(words + 1, ~std::uint64_t{0});
    std::vector<std::uint64_t> want(words + 1, std::uint64_t{0xabcd});
    if (n != 0) {
      k.blank_mask(px, n, got.data());
      ref.blank_mask(px, n, want.data());
      ASSERT_EQ(got[words], ~std::uint64_t{0})
          << "blank_mask wrote past ceil(n/64) words, n=" << n;
      got.resize(words);
      want.resize(words);
      ASSERT_EQ(got, want)
          << "level=" << simd::to_string(level) << " n=" << n
          << " offset=" << offset << " class=" << cls;
    }
  });
}

TEST(SimdKernels, FusedCellsMatchScalarEverywhere) {
  const simd::Kernels& ref = simd::detail::scalar_kernels();
  for (const SimdLevel level : supported_levels()) {
    if (level == SimdLevel::kScalar) continue;
    const simd::Kernels& k = simd::kernels_for(level);
    for (std::size_t cells = 0; cells <= 33; ++cells) {
      for (int cls = 0; cls < kPixelClasses; ++cls) {
        const auto pay_px = make_pixels(cls, cells * 4, 13u * u32(cls) + 11);
        std::vector<std::byte> payload(cells * 8);
        if (!payload.empty())
          std::memcpy(payload.data(), pay_px.data(), payload.size());
        const auto rows =
            make_pixels((cls + 1) % kPixelClasses, cells * 4, 41u * u32(cls));
        struct Case {
          simd::FusedCellsFn simd_fn;
          simd::FusedCellsFn ref_fn;
        };
        const Case cases[] = {
            {k.fused_cells_over_front, ref.fused_cells_over_front},
            {k.fused_cells_over_back, ref.fused_cells_over_back},
            {k.fused_cells_max, ref.fused_cells_max},
        };
        for (const Case& c : cases) {
          if (cells == 0) continue;
          auto got = rows;
          auto want = rows;
          // rows: first half row0, second half row1.
          c.simd_fn(got.data(), got.data() + cells * 2, payload.data(),
                    cells);
          c.ref_fn(want.data(), want.data() + cells * 2, payload.data(),
                   cells);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(GrayA8)))
              << "level=" << simd::to_string(level)
              << " cells=" << cells << " class=" << cls;
        }
      }
    }
  }
}

/// Reference CRC-32 every level must equal: the plain bytewise table
/// loop, one lookup per byte, reflected polynomial 0xEDB88320.
std::uint32_t crc32_bytewise(const std::byte* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ std::to_integer<std::uint32_t>(data[i])) & 0xffu] ^
        (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

TEST(SimdCrc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Every tail length of the 16-byte slice and fold strides, on both
  // sides of the 64-byte fold minimum, from every 16-byte alignment.
  const auto buf = random_bytes(1024 + 16, 29);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::byte* p = buf.data() + align;
      const std::uint32_t want = crc32_bytewise(p, n);
      for (const SimdLevel level : supported_levels()) {
        ASSERT_EQ(simd::kernels_for(level).crc32(p, n), want)
            << "level=" << simd::to_string(level) << " n=" << n
            << " align=" << align;
      }
    }
  }
}

TEST(SimdCrc32, MatchesBytewiseAroundLargerMultiplesOf16) {
  const auto buf = random_bytes(65536 + 64, 31);
  for (const std::size_t base : {std::size_t{64}, std::size_t{1024},
                                 std::size_t{4096}, std::size_t{65536}}) {
    for (const std::size_t n : {base - 17, base - 16, base - 15, base - 1,
                                base, base + 1, base + 15, base + 16,
                                base + 17}) {
      for (const std::size_t align : {std::size_t{0}, std::size_t{1},
                                      std::size_t{8}, std::size_t{15}}) {
        const std::byte* p = buf.data() + align;
        const std::uint32_t want = crc32_bytewise(p, n);
        for (const SimdLevel level : supported_levels()) {
          ASSERT_EQ(simd::kernels_for(level).crc32(p, n), want)
              << "level=" << simd::to_string(level) << " n=" << n
              << " align=" << align;
        }
      }
    }
  }
}

TEST(SimdCrc32, MatchesBytewiseOnAMebibyteAtTwoAlignments) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  const auto buf = random_bytes(kBytes + 16, 37);
  for (const std::size_t align : {std::size_t{0}, std::size_t{13}}) {
    const std::byte* p = buf.data() + align;
    const std::uint32_t want = crc32_bytewise(p, kBytes + 3);
    for (const SimdLevel level : supported_levels()) {
      EXPECT_EQ(simd::kernels_for(level).crc32(p, kBytes + 3), want)
          << "level=" << simd::to_string(level) << " align=" << align;
    }
  }
}

/// Flips the process-wide dispatch level for one scope.
class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel level) : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(prev_); }

 private:
  SimdLevel prev_;
};

TEST(SimdCodec, TrleEncodeBytesIdenticalAcrossLevels) {
  const auto codec = compress::make_codec("trle");
  for (int w : {31, 32, 64, 97}) {
    for (int cls = 0; cls < kPixelClasses; ++cls) {
      const auto side = static_cast<std::size_t>(w);
      const auto px = make_pixels(cls, side * side, 77u * u32(cls));
      // Span starting mid-image exercises the boundary-row-pair path.
      for (std::int64_t begin : {std::int64_t{0}, std::int64_t{w + 3}}) {
        const compress::BlockGeometry geom{w, begin};
        std::vector<std::byte> want;
        {
          ScopedLevel scoped(SimdLevel::kScalar);
          want = codec->encode(px, geom);
        }
        for (const SimdLevel level : supported_levels()) {
          ScopedLevel scoped(level);
          const auto got = codec->encode(px, geom);
          ASSERT_EQ(got, want)
              << "level=" << simd::to_string(level) << " w=" << w
              << " class=" << cls << " begin=" << begin;
        }
      }
    }
  }
}

TEST(SimdCodec, TrleDecodeBlendImageIdenticalAcrossLevels) {
  const auto codec = compress::make_codec("trle");
  for (int w : {31, 32, 97}) {
    for (int cls = 0; cls < kPixelClasses; ++cls) {
      const std::size_t n =
          static_cast<std::size_t>(w) * static_cast<std::size_t>(w);
      const auto px = make_pixels(cls, n, 3u * u32(cls) + 1);
      const auto dst0 = make_pixels((cls + 3) % kPixelClasses, n, 9u);
      const compress::BlockGeometry geom{w, 0};
      const auto bytes = codec->encode(px, geom);
      for (img::BlendMode mode :
           {img::BlendMode::kOver, img::BlendMode::kMax}) {
        for (bool front : {false, true}) {
          std::vector<GrayA8> want;
          {
            ScopedLevel scoped(SimdLevel::kScalar);
            want = dst0;
            std::vector<GrayA8> scratch;
            codec->decode_blend(bytes, want, geom, mode, front, scratch);
          }
          for (const SimdLevel level : supported_levels()) {
            ScopedLevel scoped(level);
            auto got = dst0;
            std::vector<GrayA8> scratch;
            codec->decode_blend(bytes, got, geom, mode, front, scratch);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     n * sizeof(GrayA8)))
                << "level=" << simd::to_string(level) << " w=" << w
                << " class=" << cls << " mode=" << static_cast<int>(mode)
                << " front=" << front;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rtc
