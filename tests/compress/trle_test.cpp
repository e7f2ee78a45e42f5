// TRLE-specific behavior: the Section 3 code format, the Figure 4
// worked example, the bulk decode against a per-cell reference, and the
// fused approximate decode-blend against decode plus the approx blend.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>

#include "rtc/common/wire.hpp"
#include "rtc/compress/cells.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"

namespace rtc::compress {
namespace {

std::uint32_t code_count(const std::vector<std::byte>& stream) {
  std::uint32_t n = 0;
  for (int s = 0; s < 4; ++s)
    n |= static_cast<std::uint32_t>(stream[static_cast<std::size_t>(s)])
         << (8 * s);
  return n;
}

std::uint8_t code_at(const std::vector<std::byte>& stream, std::size_t i) {
  return static_cast<std::uint8_t>(stream[4 + i]);
}

TEST(Trle, OneCodeCoversSixteenIdenticalCells) {
  // 32x2 pixels = 16 cells of 2x2, all blank -> exactly one code byte
  // with template 0 and replication count 16 (stored as 15).
  img::Image im(32, 2);
  const BlockGeometry geom{32, 0};
  const auto bytes = make_codec("trle")->encode(im.pixels(), geom);
  ASSERT_EQ(code_count(bytes), 1u);
  EXPECT_EQ(code_at(bytes, 0), 0xF0);  // run 16, template 0000
  EXPECT_EQ(bytes.size(), 5u);         // header + 1 code, no payload
}

TEST(Trle, SeventeenCellsNeedTwoCodes) {
  img::Image im(34, 2);  // 17 cells
  const BlockGeometry geom{34, 0};
  const auto bytes = make_codec("trle")->encode(im.pixels(), geom);
  ASSERT_EQ(code_count(bytes), 2u);
  EXPECT_EQ(code_at(bytes, 0), 0xF0);
  EXPECT_EQ(code_at(bytes, 1), 0x00);  // run 1, template 0000
}

TEST(Trle, TemplateBitsFollowFigure3Layout) {
  // One 2x2 cell; light up each position separately and check the
  // template nibble: bit0 = (x,y), bit1 = (x+1,y), bit2 = (x,y+1),
  // bit3 = (x+1,y+1).
  for (int b = 0; b < 4; ++b) {
    img::Image im(2, 2);
    const int x = b & 1, y = b >> 1;
    im.at(x, y) = img::GrayA8{100, 255};
    const BlockGeometry geom{2, 0};
    const auto bytes = make_codec("trle")->encode(im.pixels(), geom);
    ASSERT_EQ(code_count(bytes), 1u);
    EXPECT_EQ(code_at(bytes, 0), 1u << b) << "position " << b;
  }
}

TEST(Trle, PayloadHoldsOnlyNonBlankPixels) {
  img::Image im(4, 2);  // two cells
  im.at(0, 0) = img::GrayA8{10, 200};
  im.at(3, 1) = img::GrayA8{20, 210};
  const BlockGeometry geom{4, 0};
  const auto bytes = make_codec("trle")->encode(im.pixels(), geom);
  const std::uint32_t n = code_count(bytes);
  // Two different templates -> two codes; payload = 2 pixels * 2 bytes.
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(bytes.size(), 4u + n + 4u);
}

TEST(Trle, Figure4StyleExample) {
  // The spirit of Figure 4: two 24-pixel scanlines whose 2x2 occupancy
  // templates repeat compress to a handful of code bytes, far better
  // than per-pixel RLE when the gray values vary.
  img::Image im(24, 2);
  for (int x = 0; x < 24; ++x) {
    for (int y = 0; y < 2; ++y) {
      // Solid except two blank notches, values all distinct (gray).
      const bool blank = (x >= 6 && x < 8) || (x >= 14 && x < 16);
      if (!blank)
        im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(40 + 8 * x + y),
                                  255};
    }
  }
  const BlockGeometry geom{24, 0};
  const auto trle = make_codec("trle")->encode(im.pixels(), geom);
  const auto rle = make_codec("rle")->encode(im.pixels(), geom);
  const std::uint32_t codes = code_count(trle);
  EXPECT_LE(codes, 5u);  // runs of identical templates collapse
  // 40 solid pixels, all distinct values: RLE emits ~3 bytes each.
  EXPECT_GT(rle.size(), trle.size());
}

TEST(Trle, HandlesSpanStartingMidCell) {
  // Span begins on an odd row so every cell straddles the span edge.
  img::Image parent(8, 5);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 8; ++x)
      parent.at(x, y) =
          img::GrayA8{static_cast<std::uint8_t>(x * 8 + y), 255};
  const img::PixelSpan span{8, 8 * 4 + 3};  // rows 1..3 plus a stub
  const BlockGeometry geom{8, span.begin};
  const auto codec = make_codec("trle");
  const auto bytes = codec->encode(parent.view(span), geom);
  std::vector<img::GrayA8> out(static_cast<std::size_t>(span.size()));
  codec->decode(bytes, out, geom);
  const auto in = parent.view(span);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(Trle, EmptySpanEncodesToHeaderOnly) {
  const BlockGeometry geom{8, 0};
  const auto codec = make_codec("trle");
  const auto bytes = codec->encode({}, geom);
  EXPECT_EQ(bytes.size(), 4u);
  std::vector<img::GrayA8> out;
  codec->decode(bytes, out, geom);  // must not throw
}

/// The per-cell decode TRLE ran before its bulk paths: every cell of
/// the span in for_each_cell order, each in-span position either set
/// from the payload or cleared. The bulk decode must match it byte for
/// byte, and throw the same DecodeError::Kind on the same streams.
void reference_decode(std::span<const std::byte> bytes,
                      std::span<img::GrayA8> out, const BlockGeometry& geom) {
  using Kind = wire::DecodeError::Kind;
  wire::WireReader r(bytes);
  const std::uint32_t n_codes = r.u32("TRLE code count");
  const std::span<const std::byte> codes = r.bytes(n_codes, "TRLE codes");
  const std::span<const std::byte> payload = r.rest();
  std::size_t code_i = 0;
  int remaining = 0;
  unsigned tmpl = 0;
  std::size_t pay_i = 0;
  for_each_cell(static_cast<std::int64_t>(out.size()), geom.image_width,
                geom.span_begin, [&](const CellPixels& cell) {
    if (remaining == 0) {
      wire::require(code_i < codes.size(), Kind::kTruncated, "codes");
      const auto code = static_cast<unsigned>(codes[code_i++]);
      remaining = static_cast<int>(code >> 4) + 1;
      tmpl = code & 0xfu;
    }
    --remaining;
    for (int b = 0; b < 4; ++b) {
      const std::int64_t i = cell.index[b];
      if (i < 0) continue;
      img::GrayA8& px = out[static_cast<std::size_t>(i)];
      if (tmpl & (1u << b)) {
        wire::require(pay_i + 2 <= payload.size(), Kind::kTruncated,
                      "payload");
        px = img::GrayA8{static_cast<std::uint8_t>(payload[pay_i]),
                         static_cast<std::uint8_t>(payload[pay_i + 1])};
        pay_i += 2;
      } else {
        px = img::kBlank;
      }
    }
  });
  wire::require(remaining == 0 && code_i == codes.size(), Kind::kTrailing,
                "code overrun");
  wire::require(pay_i == payload.size(), Kind::kTrailing, "payload overrun");
}

/// An image built from runs of whole 2x2 cells in row-pair order, so
/// blank and full (0xF) runs cross row ends. Run lengths include 16 and
/// 17 cells (one code holds at most 16). Odd widths leave a half cell at
/// each row end, which only breaks runs.
img::Image run_image(int w, int h, std::uint32_t seed) {
  img::Image im(w, h);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> byte(1, 255);
  const int lengths[] = {1, 2, 3, 15, 16, 17, 18, 33};
  const auto solid = [&] {
    return img::GrayA8{static_cast<std::uint8_t>(byte(rng)),
                       static_cast<std::uint8_t>(byte(rng))};
  };
  const int cells_x = (w + 1) / 2;
  const int cells = cells_x * ((h + 1) / 2);
  for (int c = 0; c < cells;) {
    const int kind = static_cast<int>(rng() % 3);  // blank, full, mixed
    const int run = lengths[rng() % std::size(lengths)];
    for (int k = 0; k < run && c < cells; ++k, ++c) {
      const int cx = 2 * (c % cells_x);
      const int cy = 2 * (c / cells_x);
      for (int b = 0; b < 4; ++b) {
        const int x = cx + (b & 1);
        const int y = cy + (b >> 1);
        if (x >= w || y >= h) continue;
        const bool on = kind == 1 || (kind == 2 && rng() % 2 == 0);
        im.at(x, y) = on ? solid() : img::kBlank;
      }
    }
  }
  return im;
}

constexpr img::GrayA8 kPoison{7, 9};

TEST(Trle, BulkDecodeMatchesPerCellReference) {
  const auto codec = make_codec("trle");
  for (const int w : {1, 2, 3, 5, 16, 17, 64, 65, 513}) {
    const int h = 11;
    const std::int64_t n = std::int64_t{w} * h;
    for (std::uint32_t seed = 0; seed < 4; ++seed) {
      const img::Image im =
          run_image(w, h, 31u * static_cast<std::uint32_t>(w) + seed);
      // Starts on a cell boundary (even row, x = 0), mid-cell (odd x on
      // an even row) and on odd rows; lengths from one pixel to several
      // row pairs, clamped to the image.
      const std::int64_t starts[] = {0,
                                     2 * w,
                                     std::min<std::int64_t>(1, n - 1),
                                     2 * w + w / 2,
                                     w,
                                     3 * w + (w - 1)};
      const std::int64_t lengths[] = {1, 2, w - 1, w, w + 1, 2 * w,
                                      2 * w + 3, 4 * w - 1, 7 * w, n};
      for (const std::int64_t begin : starts) {
        for (const std::int64_t len : lengths) {
          const img::PixelSpan span{begin, std::min(n, begin + len)};
          if (span.size() <= 0) continue;
          const BlockGeometry geom{w, span.begin};
          const auto bytes = codec->encode(im.view(span), geom);
          std::vector<img::GrayA8> got(static_cast<std::size_t>(span.size()),
                                       kPoison);
          std::vector<img::GrayA8> want(got.size(), kPoison);
          codec->decode(bytes, got, geom);
          reference_decode(bytes, want, geom);
          ASSERT_EQ(got, want) << "w=" << w << " seed=" << seed
                               << " span=[" << span.begin << ", "
                               << span.end << ")";
          const std::span<const img::GrayA8> in = im.view(span);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), in.begin()))
              << "round trip, w=" << w << " span=[" << span.begin << ", "
              << span.end << ")";
        }
      }
    }
  }
}

/// The DecodeError kind `decode` throws on `bytes`, or nullopt.
template <typename Decode>
std::optional<wire::DecodeError::Kind> decode_error(Decode&& decode) {
  try {
    decode();
  } catch (const wire::DecodeError& e) {
    return e.kind();
  }
  return std::nullopt;
}

/// Damaged copies of the good stream `good`: truncated and trailing
/// codes and payload, a huge code count, and random code bytes (blank,
/// full and mixed runs of any length).
std::vector<std::vector<std::byte>> hostile_streams(
    const std::vector<std::byte>& good, std::mt19937& rng) {
  const std::uint32_t n_codes = code_count(good);
  const auto with_count = [](std::vector<std::byte> s, std::uint32_t c) {
    for (std::size_t b = 0; b < 4; ++b)
      s[b] = static_cast<std::byte>(c >> (8 * b));
    return s;
  };
  std::vector<std::vector<std::byte>> hostile;
  // Truncated codes: the count promises more codes than remain.
  hostile.emplace_back(good.begin(), good.begin() + 4 + n_codes / 2);
  hostile.push_back(with_count(good, n_codes - 1));  // codes run short
  // Truncated payload: cut 2, 1 and every payload byte.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{2},
                                good.size() - 4 - n_codes})
    hostile.emplace_back(good.begin(),
                         good.end() - static_cast<std::ptrdiff_t>(cut));
  // Trailing codes and trailing payload.
  {
    std::vector<std::byte> s = with_count(good, n_codes + 1);
    s.insert(s.begin() + 4 + n_codes, std::byte{0x0f});
    hostile.push_back(std::move(s));
    std::vector<std::byte> t = good;
    t.push_back(std::byte{1});
    t.push_back(std::byte{2});
    hostile.push_back(std::move(t));
  }
  hostile.push_back(with_count(good, 0xffffffffu));  // huge count
  for (int k = 0; k < 40; ++k) {
    std::vector<std::byte> s = good;
    const std::size_t at = 4 + rng() % std::max<std::uint32_t>(n_codes, 1);
    s[at] = static_cast<std::byte>(rng() & 0xffu);
    hostile.push_back(std::move(s));
  }
  return hostile;
}

TEST(Trle, BulkDecodeRejectsHostileStreamsLikeTheReference) {
  const auto codec = make_codec("trle");
  std::mt19937 rng(77);
  int rejected = 0;
  for (const int w : {3, 16, 17, 65}) {
    const img::Image im = run_image(w, 9, 5u + static_cast<std::uint32_t>(w));
    const std::int64_t n = im.pixel_count();
    for (const img::PixelSpan span :
         {img::PixelSpan{0, n}, img::PixelSpan{w + 1, n - 2}}) {
      const BlockGeometry geom{w, span.begin};
      const std::vector<std::byte> good = codec->encode(im.view(span), geom);
      for (const std::vector<std::byte>& s : hostile_streams(good, rng)) {
        std::vector<img::GrayA8> got(static_cast<std::size_t>(span.size()),
                                     kPoison);
        std::vector<img::GrayA8> want(got.size(), kPoison);
        const auto got_kind =
            decode_error([&] { codec->decode(s, got, geom); });
        const auto want_kind =
            decode_error([&] { reference_decode(s, want, geom); });
        ASSERT_EQ(got_kind, want_kind) << "w=" << w << " size=" << s.size();
        if (!want_kind) {
          EXPECT_EQ(got, want) << "w=" << w;
        } else {
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(rejected, 40);  // the mutations above mostly break the stream
}

/// A destination for the approx blend: run_image content with a third
/// of its non-blank pixels forced opaque, so saturated pixels, blank
/// ones and translucent ones all sit under every kind of TRLE run.
img::Image approx_dst(int w, int h, std::uint32_t seed) {
  img::Image im = run_image(w, h, seed);
  std::mt19937 rng(seed);
  for (img::GrayA8& p : im.pixels())
    if (!img::is_blank(p) && rng() % 3 == 0) p.a = 255;
  return im;
}

TEST(Trle, FusedApproxMatchesDecodeThenApproxBlend) {
  // decode_blend_approx walks the stream once; it must leave the same
  // pixels and report the same blended/skipped counts as decoding into
  // scratch and running img::blend_in_place_approx, on every kind of
  // run, span start and length, in both depth orders and at every
  // saturation (0 is the exact blend with nothing skipped).
  const auto codec = make_codec("trle");
  for (const int w : {1, 2, 3, 5, 16, 17, 64, 65, 513}) {
    const int h = 11;
    const std::int64_t n = std::int64_t{w} * h;
    const auto seed = 57u * static_cast<std::uint32_t>(w);
    const img::Image src = run_image(w, h, seed);
    const img::Image base = approx_dst(w, h, seed + 1);
    const std::int64_t starts[] = {0,
                                   2 * w,
                                   std::min<std::int64_t>(1, n - 1),
                                   2 * w + w / 2,
                                   w,
                                   3 * w + (w - 1)};
    const std::int64_t lengths[] = {1, 2, w - 1, w, w + 1, 2 * w,
                                    2 * w + 3, 4 * w - 1, 7 * w, n};
    for (const std::int64_t begin : starts) {
      for (const std::int64_t len : lengths) {
        const img::PixelSpan span{begin, std::min(n, begin + len)};
        if (span.size() <= 0) continue;
        const BlockGeometry geom{w, span.begin};
        const auto bytes = codec->encode(src.view(span), geom);
        std::vector<img::GrayA8> scratch;
        for (const bool front : {false, true}) {
          for (const int sat : {0, 128, 200, 240, 255}) {
            const std::span<const img::GrayA8> d0 = base.view(span);
            std::vector<img::GrayA8> want(d0.begin(), d0.end());
            std::vector<img::GrayA8> got = want;
            std::vector<img::GrayA8> decoded(want.size());
            codec->decode(bytes, decoded, geom);
            const img::ApproxBlendStats ws =
                img::blend_in_place_approx(want, decoded, front, sat);
            const img::ApproxBlendStats gs = codec->decode_blend_approx(
                bytes, got, geom, front, sat, scratch);
            ASSERT_EQ(got, want) << "w=" << w << " span=[" << span.begin
                                 << ", " << span.end << ") front=" << front
                                 << " sat=" << sat;
            ASSERT_EQ(gs.blended, ws.blended) << "w=" << w << " sat=" << sat;
            ASSERT_EQ(gs.skipped, ws.skipped) << "w=" << w << " sat=" << sat;
          }
        }
      }
    }
  }
}

TEST(Trle, FusedApproxRejectsHostileStreamsLikeDecode) {
  const auto codec = make_codec("trle");
  std::mt19937 rng(78);
  int rejected = 0;
  for (const int w : {3, 16, 17, 65}) {
    const img::Image im = run_image(w, 9, 7u + static_cast<std::uint32_t>(w));
    const img::Image dst = approx_dst(w, 9, 8u + static_cast<std::uint32_t>(w));
    const std::int64_t n = im.pixel_count();
    for (const img::PixelSpan span :
         {img::PixelSpan{0, n}, img::PixelSpan{w + 1, n - 2}}) {
      const BlockGeometry geom{w, span.begin};
      const std::vector<std::byte> good = codec->encode(im.view(span), geom);
      for (const std::vector<std::byte>& s : hostile_streams(good, rng)) {
        for (const bool front : {false, true}) {
          const std::span<const img::GrayA8> d0 = dst.view(span);
          std::vector<img::GrayA8> want(d0.begin(), d0.end());
          std::vector<img::GrayA8> got = want;
          std::vector<img::GrayA8> scratch;
          img::ApproxBlendStats ws;
          const auto want_kind = decode_error([&] {
            std::vector<img::GrayA8> decoded(want.size());
            codec->decode(s, decoded, geom);
            ws = img::blend_in_place_approx(want, decoded, front, 240);
          });
          img::ApproxBlendStats gs;
          const auto got_kind = decode_error([&] {
            gs = codec->decode_blend_approx(s, got, geom, front, 240,
                                            scratch);
          });
          ASSERT_EQ(got_kind, want_kind) << "w=" << w << " size=" << s.size();
          if (want_kind) {
            ++rejected;
            continue;
          }
          EXPECT_EQ(got, want) << "w=" << w;
          EXPECT_EQ(gs.skipped, ws.skipped) << "w=" << w;
          EXPECT_EQ(gs.blended, ws.blended) << "w=" << w;
        }
      }
    }
  }
  EXPECT_GT(rejected, 80);
}

}  // namespace
}  // namespace rtc::compress
