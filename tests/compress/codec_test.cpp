// Round-trip and compression-ratio properties for all codecs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"
#include "testutil.hpp"

namespace rtc::compress {
namespace {

using CodecCase =
    std::tuple<std::string /*codec*/, int /*width*/,
               std::int64_t /*span_begin*/, std::int64_t /*span_len*/,
               double /*blank_ratio*/>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, DecodeRecoversEncodeExactly) {
  const auto [name, width, begin, len, blank] = GetParam();
  const std::unique_ptr<Codec> codec = make_codec(name);
  // Build a parent image tall enough to contain the span.
  const int height =
      static_cast<int>((begin + len + width - 1) / width) + 2;
  const img::Image parent = test::random_image(
      width, height, 99u + static_cast<std::uint32_t>(begin), blank);
  const img::PixelSpan span{begin, begin + len};
  const BlockGeometry geom{width, span.begin};

  const std::vector<std::byte> bytes =
      codec->encode(parent.view(span), geom);
  std::vector<img::GrayA8> out(static_cast<std::size_t>(len));
  codec->decode(bytes, out, geom);

  const auto in = parent.view(span);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], in[i]);
}

TEST_P(CodecRoundTrip, DecodeBlendMatchesDecodeThenBlend) {
  // The fused path must be bit-identical to decode-into-scratch +
  // blend_in_place, for every mode, over the same geometry grid
  // (odd widths, mid-cell span starts, empty blocks, blank ratios).
  const auto [name, width, begin, len, blank] = GetParam();
  const std::unique_ptr<Codec> codec = make_codec(name);
  const int height =
      static_cast<int>((begin + len + width - 1) / width) + 2;
  const img::Image parent = test::random_image(
      width, height, 123u + static_cast<std::uint32_t>(begin), blank);
  const img::PixelSpan span{begin, begin + len};
  const BlockGeometry geom{width, span.begin};
  const std::vector<std::byte> bytes =
      codec->encode(parent.view(span), geom);

  const img::Image base = test::random_image(
      width, height, 321u + static_cast<std::uint32_t>(begin), blank);
  std::vector<img::GrayA8> decoded(static_cast<std::size_t>(len));
  codec->decode(bytes, decoded, geom);

  for (const auto& [mode, front] :
       {std::pair{img::BlendMode::kOver, true},
        std::pair{img::BlendMode::kOver, false},
        std::pair{img::BlendMode::kMax, false}}) {
    std::vector<img::GrayA8> want(base.view(span).begin(),
                                  base.view(span).end());
    img::blend_in_place(want, decoded, mode, front);

    std::vector<img::GrayA8> got(base.view(span).begin(),
                                 base.view(span).end());
    std::vector<img::GrayA8> scratch;
    codec->decode_blend(bytes, got, geom, mode, front, scratch);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Combine(
        ::testing::Values("raw", "rle", "trle", "bbox", "bbox2d"),
        ::testing::Values(16, 17, 64),             // even and odd widths
        ::testing::Values<std::int64_t>(0, 5, 33),  // unaligned starts
        ::testing::Values<std::int64_t>(0, 1, 7, 256, 1000),
        ::testing::Values(0.0, 0.5, 0.95)));

class CodecOnBanded : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecOnBanded, RoundTripAndNoWorseThanRawPlusHeader) {
  const std::unique_ptr<Codec> codec = make_codec(GetParam());
  const img::Image im = test::banded_image(64, 64, 7);
  const BlockGeometry geom{64, 0};
  const auto bytes = codec->encode(im.pixels(), geom);
  std::vector<img::GrayA8> out(static_cast<std::size_t>(im.pixel_count()));
  codec->decode(bytes, out, geom);
  for (std::int64_t i = 0; i < im.pixel_count(); ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              im.pixels()[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecOnBanded,
                         ::testing::Values("raw", "rle", "trle", "bbox",
                                           "bbox2d"));

TEST(Codec, UnknownNameThrows) {
  EXPECT_THROW(make_codec("zip"), ContractError);
}

TEST(Codec, NamesRoundTrip) {
  for (const char* n : {"raw", "rle", "trle", "bbox"})
    EXPECT_EQ(make_codec(n)->name(), n);
}

TEST(Codec, FullyBlankBlockCompressesHard) {
  img::Image blank(64, 64);
  const BlockGeometry geom{64, 0};
  const std::size_t raw = img::serialize_pixels(blank.pixels()).size();
  // TRLE: one code byte per 16 cells of 2x2 -> 64 bytes + header.
  const auto trle = make_codec("trle")->encode(blank.pixels(), geom);
  EXPECT_LT(trle.size(), raw / 50);
  // RLE: one 3-byte run per 256 pixels.
  const auto rle = make_codec("rle")->encode(blank.pixels(), geom);
  EXPECT_LT(rle.size(), raw / 50);
  // BBox collapses to the 8-byte header.
  EXPECT_EQ(make_codec("bbox")->encode(blank.pixels(), geom).size(), 8u);
}

TEST(Codec, TrleBeatsRleOnVariedGrayImages) {
  // The paper's motivation: gray images have varied values, so value-
  // run RLE degenerates (3 bytes per 1-pixel run) while TRLE only needs
  // the occupancy structure to repeat.
  const img::Image im =
      test::random_image(128, 128, 3, /*blank_ratio=*/0.5);
  const BlockGeometry geom{128, 0};
  const auto rle = make_codec("rle")->encode(im.pixels(), geom);
  const auto trle = make_codec("trle")->encode(im.pixels(), geom);
  EXPECT_LT(trle.size(), rle.size());
}

TEST(Codec, TrleNeverMuchWorseThanRaw) {
  // Worst case (no blanks at all): codes add ~1 byte per 2x2 cell.
  const img::Image im =
      test::random_image(64, 64, 4, /*blank_ratio=*/0.0);
  const BlockGeometry geom{64, 0};
  const std::size_t raw = img::serialize_pixels(im.pixels()).size();
  const auto trle = make_codec("trle")->encode(im.pixels(), geom);
  EXPECT_LT(trle.size(), raw + raw / 4);
}

TEST(Codec, BboxTrimsLeadingAndTrailingBlanks) {
  img::Image im(32, 1);
  im.at(10, 0) = img::GrayA8{50, 255};
  im.at(20, 0) = img::GrayA8{60, 255};
  const BlockGeometry geom{32, 0};
  const auto bytes = make_codec("bbox")->encode(im.pixels(), geom);
  EXPECT_EQ(bytes.size(), 8u + 11u * img::kBytesPerPixel);
}

TEST(Codec, Bbox2dBoundsContentInBothAxes) {
  // Content confined to a 4x3 rectangle in the middle of a 64x16
  // block: the 1-D window spans the two full rows between the corners
  // (132 pixels), the 2-D rectangle ships only the 12.
  img::Image im(64, 16);
  for (int y = 6; y < 9; ++y)
    for (int x = 30; x < 34; ++x)
      im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(x + y), 255};
  const BlockGeometry geom{64, 0};
  const auto b2 = make_codec("bbox2d")->encode(im.pixels(), geom);
  EXPECT_EQ(b2.size(), 24u + 12u * img::kBytesPerPixel);
  const auto b1 = make_codec("bbox")->encode(im.pixels(), geom);
  EXPECT_GT(b1.size(), 5 * b2.size());
}

TEST(Codec, Bbox2dAllBlankIsHeaderOnly) {
  img::Image im(16, 4);
  const BlockGeometry geom{16, 0};
  EXPECT_EQ(make_codec("bbox2d")->encode(im.pixels(), geom).size(), 24u);
}

TEST(Codec, CorruptedStreamsThrowTypedDecodeError) {
  // Decoders sit on the wire and cannot trust the sender: malformed
  // input must surface as wire::DecodeError (a ContractError subtype
  // resilient callers can catch without masking local bugs).
  const img::Image im = test::banded_image(32, 8, 3);
  const BlockGeometry geom{32, 0};
  for (const char* name : {"raw", "rle", "trle", "bbox", "bbox2d"}) {
    const auto codec = make_codec(name);
    auto bytes = codec->encode(im.pixels(), geom);
    std::vector<img::GrayA8> out(
        static_cast<std::size_t>(im.pixel_count()));
    // Truncation.
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<long>(
                                                   bytes.size() / 2));
    EXPECT_THROW(codec->decode(cut, out, geom), wire::DecodeError)
        << name;
    // Trailing garbage.
    auto bloated = bytes;
    bloated.insert(bloated.end(), 64, std::byte{0x5a});
    EXPECT_THROW(codec->decode(bloated, out, geom), wire::DecodeError)
        << name;
    // Wrong output size.
    std::vector<img::GrayA8> small(out.size() / 2);
    EXPECT_THROW(codec->decode(bytes, small, geom), wire::DecodeError)
        << name;
  }
}

TEST(Codec, TrleHugeCodeCountRejectedNotWrapped) {
  // Regression: the legacy `4 + n_codes <= size` header check wrapped
  // for counts near UINT32_MAX, letting the code-block subspan run off
  // the buffer. The reader-based parse must reject it as truncation.
  const BlockGeometry geom{16, 0};
  std::vector<img::GrayA8> out(64);
  for (const std::uint32_t n :
       {0xffffffffu, 0xfffffffcu, 0xfffffffdu}) {
    std::vector<std::byte> bytes;
    wire::WireWriter w(bytes);
    w.u32(n);
    w.u8(0x0f);  // one plausible code byte
    try {
      make_codec("trle")->decode(bytes, out, geom);
      FAIL() << "count " << n << " accepted";
    } catch (const wire::DecodeError& e) {
      EXPECT_EQ(e.kind(), wire::DecodeError::Kind::kTruncated);
    }
  }
}

TEST(Codec, AllBlankAndAllOpaqueRoundTripEveryCodec) {
  for (const char* name : {"raw", "rle", "trle", "bbox", "bbox2d"}) {
    const auto codec = make_codec(name);
    for (const double blank : {0.0, 1.0}) {
      const img::Image im = test::random_image(17, 9, 77, blank);
      const BlockGeometry geom{17, 0};
      const auto bytes = codec->encode(im.pixels(), geom);
      std::vector<img::GrayA8> out(
          static_cast<std::size_t>(im.pixel_count()));
      codec->decode(bytes, out, geom);
      for (std::int64_t i = 0; i < im.pixel_count(); ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  im.pixels()[static_cast<std::size_t>(i)])
            << name << " blank=" << blank;
    }
  }
}

}  // namespace
}  // namespace rtc::compress
