// Codec interface for compressing pixel blocks on the wire.
//
// Composition methods transmit blocks that are contiguous ranges of a
// row-major image. A codec sees the pixels plus enough geometry
// (image width, span start) to recover each pixel's (x, y), which the
// TRLE codec needs for its 2x2 templates.
//
// Trust boundary: `decode`/`decode_blend` consume bytes that arrived
// over the wire. CRC framing upstream catches random damage, but not
// collisions or hostile peers, so every decoder validates lengths,
// counts, and coordinates against the receiver's own geometry and
// rejects malformed streams with wire::DecodeError — never with
// out-of-bounds access or unbounded work.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rtc/image/image.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/pixel.hpp"

namespace rtc::compress {

/// Geometry of a transmitted block within its parent image.
struct BlockGeometry {
  int image_width = 0;         ///< parent image width in pixels
  std::int64_t span_begin = 0; ///< flattened index of the first pixel

  [[nodiscard]] int x_of(std::int64_t i) const {
    return static_cast<int>((span_begin + i) % image_width);
  }
  [[nodiscard]] int y_of(std::int64_t i) const {
    return static_cast<int>((span_begin + i) / image_width);
  }
};

class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Appends the encoding of `px` to `out` (no clear), reusing the
  /// buffer's capacity — the allocation-free hot path.
  virtual void encode_into(std::span<const img::GrayA8> px,
                           const BlockGeometry& geom,
                           std::vector<std::byte>& out) const = 0;

  /// Convenience wrapper around encode_into for cold paths.
  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const img::GrayA8> px, const BlockGeometry& geom) const;

  /// Decodes exactly `out.size()` pixels (the receiver knows the block
  /// geometry, as in the paper: block id -> pixel range is arithmetic).
  /// Throws wire::DecodeError on malformed input.
  virtual void decode(std::span<const std::byte> bytes,
                      std::span<img::GrayA8> out,
                      const BlockGeometry& geom) const = 0;

  /// Fused decode-and-blend: composites the encoded block directly
  /// into `dst` (`dst.size()` pixels at `geom`), equivalent to
  /// decoding into a scratch block and calling img::blend_in_place
  /// with the same `mode`/`src_front` — bit-identical, including the
  /// full malformed-stream validation of `decode`. Codecs that encode
  /// blank structure (TRLE, RLE) override this to skip blank runs
  /// entirely: blank is the identity under both `over` and `max`, so
  /// only the non-blank payload touches `dst`. The base implementation
  /// decodes into `scratch` (resized as needed, capacity reused).
  virtual void decode_blend(std::span<const std::byte> bytes,
                            std::span<img::GrayA8> dst,
                            const BlockGeometry& geom,
                            img::BlendMode mode, bool src_front,
                            std::vector<img::GrayA8>& scratch) const;

  /// Approximate fused decode-and-blend (the quality ladder's kApprox
  /// rung, `over` only): equivalent to decoding into a scratch block
  /// and calling img::blend_in_place_approx(dst, scratch, src_front,
  /// saturation) — the same image and the same blended/skipped counts,
  /// with the full validation of `decode`. TRLE overrides it to walk
  /// its stream once: payload pixels apply the saturation rule, and a
  /// blank position is the identity, counted as skipped exactly where
  /// the skip rule would fire (src behind a saturated `dst`). The base
  /// implementation decodes into `scratch`, then blends.
  virtual img::ApproxBlendStats decode_blend_approx(
      std::span<const std::byte> bytes, std::span<img::GrayA8> dst,
      const BlockGeometry& geom, bool src_front, int saturation,
      std::vector<img::GrayA8>& scratch) const;
};

/// No compression: 2 bytes per pixel.
[[nodiscard]] std::unique_ptr<Codec> make_raw_codec();

/// Classic run-length encoding over identical (value, alpha) pixels.
[[nodiscard]] std::unique_ptr<Codec> make_rle_codec();

/// The paper's template run-length encoding (Section 3).
[[nodiscard]] std::unique_ptr<Codec> make_trle_codec();

/// Bounding window along the flattened span: trims leading/trailing
/// blank pixels (a 1-D simplification of Ma et al.).
[[nodiscard]] std::unique_ptr<Codec> make_bbox_codec();

/// Ma et al.'s actual 2-D bounding rectangle of non-blank pixels.
[[nodiscard]] std::unique_ptr<Codec> make_bbox2d_codec();

/// Factory by name ("raw", "rle", "trle", "bbox", "bbox2d"); throws on
/// unknown names.
[[nodiscard]] std::unique_ptr<Codec> make_codec(const std::string& name);

}  // namespace rtc::compress
