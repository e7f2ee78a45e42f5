// Bulk pixel operations on spans (the image-composition hot path).
#pragma once

#include <cstdint>
#include <span>

#include "rtc/image/image.hpp"
#include "rtc/image/pixel.hpp"

namespace rtc::img {

/// How two partial-image pixels merge.
enum class BlendMode {
  kOver,  ///< Porter-Duff over: order-sensitive, for translucent data
  kMax    ///< maximum-intensity projection: commutative
};

/// Composites `src` over `dst` in place: dst = src OVER dst.
/// Used when the incoming partial image is in front of the local one.
void over_in_place_front(std::span<GrayA8> dst, std::span<const GrayA8> src);

/// Composites `dst` over `src` in place: dst = dst OVER src.
/// Used when the incoming partial image is behind the local one.
void over_in_place_back(std::span<GrayA8> dst, std::span<const GrayA8> src);

/// Per-channel max in place (MIP merge; order irrelevant).
void max_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src);

/// Mode-dispatched merge: folds `src` into `dst`; for kOver,
/// `src_front` says whether `src` is in front of `dst` in depth order.
void blend_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src,
                    BlendMode mode, bool src_front);

/// Threads used by blend_in_place_tiled. Process-wide; initialized
/// from the RTC_BLEND_THREADS environment variable, default 1
/// (sequential). Values < 1 clamp to 1.
[[nodiscard]] int blend_threads();
void set_blend_threads(int n);

/// Tile-parallel blend for the root/owner-side merges that fold whole
/// partial images (the final gather/reference composite, not the
/// per-rank block blends inside a simulated composition). Splits the
/// span into blend_threads() contiguous tiles blended concurrently;
/// each pixel is touched by exactly one thread, so the result is
/// byte-identical to blend_in_place at any thread count. Falls back to
/// the sequential path for small spans or blend_threads() == 1.
void blend_in_place_tiled(std::span<GrayA8> dst,
                          std::span<const GrayA8> src, BlendMode mode,
                          bool src_front);

/// Outcome of an approximate blend: how many pixels were actually
/// blended versus skipped by opacity-saturation early termination.
struct ApproxBlendStats {
  std::int64_t blended = 0;
  std::int64_t skipped = 0;
};

/// Approximate "over" with opacity-saturation early termination
/// (quality ladder's kApprox rung). Pixels whose front side is already
/// >= `saturation` opaque skip the occluded contribution:
///   src behind dst: keep dst unchanged (drops <= 255 - dst.a);
///   src in front:   copy src over dst (drops <= 255 - src.a).
/// Either way the per-pixel, per-channel error versus the exact blend
/// is <= 255 - saturation. saturation <= 0 degenerates to the exact
/// blend (everything counted as blended). Deterministic scalar path —
/// skips depend only on pixel data, so results are replayable.
ApproxBlendStats blend_in_place_approx(std::span<GrayA8> dst,
                                       std::span<const GrayA8> src,
                                       bool src_front, int saturation);

/// Half-open column range [begin, end) holding every non-blank pixel
/// of rows [y0, y1) of an image; empty when those rows are all blank.
struct ColumnRange {
  int begin = 0;
  int end = 0;

  [[nodiscard]] bool empty() const { return end <= begin; }
};

/// The non-blank columns of rows [y0, y1) of `im`, classified with the
/// dispatched blank-mask kernel. The progressive rung walks its
/// partials in bands of coarse-cell rows and visits only the cells
/// this range overlaps: every other cell of the band is blank.
[[nodiscard]] ColumnRange non_blank_columns(const Image& im, int y0, int y1);

/// Box-downsample by `factor` with round-to-nearest averaging
/// (quality ladder's progressive coarse pass). Output dimensions are
/// ceil(w/factor) x ceil(h/factor); edge cells average their partial
/// footprint. An all-blank cell averages to blank, so only cells that
/// overlap a band's non-blank columns are summed.
[[nodiscard]] Image downsample(const Image& src, int factor);

/// Nearest-neighbour upsample of a coarse image back to
/// `width` x `height`: every full-resolution pixel takes its covering
/// coarse cell's value. Inverse companion of downsample's geometry.
/// Builds the first row of each band of `factor` rows and copies it to
/// the rest.
[[nodiscard]] Image upsample(const Image& coarse, int factor, int width,
                             int height);

/// Number of non-blank pixels in a span.
[[nodiscard]] std::int64_t count_non_blank(std::span<const GrayA8> px);

/// Largest per-channel absolute difference between two equal-size spans.
[[nodiscard]] int max_channel_diff(std::span<const GrayA8> a,
                                   std::span<const GrayA8> b);

/// Largest per-channel absolute difference between two images
/// (they must have identical dimensions).
[[nodiscard]] int max_channel_diff(const Image& a, const Image& b);

/// Sequential front-to-back reference composition of `parts`
/// (parts[0] is front-most). All parts must share dimensions.
[[nodiscard]] Image composite_reference(std::span<const Image> parts,
                                        BlendMode mode = BlendMode::kOver);

}  // namespace rtc::img
