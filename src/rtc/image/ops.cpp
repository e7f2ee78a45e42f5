#include "rtc/image/ops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <thread>
#include <vector>

#include "rtc/common/check.hpp"
#include "rtc/common/flags.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc::img {

void over_in_place_front(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().over_front(dst.data(), src.data(), dst.size());
}

void over_in_place_back(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().over_back(dst.data(), src.data(), dst.size());
}

void max_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().max_blend(dst.data(), src.data(), dst.size());
}

void blend_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src,
                    BlendMode mode, bool src_front) {
  switch (mode) {
    case BlendMode::kOver:
      if (src_front) {
        over_in_place_front(dst, src);
      } else {
        over_in_place_back(dst, src);
      }
      break;
    case BlendMode::kMax:
      max_in_place(dst, src);
      break;
  }
}

namespace {

/// Spans below this stay sequential: thread startup costs more than
/// the blend itself.
constexpr std::int64_t kMinParallelPixels = std::int64_t{1} << 16;

int initial_blend_threads() {
  if (const char* env = std::getenv("RTC_BLEND_THREADS");
      env != nullptr && env[0] != '\0') {
    if (const auto parsed = flags::parse_int(env);
        parsed && *parsed >= 1 && *parsed <= 1024) {
      return static_cast<int>(*parsed);
    }
  }
  return 1;
}

std::atomic<int>& blend_threads_slot() {
  static std::atomic<int> slot{initial_blend_threads()};
  return slot;
}

}  // namespace

int blend_threads() {
  return blend_threads_slot().load(std::memory_order_relaxed);
}

void set_blend_threads(int n) {
  blend_threads_slot().store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

void blend_in_place_tiled(std::span<GrayA8> dst,
                          std::span<const GrayA8> src, BlendMode mode,
                          bool src_front) {
  RTC_CHECK(dst.size() == src.size());
  const std::int64_t n = static_cast<std::int64_t>(dst.size());
  const int threads =
      static_cast<int>(std::min<std::int64_t>(blend_threads(),
                                              n / kMinParallelPixels + 1));
  if (threads <= 1 || n < kMinParallelPixels) {
    blend_in_place(dst, src, mode, src_front);
    return;
  }
  const std::int64_t tile = (n + threads - 1) / threads;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) {
    const std::int64_t begin = t * tile;
    const std::int64_t end = std::min<std::int64_t>(begin + tile, n);
    if (begin >= end) break;
    pool.emplace_back([=] {
      blend_in_place(dst.subspan(static_cast<std::size_t>(begin),
                                 static_cast<std::size_t>(end - begin)),
                     src.subspan(static_cast<std::size_t>(begin),
                                 static_cast<std::size_t>(end - begin)),
                     mode, src_front);
    });
  }
  blend_in_place(dst.first(static_cast<std::size_t>(std::min(tile, n))),
                 src.first(static_cast<std::size_t>(std::min(tile, n))),
                 mode, src_front);
  for (std::thread& th : pool) th.join();
}

ApproxBlendStats blend_in_place_approx(std::span<GrayA8> dst,
                                       std::span<const GrayA8> src,
                                       bool src_front, int saturation) {
  RTC_CHECK(dst.size() == src.size());
  if (saturation <= 0) {
    blend_in_place(dst, src, BlendMode::kOver, src_front);
    return {static_cast<std::int64_t>(dst.size()), 0};
  }
  const auto sat = static_cast<std::uint8_t>(std::min(saturation, 255));
  ApproxBlendStats stats;
  if (src_front) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (src[i].a >= sat) {
        dst[i] = src[i];
        ++stats.skipped;
      } else {
        dst[i] = over(src[i], dst[i]);
        ++stats.blended;
      }
    }
  } else {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (dst[i].a >= sat) {
        ++stats.skipped;
      } else {
        dst[i] = over(dst[i], src[i]);
        ++stats.blended;
      }
    }
  }
  return stats;
}

ColumnRange non_blank_columns(const Image& im, int y0, int y1) {
  RTC_CHECK(0 <= y0 && y0 <= y1 && y1 <= im.height());
  const int w = im.width();
  if (w == 0) return {};
  // One occupancy word per 64 pixels of a row; thread_local keeps the
  // capacity across calls.
  static thread_local std::vector<std::uint64_t> bits;
  bits.resize(static_cast<std::size_t>((w + 63) / 64));
  const simd::Kernels& k = simd::kernels();
  int lo = w;
  int hi = 0;
  for (int y = y0; y < y1; ++y) {
    k.blank_mask(&im.at(0, y), static_cast<std::size_t>(w), bits.data());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] == 0) continue;
      lo = std::min(lo, static_cast<int>(i) * 64 + std::countr_zero(bits[i]));
      break;
    }
    for (std::size_t i = bits.size(); i-- > 0;) {
      if (bits[i] == 0) continue;
      hi = std::max(hi, static_cast<int>(i) * 64 + 64 -
                            std::countl_zero(bits[i]));
      break;
    }
  }
  return lo < hi ? ColumnRange{lo, hi} : ColumnRange{};
}

Image downsample(const Image& src, int factor) {
  RTC_CHECK(factor >= 1);
  const int w = src.width();
  const int h = src.height();
  const int cw = (w + factor - 1) / factor;
  const int ch = (h + factor - 1) / factor;
  Image out(cw, ch);
  std::vector<std::uint32_t> sv(static_cast<std::size_t>(cw));
  std::vector<std::uint32_t> sa(static_cast<std::size_t>(cw));
  for (int cy = 0; cy < ch; ++cy) {
    const int y0 = cy * factor;
    const int y1 = std::min(h, y0 + factor);
    const ColumnRange cols = non_blank_columns(src, y0, y1);
    if (cols.empty()) continue;  // the band's cells stay blank
    const int c0 = cols.begin / factor;
    const int c1 = (cols.end - 1) / factor + 1;
    std::fill(sv.begin() + c0, sv.begin() + c1, 0u);
    std::fill(sa.begin() + c0, sa.begin() + c1, 0u);
    for (int y = y0; y < y1; ++y) {
      const GrayA8* row = &src.at(0, y);
      for (int c = c0; c < c1; ++c) {
        const int x1 = std::min(w, (c + 1) * factor);
        std::uint32_t v = 0, a = 0;
        for (int x = c * factor; x < x1; ++x) {
          v += row[x].v;
          a += row[x].a;
        }
        sv[static_cast<std::size_t>(c)] += v;
        sa[static_cast<std::size_t>(c)] += a;
      }
    }
    for (int c = c0; c < c1; ++c) {
      const int cell_w = std::min(w, (c + 1) * factor) - c * factor;
      const auto n = static_cast<std::uint32_t>(cell_w * (y1 - y0));
      const auto i = static_cast<std::size_t>(c);
      out.at(c, cy) = GrayA8{static_cast<std::uint8_t>((sv[i] + n / 2) / n),
                             static_cast<std::uint8_t>((sa[i] + n / 2) / n)};
    }
  }
  return out;
}

Image upsample(const Image& coarse, int factor, int width, int height) {
  RTC_CHECK(factor >= 1);
  RTC_CHECK(coarse.width() == (width + factor - 1) / factor &&
            coarse.height() == (height + factor - 1) / factor);
  Image out(width, height);
  if (width == 0) return out;
  for (int cy = 0; cy < coarse.height(); ++cy) {
    const int y0 = cy * factor;
    const int y1 = std::min(height, y0 + factor);
    GrayA8* first = &out.at(0, y0);
    for (int cx = 0; cx < coarse.width(); ++cx) {
      const int x0 = cx * factor;
      std::fill(first + x0, first + std::min(width, x0 + factor),
                coarse.at(cx, cy));
    }
    for (int y = y0 + 1; y < y1; ++y)
      std::copy(first, first + width, &out.at(0, y));
  }
  return out;
}

std::int64_t count_non_blank(std::span<const GrayA8> px) {
  if (px.empty()) return 0;
  return simd::kernels().count_non_blank(px.data(), px.size());
}

int max_channel_diff(std::span<const GrayA8> a, std::span<const GrayA8> b) {
  RTC_CHECK(a.size() == b.size());
  int worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(int{a[i].v} - int{b[i].v}));
    worst = std::max(worst, std::abs(int{a[i].a} - int{b[i].a}));
  }
  return worst;
}

int max_channel_diff(const Image& a, const Image& b) {
  RTC_CHECK(a.width() == b.width() && a.height() == b.height());
  return max_channel_diff(a.pixels(), b.pixels());
}

Image composite_reference(std::span<const Image> parts, BlendMode mode) {
  RTC_CHECK(!parts.empty());
  Image out = parts[0];
  for (std::size_t r = 1; r < parts.size(); ++r) {
    RTC_CHECK(parts[r].width() == out.width() &&
              parts[r].height() == out.height());
    blend_in_place_tiled(out.pixels(), parts[r].pixels(), mode,
                         /*src_front=*/false);
  }
  return out;
}

}  // namespace rtc::img
