// Portable scalar kernel bodies — the semantic reference every vector
// level must match byte-for-byte. Internal to src/rtc/simd/ (included
// by the per-level TUs for their tail loops); not installed API.
// The CRC bodies are defined out of line in kernels_scalar.cpp, so the
// AVX2 TU's tail calls run code built without -mavx2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rtc/image/pixel.hpp"

namespace rtc::simd::scalar {

inline void over_front(img::GrayA8* dst, const img::GrayA8* src,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = img::over(src[i], dst[i]);
}

inline void over_back(img::GrayA8* dst, const img::GrayA8* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = img::over(dst[i], src[i]);
}

inline void max_blend(img::GrayA8* dst, const img::GrayA8* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = img::max_blend(dst[i], src[i]);
}

inline std::int64_t count_non_blank(const img::GrayA8* px, std::size_t n) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    count += img::is_blank(px[i]) ? 0 : 1;
  return count;
}

inline void blank_mask(const img::GrayA8* px, std::size_t n,
                       std::uint64_t* bits) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) bits[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!img::is_blank(px[i]))
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
}

/// One full (template 0xF) cell from `pay` in template-bit order.
inline img::GrayA8 cell_px(const std::byte* pay, int b) {
  return img::GrayA8{static_cast<std::uint8_t>(pay[2 * b]),
                     static_cast<std::uint8_t>(pay[2 * b + 1])};
}

inline void fused_cells_over_front(img::GrayA8* row0, img::GrayA8* row1,
                                   const std::byte* pay, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c, pay += 8) {
    img::GrayA8* d0 = row0 + 2 * c;
    img::GrayA8* d1 = row1 + 2 * c;
    d0[0] = img::over(cell_px(pay, 0), d0[0]);
    d0[1] = img::over(cell_px(pay, 1), d0[1]);
    d1[0] = img::over(cell_px(pay, 2), d1[0]);
    d1[1] = img::over(cell_px(pay, 3), d1[1]);
  }
}

inline void fused_cells_over_back(img::GrayA8* row0, img::GrayA8* row1,
                                  const std::byte* pay, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c, pay += 8) {
    img::GrayA8* d0 = row0 + 2 * c;
    img::GrayA8* d1 = row1 + 2 * c;
    d0[0] = img::over(d0[0], cell_px(pay, 0));
    d0[1] = img::over(d0[1], cell_px(pay, 1));
    d1[0] = img::over(d1[0], cell_px(pay, 2));
    d1[1] = img::over(d1[1], cell_px(pay, 3));
  }
}

inline void fused_cells_max(img::GrayA8* row0, img::GrayA8* row1,
                            const std::byte* pay, std::size_t k) {
  for (std::size_t c = 0; c < k; ++c, pay += 8) {
    img::GrayA8* d0 = row0 + 2 * c;
    img::GrayA8* d1 = row1 + 2 * c;
    d0[0] = img::max_blend(d0[0], cell_px(pay, 0));
    d0[1] = img::max_blend(d0[1], cell_px(pay, 1));
    d1[0] = img::max_blend(d1[0], cell_px(pay, 2));
    d1[1] = img::max_blend(d1[1], cell_px(pay, 3));
  }
}

/// Advances a CRC-32 register (no preset, no final inversion) over n
/// bytes, sixteen at a time through slice-by-16 tables. Bytes are read
/// one by one, so the result does not depend on host byte order.
std::uint32_t crc32_update(std::uint32_t crc, const std::byte* data,
                           std::size_t n);

/// Kernels::crc32 at the scalar and sse2 levels:
/// ~crc32_update(0xFFFFFFFF, data, n).
std::uint32_t crc32(const std::byte* data, std::size_t n);

}  // namespace rtc::simd::scalar
