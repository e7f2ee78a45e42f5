// Scalar kernel table, the slice-by-16 CRC, and the level -> table
// dispatch.
#include <array>

#include "rtc/simd/kernels.hpp"
#include "rtc/simd/scalar_impl.hpp"

namespace rtc::simd {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

/// t[0] is the bytewise table of the reflected polynomial 0xEDB88320;
/// t[k][b] is the register contribution of byte b followed by k zero
/// bytes, so one lookup per input byte covers a 16-byte stride.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t scalar::crc32_update(std::uint32_t crc, const std::byte* data,
                                   std::size_t n) {
  const CrcTables& t = kCrcTables;
  const auto at = [&](std::size_t i) {
    return std::to_integer<std::uint32_t>(data[i]);
  };
  for (; n >= 16; data += 16, n -= 16) {
    crc = t[15][(crc ^ at(0)) & 0xffu] ^ t[14][((crc >> 8) ^ at(1)) & 0xffu] ^
          t[13][((crc >> 16) ^ at(2)) & 0xffu] ^ t[12][(crc >> 24) ^ at(3)] ^
          t[11][at(4)] ^ t[10][at(5)] ^ t[9][at(6)] ^ t[8][at(7)] ^
          t[7][at(8)] ^ t[6][at(9)] ^ t[5][at(10)] ^ t[4][at(11)] ^
          t[3][at(12)] ^ t[2][at(13)] ^ t[1][at(14)] ^ t[0][at(15)];
  }
  for (std::size_t i = 0; i < n; ++i)
    crc = t[0][(crc ^ at(i)) & 0xffu] ^ (crc >> 8);
  return crc;
}

std::uint32_t scalar::crc32(const std::byte* data, std::size_t n) {
  return ~crc32_update(0xFFFFFFFFu, data, n);
}

namespace detail {

const Kernels& scalar_kernels() {
  static const Kernels k{
      scalar::over_front,      scalar::over_back,
      scalar::max_blend,       scalar::count_non_blank,
      scalar::blank_mask,      scalar::fused_cells_over_front,
      scalar::fused_cells_over_back, scalar::fused_cells_max,
      scalar::crc32,
  };
  return k;
}

}  // namespace detail

const Kernels& kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return detail::scalar_kernels();
    case SimdLevel::kSse2:
      return detail::sse2_kernels();
    case SimdLevel::kAvx2:
      return detail::avx2_kernels();
  }
  return detail::scalar_kernels();
}

}  // namespace rtc::simd
