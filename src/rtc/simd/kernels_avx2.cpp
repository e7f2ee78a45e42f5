// AVX2 (256-bit) kernels: 16 pixels per iteration, plus the
// PCLMULQDQ wire checksum.
//
// This translation unit is compiled with -mavx2 -mpclmul (see
// CMakeLists.txt); nothing here may be called unless dispatch selected
// kAvx2, which requires both CPU bits. The pixel arithmetic is the SSE2
// scheme widened to 256 bits: unpack/pack and the 16-bit shuffles all
// operate per 128-bit lane, and because the unpack and pack lane
// splits mirror each other the byte order round-trips exactly.
#include "rtc/simd/kernels.hpp"
#include "rtc/simd/scalar_impl.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__) && \
    defined(__PCLMUL__) && !defined(RTC_SIMD_DISABLED)

#include <immintrin.h>

namespace rtc::simd {
namespace {

inline __m256i over16(__m256i f, __m256i b) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i c255 = _mm256_set1_epi16(255);
  const __m256i c128 = _mm256_set1_epi16(128);
  const __m256i lo_byte = _mm256_set1_epi16(0x00ff);
  const auto half = [&](__m256i f16, __m256i b16) {
    __m256i a = _mm256_shufflelo_epi16(f16, _MM_SHUFFLE(3, 3, 1, 1));
    a = _mm256_shufflehi_epi16(a, _MM_SHUFFLE(3, 3, 1, 1));
    const __m256i inv = _mm256_sub_epi16(c255, a);
    const __m256i t = _mm256_add_epi16(_mm256_mullo_epi16(b16, inv), c128);
    const __m256i r =
        _mm256_srli_epi16(_mm256_add_epi16(t, _mm256_srli_epi16(t, 8)), 8);
    return _mm256_and_si256(_mm256_add_epi16(f16, r), lo_byte);
  };
  return _mm256_packus_epi16(half(_mm256_unpacklo_epi8(f, zero),
                                  _mm256_unpacklo_epi8(b, zero)),
                             half(_mm256_unpackhi_epi8(f, zero),
                                  _mm256_unpackhi_epi8(b, zero)));
}

void over_front(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), over16(s, d));
  }
  scalar::over_front(dst + i, src + i, n - i);
}

void over_back(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), over16(d, s));
  }
  scalar::over_back(dst + i, src + i, n - i);
}

void max_blend(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(d, s));
  }
  scalar::max_blend(dst + i, src + i, n - i);
}

std::int64_t count_non_blank(const img::GrayA8* px, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px + i));
    const unsigned m = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(x, zero)));
    count += 16 - __builtin_popcount(m & (m >> 1) & 0x55555555u);
  }
  count += scalar::count_non_blank(px + i, n - i);
  return count;
}

/// Compacts the even bits of a 32-bit word into its low 16 bits
/// (Morton decode), for turning a 2-bits-per-pixel movemask into a
/// 1-bit-per-pixel occupancy word.
inline std::uint64_t compact_even_bits(std::uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  return x;
}

void blank_mask(const img::GrayA8* px, std::size_t n, std::uint64_t* bits) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) bits[w] = 0;
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px + i));
    const std::uint64_t m = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(x, zero)));
    const std::uint64_t blank = compact_even_bits(m & (m >> 1));
    const std::uint64_t non_blank = ~blank & 0xffffu;
    bits[i >> 6] |= non_blank << (i & 63);  // i % 64 in {0, 16, 32, 48}
  }
  for (; i < n; ++i) {
    if (!img::is_blank(px[i]))
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
}

/// Splits 4 cells (32 payload bytes) into [row0 8px | row1 8px].
inline __m256i split_rows(__m256i cells4) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  return _mm256_permutevar8x32_epi32(cells4, idx);
}

template <typename Blend16>
inline void fused_cells(img::GrayA8* row0, img::GrayA8* row1,
                        const std::byte* pay, std::size_t k,
                        Blend16&& blend16,
                        void (*tail)(img::GrayA8*, img::GrayA8*,
                                     const std::byte*, std::size_t)) {
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4, pay += 32) {
    const __m256i s = split_rows(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pay)));
    const __m256i d = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row1 + 2 * c)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row0 + 2 * c)));
    const __m256i out = blend16(s, d);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row0 + 2 * c),
                     _mm256_castsi256_si128(out));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row1 + 2 * c),
                     _mm256_extracti128_si256(out, 1));
  }
  tail(row0 + 2 * c, row1 + 2 * c, pay, k - c);
}

void fused_cells_over_front(img::GrayA8* row0, img::GrayA8* row1,
                            const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m256i s, __m256i d) { return over16(s, d); },
              scalar::fused_cells_over_front);
}

void fused_cells_over_back(img::GrayA8* row0, img::GrayA8* row1,
                           const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m256i s, __m256i d) { return over16(d, s); },
              scalar::fused_cells_over_back);
}

void fused_cells_max(img::GrayA8* row0, img::GrayA8* row1,
                     const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m256i s, __m256i d) { return _mm256_max_epu8(s, d); },
              scalar::fused_cells_max);
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009). Four 128-bit accumulators fold 64 bytes per step; they
/// collapse into one, which folds the remaining 16-byte blocks, and
/// the 128-bit remainder reduces to 64 and then (Barrett) 32 bits. The
/// constants are the paper's bit-reflected ones for 0xEDB88320:
/// x^(4*128±32) and x^(128±32) mod P for the folds, x^64 mod P for the
/// 64-bit step, and P' and mu = floor(x^64 / P) for the reduction.
/// Inputs under 64 bytes and the last n % 16 bytes take slice-by-16.
std::uint32_t crc32(const std::byte* data, std::size_t n) {
  if (n < 64) return scalar::crc32(data, n);
  const auto load = [](const std::byte* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // Carries acc forward onto the block `next`:
  // acc.lo * k.lo ^ acc.hi * k.hi ^ next (carry-less).
  const auto fold = [](__m128i acc, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  const std::byte* p = data;
  const std::byte* const end = data + (n & ~std::size_t{15});
  // The all-ones preset enters as the first 32 bits of the message.
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(-1));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  for (p += 64; end - p >= 64; p += 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; p < end; p += 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 through x^64 mod P.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction: q = (x mod x^32) * mu, remainder ^= q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  const auto crc =
      static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
  return ~scalar::crc32_update(crc, end, n & 15);
}

}  // namespace

namespace detail {

const Kernels& avx2_kernels() {
  static const Kernels k{
      over_front,      over_back,
      max_blend,       count_non_blank,
      blank_mask,      fused_cells_over_front,
      fused_cells_over_back, fused_cells_max,
      crc32,
  };
  return k;
}

}  // namespace detail
}  // namespace rtc::simd

#else  // no AVX2+PCLMUL at build time: table aliases scalar (and is
       // never selected — detected_level() needs the CPU bits, and a
       // CPU with them still gets correct results through this alias).

namespace rtc::simd::detail {
const Kernels& avx2_kernels() { return scalar_kernels(); }
}  // namespace rtc::simd::detail

#endif
