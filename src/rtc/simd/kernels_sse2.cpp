// SSE2 (x86-64 baseline, 128-bit) kernels: 8 pixels per iteration.
//
// Bit-identity with the scalar reference hinges on reproducing
// img::detail::mul255 exactly in 16-bit lanes. Every intermediate
// fits: back.c * inv <= 255*255 = 65025, +128 = 65153, plus its own
// high byte <= 65407 — all below 2^16, so the 16-bit lane arithmetic
// equals the scalar uint32 arithmetic. The final front.c + rounded
// term can reach 510 on malformed (non-premultiplied) inputs, where
// the scalar code *wraps* through the uint8_t cast; the vector path
// masks to the low byte before packing so it wraps identically rather
// than letting packus saturate.
#include "rtc/simd/kernels.hpp"
#include "rtc/simd/scalar_impl.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(RTC_SIMD_DISABLED)

#include <emmintrin.h>

namespace rtc::simd {
namespace {

/// 8-pixel Porter-Duff over: f is the front operand, b the back.
inline __m128i over8(__m128i f, __m128i b) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i c255 = _mm_set1_epi16(255);
  const __m128i c128 = _mm_set1_epi16(128);
  const __m128i lo_byte = _mm_set1_epi16(0x00ff);
  const auto half = [&](__m128i f16, __m128i b16) {
    // Lanes are [v0 a0 v1 a1 ...]; replicate each alpha onto its value
    // lane so one weight multiplies both channels.
    __m128i a = _mm_shufflelo_epi16(f16, _MM_SHUFFLE(3, 3, 1, 1));
    a = _mm_shufflehi_epi16(a, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128i inv = _mm_sub_epi16(c255, a);
    const __m128i t = _mm_add_epi16(_mm_mullo_epi16(b16, inv), c128);
    const __m128i r =
        _mm_srli_epi16(_mm_add_epi16(t, _mm_srli_epi16(t, 8)), 8);
    return _mm_and_si128(_mm_add_epi16(f16, r), lo_byte);
  };
  return _mm_packus_epi16(half(_mm_unpacklo_epi8(f, zero),
                               _mm_unpacklo_epi8(b, zero)),
                          half(_mm_unpackhi_epi8(f, zero),
                               _mm_unpackhi_epi8(b, zero)));
}

void over_front(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), over8(s, d));
  }
  scalar::over_front(dst + i, src + i, n - i);
}

void over_back(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), over8(d, s));
  }
  scalar::over_back(dst + i, src + i, n - i);
}

void max_blend(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_max_epu8(d, s));
  }
  scalar::max_blend(dst + i, src + i, n - i);
}

std::int64_t count_non_blank(const img::GrayA8* px, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(px + i));
    // A pixel is blank iff its 16-bit (v,a) lane is zero: the mask has
    // 2 bits per pixel, both set for blank lanes.
    const unsigned m = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi16(x, zero)));
    count += 8 - __builtin_popcount(m & (m >> 1) & 0x5555u);
  }
  count += scalar::count_non_blank(px + i, n - i);
  return count;
}

void blank_mask(const img::GrayA8* px, std::size_t n, std::uint64_t* bits) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) bits[w] = 0;
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(px + i));
    // 0xFFFF lane per blank pixel -> 0xFF byte per pixel (signed
    // saturation maps -1 to -1) -> one movemask bit per pixel.
    const __m128i bytes = _mm_packs_epi16(_mm_cmpeq_epi16(x, zero), zero);
    const unsigned blank = static_cast<unsigned>(
        _mm_movemask_epi8(bytes));
    const std::uint64_t non_blank = ~blank & 0xffu;
    bits[i >> 6] |= non_blank << (i & 63);  // i % 64 in {0, 8, ..., 56}
  }
  for (; i < n; ++i) {
    if (!img::is_blank(px[i]))
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
}

/// Splits 2 cells (16 payload bytes) into [row0 4px | row1 4px].
inline __m128i split_rows(__m128i cells2) {
  return _mm_shuffle_epi32(cells2, _MM_SHUFFLE(3, 1, 2, 0));
}

template <typename Blend8>
inline void fused_cells(img::GrayA8* row0, img::GrayA8* row1,
                        const std::byte* pay, std::size_t k,
                        Blend8&& blend8,
                        void (*tail)(img::GrayA8*, img::GrayA8*,
                                     const std::byte*, std::size_t)) {
  std::size_t c = 0;
  for (; c + 2 <= k; c += 2, pay += 16) {
    const __m128i s = split_rows(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pay)));
    const __m128i d = _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row0 + 2 * c)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row1 + 2 * c)));
    const __m128i out = blend8(s, d);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(row0 + 2 * c), out);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(row1 + 2 * c),
                     _mm_unpackhi_epi64(out, out));
  }
  tail(row0 + 2 * c, row1 + 2 * c, pay, k - c);
}

void fused_cells_over_front(img::GrayA8* row0, img::GrayA8* row1,
                            const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m128i s, __m128i d) { return over8(s, d); },
              scalar::fused_cells_over_front);
}

void fused_cells_over_back(img::GrayA8* row0, img::GrayA8* row1,
                           const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m128i s, __m128i d) { return over8(d, s); },
              scalar::fused_cells_over_back);
}

void fused_cells_max(img::GrayA8* row0, img::GrayA8* row1,
                     const std::byte* pay, std::size_t k) {
  fused_cells(row0, row1, pay, k,
              [](__m128i s, __m128i d) { return _mm_max_epu8(s, d); },
              scalar::fused_cells_max);
}

}  // namespace

namespace detail {

const Kernels& sse2_kernels() {
  static const Kernels k{
      over_front,      over_back,
      max_blend,       count_non_blank,
      blank_mask,      fused_cells_over_front,
      fused_cells_over_back, fused_cells_max,
      scalar::crc32,  // PCLMULQDQ is not SSE2: the portable slice-by-16
  };
  return k;
}

}  // namespace detail
}  // namespace rtc::simd

#else  // non-x86-64 or -DRTC_SIMD=OFF: never selected by dispatch.

namespace rtc::simd::detail {
const Kernels& sse2_kernels() { return scalar_kernels(); }
}  // namespace rtc::simd::detail

#endif
