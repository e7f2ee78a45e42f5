// The dispatched kernel table: the per-pixel inner loops of the
// composition hot path, plus the wire checksum every framed message
// pays twice (comm::crc32), one implementation per SimdLevel.
//
// Contract: for identical inputs, every level writes identical bytes.
// The "over" kernels replicate rtc::img::over()'s integer arithmetic
// exactly — round-to-nearest mul255 and uint8 *wraparound* (not
// saturation) on malformed premultiplied inputs — which the
// scalar-vs-SIMD property suite (tests/simd/) pins across lengths,
// alignments and pixel classes.
//
// The raw-pointer signatures (rather than std::span) keep the table a
// plain struct of C function pointers so a level switch is one pointer
// swap and the kernels themselves have no header dependencies beyond
// the pixel type.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rtc/image/pixel.hpp"
#include "rtc/simd/dispatch.hpp"

namespace rtc::simd {

/// dst[i] = over(src[i], dst[i]) — incoming pixels are in front.
using OverFn = void (*)(img::GrayA8* dst, const img::GrayA8* src,
                        std::size_t n);
/// Per-channel max (MIP), commutative.
using MaxFn = void (*)(img::GrayA8* dst, const img::GrayA8* src,
                       std::size_t n);
/// Number of pixels with (v, a) != (0, 0).
using CountFn = std::int64_t (*)(const img::GrayA8* px, std::size_t n);
/// Occupancy bitmap: bit i of bits[i / 64] is 1 iff px[i] is non-blank.
/// Writes ceil(n / 64) words; trailing bits of the last word are 0.
/// This is the TRLE encoder's classify step — templates are assembled
/// from these bits instead of per-pixel is_blank() calls.
using BlankMaskFn = void (*)(const img::GrayA8* px, std::size_t n,
                             std::uint64_t* bits);
/// Fused TRLE full-cell run: blends k 2x2 cells whose template is 0xF
/// (all four pixels present) into two destination rows. The payload
/// holds k cells of 4 pixels in template-bit order (x,y), (x+1,y),
/// (x,y+1), (x+1,y+1) — i.e. row0 pair then row1 pair — 8 bytes per
/// cell. row0/row1 each receive 2*k blended pixels.
using FusedCellsFn = void (*)(img::GrayA8* row0, img::GrayA8* row1,
                              const std::byte* payload, std::size_t k);
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of n bytes,
/// with the usual all-ones preset and final inversion. The scalar and
/// sse2 levels run a portable slice-by-16 table loop; avx2 folds
/// 64-byte blocks with PCLMULQDQ (Gopal et al., Intel, 2009).
using Crc32Fn = std::uint32_t (*)(const std::byte* data, std::size_t n);

struct Kernels {
  OverFn over_front;       ///< dst = src OVER dst
  OverFn over_back;        ///< dst = dst OVER src
  MaxFn max_blend;
  CountFn count_non_blank;
  BlankMaskFn blank_mask;
  FusedCellsFn fused_cells_over_front;  ///< payload pixels in front
  FusedCellsFn fused_cells_over_back;   ///< payload pixels behind
  FusedCellsFn fused_cells_max;
  Crc32Fn crc32;  ///< the wire frame checksum (comm/frame.hpp)
};

/// Kernel table for one specific level. `level` must not exceed
/// detected_level() — callers go through kernels() unless they are the
/// equivalence tests, which probe each supported level explicitly.
[[nodiscard]] const Kernels& kernels_for(SimdLevel level);

/// Kernel table for the active dispatch level.
[[nodiscard]] inline const Kernels& kernels() {
  return kernels_for(active_level());
}

namespace detail {
// Per-level tables, defined in kernels_{scalar,sse2,avx2}.cpp.
// kSse2/kAvx2 fall back to scalar entries off x86-64 or under
// -DRTC_SIMD=OFF (they are then never selected by dispatch anyway).
[[nodiscard]] const Kernels& scalar_kernels();
[[nodiscard]] const Kernels& sse2_kernels();
[[nodiscard]] const Kernels& avx2_kernels();
}  // namespace detail

}  // namespace rtc::simd
