// Runtime SIMD dispatch for the pixel/codec hot paths and the wire
// frame checksum.
//
// Every kernel in kernels.hpp exists at three levels — portable scalar,
// SSE2 and AVX2 — and all levels compute bit-identical results: the
// vector paths reproduce the scalar integer arithmetic (including the
// uint8 wraparound of malformed premultiplied inputs) lane for lane,
// and every CRC body computes the same CRC-32, so switching levels can
// never change an image, a golden, or a wire byte. Dispatch therefore
// only affects wall-clock speed.
//
// Selection, highest priority first:
//   1. simd::set_level() / simd::request_level("auto|scalar|sse2|avx2")
//      (the --simd CLI/bench knob),
//   2. the RTC_SIMD environment variable (same spellings),
//   3. auto-detection (highest level this CPU supports).
// A request above what the CPU supports falls back to the best
// supported level with one clear stderr line — never a SIGILL.
// Building with -DRTC_SIMD=OFF compiles the vector kernels out
// entirely (detected_level() == kScalar).
#pragma once

#include <optional>
#include <string>

namespace rtc::simd {

/// Instruction-set tiers, ordered: a CPU that supports a level
/// supports every lower one.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable C++ (always available)
  kSse2 = 1,    ///< x86-64 baseline 128-bit
  kAvx2 = 2,    ///< 256-bit integer SIMD plus PCLMULQDQ
};

[[nodiscard]] const char* to_string(SimdLevel level);

/// Parses "scalar" | "sse2" | "avx2"; nullopt for anything else
/// ("auto" is handled by request_level, not a level by itself).
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    const std::string& name);

/// Highest level the running CPU supports (kScalar when the build
/// disabled SIMD or the target is not x86-64). Computed once.
[[nodiscard]] SimdLevel detected_level();

/// Pure fallback policy: the level actually used for `requested` on a
/// CPU whose best level is `detected`. When the request exceeds the
/// hardware, *note (if non-null) receives a one-line explanation and
/// the result is `detected` — requesting a level never crashes.
[[nodiscard]] SimdLevel resolve_level(SimdLevel requested,
                                      SimdLevel detected,
                                      std::string* note);

/// The level every dispatched kernel currently uses. Initialized on
/// first use from RTC_SIMD (falling back with a stderr note if the
/// hardware can't honor it) or auto-detection.
[[nodiscard]] SimdLevel active_level();

/// Forces the active level (clamped to detected_level() with a stderr
/// note, as resolve_level specifies). Process-wide.
void set_level(SimdLevel level);

/// Applies a --simd value: "auto" re-enables detection, otherwise the
/// named level via set_level(). Returns false (and changes nothing)
/// when `name` parses to neither — the caller owns the usage error.
[[nodiscard]] bool request_level(const std::string& name);

}  // namespace rtc::simd
