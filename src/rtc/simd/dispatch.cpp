#include "rtc/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace rtc::simd {

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<SimdLevel> parse_simd_level(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

namespace {

SimdLevel probe_cpu() {
#if defined(RTC_SIMD_DISABLED)
  return SimdLevel::kScalar;
#elif defined(__x86_64__) || defined(_M_X64)
  // RTC_SIMD_HAS_AVX2 is set by CMake only when the AVX2 TU was
  // actually built with -mavx2 -mpclmul; without it the avx2 table
  // aliases scalar and reporting kAvx2 would promise a speedup we can't
  // give. Every AVX2 CPU has PCLMULQDQ, but ask for both bits anyway.
#if defined(RTC_SIMD_HAS_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul"))
    return SimdLevel::kAvx2;
#endif
  // SSE2 is architecturally guaranteed on x86-64, but ask anyway so a
  // hypervisor masking it degrades gracefully.
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
  return SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

/// -1 = not yet initialized (first active_level() call resolves it).
std::atomic<int>& active_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

SimdLevel resolve_with_stderr_note(SimdLevel requested) {
  std::string note;
  const SimdLevel level = resolve_level(requested, detected_level(), &note);
  if (!note.empty()) std::cerr << note << "\n";
  return level;
}

SimdLevel init_from_env() {
  if (const char* env = std::getenv("RTC_SIMD");
      env != nullptr && env[0] != '\0' && std::string(env) != "auto") {
    if (const auto requested = parse_simd_level(env)) {
      return resolve_with_stderr_note(*requested);
    }
    std::cerr << "RTC_SIMD: unknown level '" << env
              << "' (expected auto, scalar, sse2 or avx2); using "
              << to_string(detected_level()) << "\n";
  }
  return detected_level();
}

}  // namespace

SimdLevel detected_level() {
  static const SimdLevel level = probe_cpu();
  return level;
}

SimdLevel resolve_level(SimdLevel requested, SimdLevel detected,
                        std::string* note) {
  if (static_cast<int>(requested) <= static_cast<int>(detected))
    return requested;
  if (note != nullptr) {
    *note = std::string("simd: ") + to_string(requested) +
            " requested but this CPU supports at most " +
            to_string(detected) + "; falling back to " + to_string(detected);
  }
  return detected;
}

SimdLevel active_level() {
  int v = active_slot().load(std::memory_order_acquire);
  if (v < 0) {
    // Benign race: init_from_env() is idempotent and every thread
    // computes the same value.
    const SimdLevel level = init_from_env();
    active_slot().store(static_cast<int>(level), std::memory_order_release);
    return level;
  }
  return static_cast<SimdLevel>(v);
}

void set_level(SimdLevel level) {
  active_slot().store(static_cast<int>(resolve_with_stderr_note(level)),
                      std::memory_order_release);
}

bool request_level(const std::string& name) {
  if (name == "auto") {
    active_slot().store(static_cast<int>(detected_level()),
                        std::memory_order_release);
    return true;
  }
  const auto level = parse_simd_level(name);
  if (!level) return false;
  set_level(*level);
  return true;
}

}  // namespace rtc::simd
