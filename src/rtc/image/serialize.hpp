// Raw (uncompressed) wire format for pixel blocks.
//
// Each GrayA8 pixel serializes to two bytes (value, alpha) — the same
// per-pixel footprint the paper assumes when charging transmission cost.
// That is GrayA8's own layout (pinned by static_asserts), so both
// directions are one memcpy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rtc/image/pixel.hpp"

namespace rtc::img {

inline constexpr std::size_t kBytesPerPixel = 2;

[[nodiscard]] std::vector<std::byte> serialize_pixels(
    std::span<const GrayA8> px);

/// Appends the serialization of `px` to `out` (no clear), so callers
/// can compose length-prefixed payloads into pooled buffers.
void serialize_pixels_into(std::span<const GrayA8> px,
                           std::vector<std::byte>& out);

/// Decodes exactly `px.size()` pixels from `bytes` into `px`; throws
/// wire::DecodeError when the byte count disagrees.
void deserialize_pixels(std::span<const std::byte> bytes,
                        std::span<GrayA8> px);

}  // namespace rtc::img
