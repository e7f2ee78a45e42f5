#include "rtc/image/serialize.hpp"

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "rtc/common/wire.hpp"

namespace rtc::img {

// GrayA8 is laid out as (value, alpha) bytes, so a pixel run is its own
// wire image on every host.
static_assert(sizeof(GrayA8) == kBytesPerPixel);
static_assert(offsetof(GrayA8, v) == 0 && offsetof(GrayA8, a) == 1);
static_assert(std::is_trivially_copyable_v<GrayA8>);

void serialize_pixels_into(std::span<const GrayA8> px,
                           std::vector<std::byte>& out) {
  const std::span<const std::byte> bytes = std::as_bytes(px);
  out.insert(out.end(), bytes.data(), bytes.data() + bytes.size());
}

std::vector<std::byte> serialize_pixels(std::span<const GrayA8> px) {
  std::vector<std::byte> out;
  serialize_pixels_into(px, out);
  return out;
}

void deserialize_pixels(std::span<const std::byte> bytes,
                        std::span<GrayA8> px) {
  wire::require(bytes.size() == px.size() * kBytesPerPixel,
                wire::DecodeError::Kind::kMismatch,
                "raw pixel payload size");
  if (!bytes.empty()) std::memcpy(px.data(), bytes.data(), bytes.size());
}

}  // namespace rtc::img
