// Checksummed wire framing for every message on the substrate.
//
// Each payload travels inside a fixed 20-byte little-endian frame:
//
//   [u32 magic "RTCF"] [u32 seq] [u64 payload length] [u32 crc32]
//   [payload bytes]
//
// The CRC covers the payload only; the header fields are validated
// structurally (magic, length vs. buffer size). A receiver can classify
// any damage: truncation, foreign/garbled header, payload corruption,
// and — via the sequence number — duplicated delivery.
//
// Cost-model note: the virtual clock charges wire time for the payload
// bytes only. The 20-byte header and the CRC computation are part of
// the per-message software overhead that the paper's Ts constant
// already models, so framing adds zero virtual time and the zero-fault
// figures reproduce bit-for-bit. On the wall clock the CRC is real
// work — it runs over every payload on send and again on receive — so
// it is a dispatched SIMD kernel (simd::Kernels::crc32: slice-by-16,
// or PCLMULQDQ folding at the avx2 level). Every level computes the
// same checksum, so the dispatch level never changes a frame byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rtc::comm {

inline constexpr std::uint32_t kFrameMagic = 0x52544346u;  // "RTCF"
inline constexpr std::size_t kFrameHeaderBytes = 20;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed by
/// the active dispatch level's kernel.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data);

/// Wraps `payload` in a frame headed by `seq`.
[[nodiscard]] std::vector<std::byte> encode_frame(
    std::uint32_t seq, std::span<const std::byte> payload);

/// Same, appending into `out` (cleared first) so a pooled buffer's
/// capacity is reused instead of reallocated per message.
void encode_frame_into(std::vector<std::byte>& out, std::uint32_t seq,
                       std::span<const std::byte> payload);

enum class FrameStatus {
  kOk,
  kTruncated,  ///< shorter than a header
  kBadMagic,   ///< header damaged or not a frame
  kBadLength,  ///< length field disagrees with the buffer
  kBadCrc,     ///< payload damaged
};

struct DecodedFrame {
  FrameStatus status = FrameStatus::kTruncated;
  std::uint32_t seq = 0;
  std::span<const std::byte> payload;  ///< valid only when status == kOk
  [[nodiscard]] bool ok() const { return status == FrameStatus::kOk; }
};

/// Validates and opens a frame; never throws — damage is a status.
[[nodiscard]] DecodedFrame decode_frame(std::span<const std::byte> frame);

}  // namespace rtc::comm
