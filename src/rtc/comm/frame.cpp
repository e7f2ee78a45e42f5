#include "rtc/comm/frame.hpp"

#include "rtc/common/wire.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc::comm {

std::uint32_t crc32(std::span<const std::byte> data) {
  return simd::kernels().crc32(data.data(), data.size());
}

void encode_frame_into(std::vector<std::byte>& out, std::uint32_t seq,
                       std::span<const std::byte> payload) {
  out.clear();
  out.reserve(kFrameHeaderBytes + payload.size());
  wire::WireWriter w(out);
  w.u32(kFrameMagic);
  w.u32(seq);
  w.u64(static_cast<std::uint64_t>(payload.size()));
  w.u32(crc32(payload));
  w.bytes(payload);
}

std::vector<std::byte> encode_frame(std::uint32_t seq,
                                    std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  encode_frame_into(out, seq, payload);
  return out;
}

DecodedFrame decode_frame(std::span<const std::byte> frame) {
  DecodedFrame d;
  if (frame.size() < kFrameHeaderBytes) {
    d.status = FrameStatus::kTruncated;
    return d;
  }
  // The header is fixed-size and just verified present, so these reads
  // cannot throw; damage is reported as a status, never an exception.
  wire::WireReader r(frame);
  if (r.u32("frame magic") != kFrameMagic) {
    d.status = FrameStatus::kBadMagic;
    return d;
  }
  d.seq = r.u32("frame seq");
  const std::uint64_t len = r.u64("frame length");
  const std::uint32_t crc = r.u32("frame crc");
  if (len != r.remaining()) {
    d.status = FrameStatus::kBadLength;
    return d;
  }
  const std::span<const std::byte> payload = r.rest();
  if (crc != crc32(payload)) {
    d.status = FrameStatus::kBadCrc;
    return d;
  }
  d.status = FrameStatus::kOk;
  d.payload = payload;
  return d;
}

}  // namespace rtc::comm
