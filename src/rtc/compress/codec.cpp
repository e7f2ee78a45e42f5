#include "rtc/compress/codec.hpp"

#include "rtc/common/check.hpp"

namespace rtc::compress {

std::vector<std::byte> Codec::encode(std::span<const img::GrayA8> px,
                                     const BlockGeometry& geom) const {
  std::vector<std::byte> out;
  encode_into(px, geom, out);
  return out;
}

void Codec::decode_blend(std::span<const std::byte> bytes,
                         std::span<img::GrayA8> dst,
                         const BlockGeometry& geom, img::BlendMode mode,
                         bool src_front,
                         std::vector<img::GrayA8>& scratch) const {
  scratch.resize(dst.size());
  decode(bytes, scratch, geom);
  img::blend_in_place(dst, scratch, mode, src_front);
}

img::ApproxBlendStats Codec::decode_blend_approx(
    std::span<const std::byte> bytes, std::span<img::GrayA8> dst,
    const BlockGeometry& geom, bool src_front, int saturation,
    std::vector<img::GrayA8>& scratch) const {
  scratch.resize(dst.size());
  decode(bytes, scratch, geom);
  return img::blend_in_place_approx(dst, scratch, src_front, saturation);
}

std::unique_ptr<Codec> make_codec(const std::string& name) {
  if (name == "raw") return make_raw_codec();
  if (name == "rle") return make_rle_codec();
  if (name == "trle") return make_trle_codec();
  if (name == "bbox") return make_bbox_codec();
  if (name == "bbox2d") return make_bbox2d_codec();
  throw ContractError("unknown codec: " + name);
}

}  // namespace rtc::compress
