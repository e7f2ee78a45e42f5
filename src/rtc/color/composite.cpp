// Rotate-tiling composition for color partials, driven by the exact
// same core schedule as the gray compositor — the schedule is pixel-
// format agnostic; only serialization and the blend kernel change.
#include "rtc/color/render.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/image/tiling.hpp"
#include "rtc/obs/span.hpp"

namespace rtc::color {

namespace {

void send_color_block(comm::Comm& comm, int dst, int tag,
                      std::span<const RgbA8> px, int width,
                      std::int64_t begin, bool use_trle) {
  const std::int64_t w0 =
      comm.trace().enabled() ? obs::wall_now_ns() : -1;
  std::vector<std::byte> bytes =
      use_trle ? trle_encode_color(px, width, begin)
               : serialize_pixels(px);
  const auto raw = static_cast<std::int64_t>(px.size() * kBytesPerPixel);
  if (use_trle) {
    comm.charge_span(obs::SpanKind::kEncode, tag,
                     comm.model().tcodec_pixel *
                         static_cast<double>(px.size()),
                     static_cast<std::int64_t>(bytes.size()), raw, w0);
  } else {
    comm.note_span(obs::SpanKind::kEncode, tag,
                   static_cast<std::int64_t>(bytes.size()), raw);
  }
  comm.send(dst, tag, std::move(bytes));
}

void recv_color_block(comm::Comm& comm, int src, int tag,
                      std::span<RgbA8> out, int width,
                      std::int64_t begin, bool use_trle) {
  const std::vector<std::byte> bytes = comm.recv(src, tag);
  if (use_trle) {
    const std::int64_t w0 =
        comm.trace().enabled() ? obs::wall_now_ns() : -1;
    trle_decode_color(bytes, out, width, begin);
    comm.charge_span(obs::SpanKind::kDecode, tag,
                     comm.model().tcodec_pixel *
                         static_cast<double>(out.size()),
                     static_cast<std::int64_t>(bytes.size()),
                     static_cast<std::int64_t>(out.size()), w0);
  } else {
    deserialize_pixels(bytes, out);
    comm.note_span(obs::SpanKind::kDecode, tag,
                   static_cast<std::int64_t>(bytes.size()),
                   static_cast<std::int64_t>(out.size()));
  }
}

}  // namespace

RgbaImage composite_rt_color(comm::Comm& comm, const RgbaImage& partial,
                             int initial_blocks, bool use_trle,
                             img::BlendMode blend) {
  const int p = comm.size();
  const int r = comm.rank();
  const core::Schedule sched = core::build_rt_schedule(
      p, initial_blocks, core::RtVariant::kGeneralized);
  const img::Tiling tiling(partial.pixel_count(), initial_blocks);

  RgbaImage buf = partial;
  std::vector<RgbA8> incoming;
  for (const core::Step& step : sched.steps) {
    for (const core::Merge& m : step.merges) {
      if (m.sender != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      send_color_block(comm, m.receiver, step.tag, buf.view(span),
                       partial.width(), span.begin, use_trle);
    }
    for (const core::Merge& m : step.merges) {
      if (m.receiver != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      incoming.resize(static_cast<std::size_t>(span.size()));
      recv_color_block(comm, m.sender, step.tag, incoming, partial.width(),
                       span.begin, use_trle);
      blend_in_place(buf.view(span), incoming, blend, m.sender_front);
      comm.charge_over(span.size());
    }
    comm.mark(step.tag);
  }

  // Gather the owned final blocks to rank 0: [u32 count] then per
  // block [u32 depth][u64 index][raw pixels].
  const auto owned = sched.owned_blocks(r);
  std::vector<std::byte> payload;
  wire::WireWriter w(payload);
  w.u32(static_cast<std::uint32_t>(owned.size()));
  for (const auto& [depth, index] : owned) {
    w.u32(static_cast<std::uint32_t>(depth));
    w.u64(static_cast<std::uint64_t>(index));
    w.bytes(serialize_pixels(buf.view(tiling.block(depth, index))));
  }

  std::vector<std::vector<std::byte>> all =
      comm::gather(comm, /*root=*/0, /*tag=*/1'000'000,
                   std::move(payload));
  if (r != 0) return RgbaImage{};

  RgbaImage out(partial.width(), partial.height());
  for (const std::vector<std::byte>& bytes : all) {
    wire::WireReader rd(bytes);
    const std::uint32_t count = rd.u32("color fragment count");
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto depth = static_cast<int>(rd.u32("color fragment depth"));
      const auto index =
          static_cast<std::int64_t>(rd.u64("color fragment index"));
      const img::PixelSpan span = tiling.block(depth, index);
      deserialize_pixels(
          rd.bytes(static_cast<std::size_t>(span.size()) * kBytesPerPixel,
                   "color fragment pixels"),
          out.view(span));
    }
    rd.finish("color gather payload");
  }
  return out;
}

}  // namespace rtc::color
