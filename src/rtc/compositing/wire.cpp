#include "rtc/compositing/wire.hpp"

#include <algorithm>
#include <optional>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/image/serialize.hpp"
#include "rtc/obs/span.hpp"

namespace rtc::compositing {

namespace {

/// Coherent-format markers (first body byte when the cache is active).
constexpr std::byte kMarkerBody{0};        ///< encoded payload follows
constexpr std::byte kMarkerCleanBlank{1};  ///< unchanged all-blank block

double codec_time(const comm::Comm& comm, std::size_t pixels) {
  return comm.model().tcodec_pixel * static_cast<double>(pixels);
}

/// Blank pixels in `px` — only counted while tracing is armed (the
/// pass is observability, not part of the cost model, so callers read
/// the encode span's wall clock after it).
std::int64_t blank_pixels(comm::Comm& comm,
                          std::span<const img::GrayA8> px) {
  if (!comm.trace().enabled()) return 0;
  return static_cast<std::int64_t>(px.size()) - img::count_non_blank(px);
}

/// Classic encode of `px` into `out` (appending) through the codec, or
/// raw. `tag` attributes the encode span to its compositor step.
void encode_block_body(comm::Comm& comm, int tag,
                       std::span<const img::GrayA8> px,
                       const compress::BlockGeometry& geom,
                       const compress::Codec* codec,
                       std::vector<std::byte>& out) {
  const auto raw = static_cast<std::int64_t>(px.size() *
                                             img::kBytesPerPixel);
  const std::size_t before = out.size();
  if (codec == nullptr) {
    img::serialize_pixels_into(px, out);
    comm.note_span(obs::SpanKind::kEncode, tag,
                   static_cast<std::int64_t>(out.size() - before), raw);
  } else {
    const std::int64_t blank = blank_pixels(comm, px);
    const std::int64_t w0 =
        comm.trace().enabled() ? obs::wall_now_ns() : -1;
    codec->encode_into(px, geom, out);
    comm.charge_span(obs::SpanKind::kEncode, tag,
                     codec_time(comm, px.size()),
                     static_cast<std::int64_t>(out.size() - before), raw,
                     w0);
    if (blank > 0)
      comm.note_span(obs::SpanKind::kBlankSkip, tag, 0, blank);
  }
}

/// encode_block_body behind the temporal-coherence cache. Without a
/// cache this is exactly the classic path (no marker byte). With one,
/// the block's content hash is compared against the slot's previous
/// frame: a hit skips the encode charge (cached payload resent, or a
/// one-byte marker for a clean blank); a miss encodes fresh and
/// refreshes the slot. The hash and lookup are free on the virtual
/// clock — they model a renderer-maintained dirty bit, not a scan the
/// network would have to pay for.
void encode_block_into(comm::Comm& comm, int tag,
                       std::span<const img::GrayA8> px,
                       const compress::BlockGeometry& geom,
                       const compress::Codec* codec,
                       std::vector<std::byte>& out,
                       frames::RankCoherence* cache, int peer) {
  if (cache == nullptr) {
    encode_block_body(comm, tag, px, geom, codec, out);
    return;
  }
  const frames::BlockKey key{peer, tag, geom.span_begin,
                             static_cast<std::int64_t>(px.size())};
  const std::uint64_t hash = frames::hash_pixels(px);
  if (const frames::RankCoherence::Entry* e = cache->find(key);
      e != nullptr && e->hash == hash) {
    if (e->blank) {
      out.push_back(kMarkerCleanBlank);
      comm.note_coherence(
          true, static_cast<std::int64_t>(e->payload.size()));
    } else {
      out.push_back(kMarkerBody);
      out.insert(out.end(), e->payload.begin(), e->payload.end());
      comm.note_coherence(true, 0);
    }
    return;
  }
  out.push_back(kMarkerBody);
  const std::size_t body_begin = out.size();
  encode_block_body(comm, tag, px, geom, codec, out);
  cache->store(key, hash, frames::all_blank(px),
               std::span<const std::byte>(out).subspan(body_begin));
  comm.note_coherence(false, 0);
}

/// Strips the coherent marker byte when `coherent`; sets `*blank` when
/// it announced a clean-blank (empty) body. Classic format passes
/// through untouched. Malformed markers throw wire::DecodeError.
std::span<const std::byte> strip_marker(std::span<const std::byte> bytes,
                                        bool coherent, bool* blank) {
  *blank = false;
  if (!coherent) return bytes;
  wire::require(!bytes.empty(), wire::DecodeError::Kind::kTruncated,
                "missing coherence marker");
  const std::byte marker = bytes.front();
  wire::require(marker == kMarkerBody || marker == kMarkerCleanBlank,
                wire::DecodeError::Kind::kRange,
                "unknown coherence marker");
  if (marker == kMarkerCleanBlank) {
    wire::require(bytes.size() == 1, wire::DecodeError::Kind::kTrailing,
                  "clean-blank block carries a body");
    *blank = true;
  }
  return bytes.subspan(1);
}

/// The blend's charge step, shared by blend_block and the codecs'
/// fused walks: To for the blended pixels, skips to note_approx.
void charge_blend(comm::Comm& comm, const img::ApproxBlendStats& st) {
  comm.charge_over(st.blended);
  if (st.skipped > 0) comm.note_approx(st.skipped);
}

/// The approximate rung's blend applies to `over` only; `max` commutes
/// and has nothing to saturate.
bool approx_rule(img::BlendMode mode, int saturation) {
  return saturation > 0 && mode == img::BlendMode::kOver;
}

/// Both gathers: sends this rank's `payload` to `root`, which scatters
/// each valid one with `scatter` (returning the pixels it wrote) into
/// the assembled image. A substituted payload is noted stale once it
/// scattered; a lost rank stays blank with no further accounting.
template <class Scatter>
img::Image gather_payloads(comm::Comm& comm, int root,
                           std::vector<std::byte> payload, int width,
                           int height, Scatter scatter) {
  const comm::GatherResult all =
      comm::gather_partial(comm, root, kGatherTag, std::move(payload));
  if (comm.rank() != root) return img::Image{};
  const bool degrade = comm.resilience().degrade_on_loss();
  img::Image out(width, height);
  for (std::size_t src = 0; src < all.payloads.size(); ++src) {
    if (!all.valid[src]) continue;  // lost rank: its pixels stay blank
    try {
      const std::int64_t px = scatter(out, all.payloads[src]);
      if (all.stale[src])
        comm.note_stale(static_cast<std::int64_t>(src), px);
    } catch (const wire::DecodeError&) {
      if (!degrade) throw;
      // Malformed gather payload: the sender's remaining pixels stay
      // blank, recorded as a loss attributed to that rank.
      comm.note_loss(static_cast<std::int64_t>(src), 0);
    }
  }
  return out;
}

}  // namespace

void send_block(comm::Comm& comm, int dst, int tag,
                std::span<const img::GrayA8> px,
                const compress::BlockGeometry& geom,
                const compress::Codec* codec,
                frames::RankCoherence* cache) {
  std::vector<std::byte> bytes = comm.pool().acquire();
  encode_block_into(comm, tag, px, geom, codec, bytes, cache, dst);
  comm.send(dst, tag, std::move(bytes));
}

bool recv_blocks(comm::Comm& comm, int src, int tag,
                 const comm::ResiliencePolicy& policy,
                 std::span<const CarriedBlock> blocks,
                 PayloadDecoder decode) {
  const bool degrade = policy.degrade_on_loss();
  std::optional<std::vector<std::byte>> payload;
  if (degrade) {
    payload = comm.try_recv(src, tag);
  } else {
    payload = comm.recv(src, tag);
  }
  const bool stale = payload && comm.last_recv_stale();
  std::size_t done = 0;
  bool whole = false;
  if (payload) {
    try {
      decode(*payload, done);
      whole = true;
      done = blocks.size();
    } catch (const wire::DecodeError&) {
      // A payload that passed the CRC but fails validation (collision,
      // buggy peer, hostile stale bytes) degrades exactly like a loss.
      if (!degrade) throw;
    }
    comm.pool().release(std::move(*payload));
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i >= done) {
      comm.note_loss(blocks[i].id, blocks[i].pixels);
    } else if (stale) {
      comm.note_stale(blocks[i].id, blocks[i].pixels);
    }
  }
  return whole;
}

void blend_block(comm::Comm& comm, std::span<img::GrayA8> dst,
                 std::span<const img::GrayA8> src, img::BlendMode mode,
                 bool src_front, int saturation) {
  if (approx_rule(mode, saturation)) {
    charge_blend(comm,
                 img::blend_in_place_approx(dst, src, src_front, saturation));
    return;
  }
  img::blend_in_place(dst, src, mode, src_front);
  charge_blend(comm, {static_cast<std::int64_t>(dst.size()), 0});
}

bool decode_block(comm::Comm& comm, int tag,
                  std::span<const std::byte> bytes,
                  std::span<img::GrayA8> out,
                  const compress::BlockGeometry& geom,
                  const compress::Codec* codec, bool coherent) {
  bool blank = false;
  bytes = strip_marker(bytes, coherent, &blank);
  const auto pixels = static_cast<std::int64_t>(out.size());
  if (blank) {
    std::fill(out.begin(), out.end(), img::kBlank);
    comm.note_span(obs::SpanKind::kBlankSkip, tag, 0, pixels);
    return true;
  }
  if (codec == nullptr) {
    img::deserialize_pixels(bytes, out);
    comm.note_span(obs::SpanKind::kDecode, tag,
                   static_cast<std::int64_t>(bytes.size()), pixels);
  } else {
    const std::int64_t w0 =
        comm.trace().enabled() ? obs::wall_now_ns() : -1;
    codec->decode(bytes, out, geom);
    comm.charge_span(obs::SpanKind::kDecode, tag,
                     codec_time(comm, out.size()),
                     static_cast<std::int64_t>(bytes.size()), pixels, w0);
  }
  return false;
}

void decode_blend_block(comm::Comm& comm, int tag,
                        std::span<const std::byte> bytes,
                        std::span<img::GrayA8> dst,
                        const compress::BlockGeometry& geom,
                        const compress::Codec* codec, img::BlendMode mode,
                        bool src_front, std::vector<img::GrayA8>& scratch,
                        bool coherent, int saturation) {
  bool blank = false;
  bytes = strip_marker(bytes, coherent, &blank);
  const auto pixels = static_cast<std::int64_t>(dst.size());
  if (blank) {
    comm.note_span(obs::SpanKind::kBlankSkip, tag, 0, pixels);
    return;
  }
  if (codec == nullptr) {
    scratch.resize(dst.size());
    img::deserialize_pixels(bytes, scratch);
    comm.note_span(obs::SpanKind::kDecodeBlend, tag,
                   static_cast<std::int64_t>(bytes.size()), pixels);
    blend_block(comm, dst, scratch, mode, src_front, saturation);
    return;
  }
  // The codec's fused walk. Under the approx rule only the blended
  // pixels are charged To, so the saving shows on the virtual clock;
  // skips are pure pixel arithmetic and replay bit-exactly.
  const std::int64_t w0 = comm.trace().enabled() ? obs::wall_now_ns() : -1;
  img::ApproxBlendStats st{pixels, 0};
  if (approx_rule(mode, saturation)) {
    st = codec->decode_blend_approx(bytes, dst, geom, src_front, saturation,
                                    scratch);
  } else {
    codec->decode_blend(bytes, dst, geom, mode, src_front, scratch);
  }
  comm.charge_span(obs::SpanKind::kDecodeBlend, tag,
                   codec_time(comm, dst.size()),
                   static_cast<std::int64_t>(bytes.size()), pixels, w0);
  charge_blend(comm, st);
}

void append_block(comm::Comm& comm, int tag,
                  std::vector<std::byte>& payload,
                  std::span<const img::GrayA8> px,
                  const compress::BlockGeometry& geom,
                  const compress::Codec* codec,
                  frames::RankCoherence* cache, int peer) {
  // Length-prefix in place: reserve the u64, encode straight into
  // `payload`, then patch the length — no intermediate body buffer.
  wire::WireWriter w(payload);
  const std::size_t at = w.reserve_u64();
  const std::size_t body_begin = payload.size();
  encode_block_into(comm, tag, px, geom, codec, payload, cache, peer);
  w.patch_u64(at, static_cast<std::uint64_t>(payload.size() - body_begin));
}

Fragment unpack_fragment(std::span<const std::byte> bytes) {
  wire::WireReader r(bytes);
  Fragment f;
  f.depth = static_cast<int>(r.u32("fragment depth"));
  f.index = static_cast<std::int64_t>(r.u64("fragment index"));
  const std::span<const std::byte> body = r.rest();
  wire::require(body.size() % img::kBytesPerPixel == 0,
                wire::DecodeError::Kind::kMismatch,
                "fragment payload is not a whole number of pixels");
  f.pixels.resize(body.size() / img::kBytesPerPixel);
  img::deserialize_pixels(body, f.pixels);
  return f;
}

std::int64_t scatter_fragments_into(img::Image& out,
                                    const img::Tiling& tiling,
                                    std::span<const std::byte> payload,
                                    frames::TileSink* sink, int frame) {
  std::int64_t written = 0;
  wire::WireReader r(payload);
  const std::uint32_t n = r.u32("fragment count");
  for (std::uint32_t k = 0; k < n; ++k) {
    const Fragment f =
        unpack_fragment(r.length_prefixed("gathered fragment"));
    // (depth, index) come off the wire: validate against the local
    // tiling before the geometry lookup, which contract-checks.
    wire::require(f.depth >= 0 && f.depth < 48,
                  wire::DecodeError::Kind::kRange,
                  "fragment depth outside tiling");
    wire::require(f.index >= 0 && f.index < tiling.block_count(f.depth),
                  wire::DecodeError::Kind::kRange,
                  "fragment index outside tiling");
    const img::PixelSpan span = tiling.block(f.depth, f.index);
    wire::require(static_cast<std::size_t>(span.size()) == f.pixels.size(),
                  wire::DecodeError::Kind::kMismatch,
                  "fragment pixel count disagrees with its block");
    std::span<img::GrayA8> dst = out.view(span);
    std::copy(f.pixels.begin(), f.pixels.end(), dst.begin());
    written += span.size();
    if (sink != nullptr) sink->deliver_tile(frame, span, dst);
  }
  r.finish("gather payload");
  return written;
}

std::int64_t scatter_span_into(img::Image& out,
                               std::span<const std::byte> payload,
                               frames::TileSink* sink, int frame) {
  wire::WireReader r(payload);
  img::PixelSpan sp;
  sp.begin = r.i64("span begin");
  sp.end = r.i64("span end");
  // The span bounds come off the wire: reject before out.view(sp)
  // indexes the image with them.
  wire::require(sp.begin >= 0 && sp.begin <= sp.end &&
                    sp.end <= out.pixel_count(),
                wire::DecodeError::Kind::kRange,
                "gathered span outside image");
  img::deserialize_pixels(r.rest(), out.view(sp));
  if (sink != nullptr) sink->deliver_tile(frame, sp, out.view(sp));
  return sp.size();
}

img::Image gather_fragments(comm::Comm& comm, const img::Tiling& tiling,
                            std::span<const OwnedBlock> owned, int root,
                            int width, int height, frames::TileSink* sink,
                            int frame) {
  // Pack all locally-owned fragments into one gather payload:
  // [u32 count] then count packed fragments, each length-prefixed (u64).
  std::vector<std::byte> payload = comm.pool().acquire();
  {
    wire::WireWriter w(payload);
    w.u32(static_cast<std::uint32_t>(owned.size()));
    for (const OwnedBlock& b : owned) {
      RTC_CHECK(static_cast<std::size_t>(tiling.block(b.depth, b.index)
                                             .size()) == b.pixels.size());
      const std::size_t at = w.reserve_u64();
      const std::size_t body_begin = payload.size();
      w.u32(static_cast<std::uint32_t>(b.depth));
      w.u64(static_cast<std::uint64_t>(b.index));
      img::serialize_pixels_into(b.pixels, payload);
      w.patch_u64(at,
                  static_cast<std::uint64_t>(payload.size() - body_begin));
    }
  }

  return gather_payloads(
      comm, root, std::move(payload), width, height,
      [&](img::Image& out, std::span<const std::byte> bytes) {
        return scatter_fragments_into(out, tiling, bytes, sink, frame);
      });
}

img::Image gather_spans(comm::Comm& comm, img::PixelSpan span,
                        std::span<const img::GrayA8> pixels, int root,
                        int width, int height, frames::TileSink* sink,
                        int frame) {
  RTC_CHECK(static_cast<std::size_t>(span.size()) == pixels.size());
  // Payload: [i64 begin][i64 end][raw pixels].
  std::vector<std::byte> payload = comm.pool().acquire();
  {
    wire::WireWriter w(payload);
    w.i64(span.begin);
    w.i64(span.end);
    img::serialize_pixels_into(pixels, payload);
  }

  return gather_payloads(
      comm, root, std::move(payload), width, height,
      [&](img::Image& out, std::span<const std::byte> bytes) {
        return scatter_span_into(out, bytes, sink, frame);
      });
}

}  // namespace rtc::compositing
