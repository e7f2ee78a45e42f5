// Helpers for moving pixel blocks between ranks through a codec.
//
// Everything received here crossed the wire and is untrusted: all
// parsing goes through wire::WireReader, and malformed bytes surface as
// typed wire::DecodeError instead of undefined behavior (see
// docs/fault_model.md §6). The hot composition path is allocation-free
// in steady state: encode buffers come from the rank's BufferPool,
// received payloads are released back into it, and the *_blend variants
// composite decoded runs directly into the destination block.
//
// Coherent wire format (multi-frame sequences): when a sender passes a
// frames::RankCoherence cache, every block body is prefixed with a
// one-byte marker — 0 means "encoded payload follows", 1 means "clean
// blank": the block is unchanged since the previous frame *and* all
// blank, so no body travels at all and the receiver treats it as the
// blend identity. An unchanged non-blank block travels as the cached
// payload without re-encoding (the encode charge is skipped). Both
// sides must agree: receivers opt in with `coherent = true`. With the
// defaults (no cache, coherent = false) the wire format and the
// virtual-time accounting are bit-identical to the classic path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rtc/comm/world.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/image/image.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::frames {
class RankCoherence;
class TileSink;
}  // namespace rtc::frames

namespace rtc::compositing {

/// Encodes `px` (a block at `geom`) with `codec` (raw when null), sends
/// it to `dst`, and charges codec compute time. The encode buffer is
/// pooled; steady-state sends allocate nothing. With `cache` the
/// coherent format is used (see file header): an unchanged block skips
/// the encode charge, an unchanged all-blank block sends one byte.
void send_block(comm::Comm& comm, int dst, int tag,
                std::span<const img::GrayA8> px,
                const compress::BlockGeometry& geom,
                const compress::Codec* codec,
                frames::RankCoherence* cache = nullptr);

/// Receives a block of `out.size()` pixels from `src` and decodes it.
/// Malformed payload bytes throw wire::DecodeError. `coherent` must
/// match the sender's use of a coherence cache.
void recv_block(comm::Comm& comm, int src, int tag,
                std::span<img::GrayA8> out,
                const compress::BlockGeometry& geom,
                const compress::Codec* codec, bool coherent = false);

/// Fault-tolerant recv_block. Under a degrading policy (kBlank or
/// kRecompose) a lost message
/// (dead peer or exhausted retry budget) *or a malformed payload* fills
/// `out` with blank pixels, records `block_id`/pixel count via
/// Comm::note_loss, and returns false; the caller skips the blend
/// (blank is the identity). Under kThrow it behaves exactly like
/// recv_block. Returns true when real pixels arrived. A coherent
/// clean-blank marker counts as *arrived* (returns true, `out` filled
/// blank, no loss recorded) and additionally sets `*clean_blank` so
/// the caller can skip the blend charge.
bool recv_block_or_blank(comm::Comm& comm, int src, int tag,
                         std::span<img::GrayA8> out,
                         const compress::BlockGeometry& geom,
                         const compress::Codec* codec,
                         const comm::ResiliencePolicy& policy,
                         std::int64_t block_id, bool coherent = false,
                         bool* clean_blank = nullptr);

/// Fused fault-tolerant receive-and-blend: receives the peer's block
/// and composites it straight into `dst` via Codec::decode_blend — no
/// intermediate image materializes for codecs with a fused path (TRLE,
/// RLE skip blank structure entirely). Charges the same codec and
/// blend time as recv + blend, so virtual-time results are unchanged.
/// Under a degrading policy a loss or malformed payload notes the loss
/// and returns false without contributing (a payload that decodes
/// partway before failing validation may leave a partial contribution
/// in `dst`; the loss is recorded either way). `scratch` backs codecs
/// without a fused path and is reused across calls. A coherent
/// clean-blank marker is the blend identity: `dst` is untouched and no
/// codec or blend time is charged.
bool recv_block_blend(comm::Comm& comm, int src, int tag,
                      std::span<img::GrayA8> dst,
                      const compress::BlockGeometry& geom,
                      const compress::Codec* codec, img::BlendMode mode,
                      bool src_front, const comm::ResiliencePolicy& policy,
                      std::int64_t block_id,
                      std::vector<img::GrayA8>& scratch,
                      bool coherent = false, int saturation = 0);

/// Appends one length-prefixed encoded block to `payload` — used to
/// aggregate several blocks for the same receiver into one message, and
/// for the pipelined ring's traveling segments.
/// Encodes directly into `payload` (no intermediate body buffer).
/// `tag` attributes the encode span to its compositor step (obs).
/// With `cache`, `peer` keys the coherence slot (the receiving rank).
void append_block(comm::Comm& comm, int tag,
                  std::vector<std::byte>& payload,
                  std::span<const img::GrayA8> px,
                  const compress::BlockGeometry& geom,
                  const compress::Codec* codec,
                  frames::RankCoherence* cache = nullptr, int peer = -1);

/// Consumes one length-prefixed block from `rest` (advancing it) and
/// decodes exactly `out.size()` pixels. Malformed framing or payload
/// throws wire::DecodeError.
void take_block(comm::Comm& comm, int tag,
                std::span<const std::byte>& rest,
                std::span<img::GrayA8> out,
                const compress::BlockGeometry& geom,
                const compress::Codec* codec, bool coherent = false);

/// take_block fused with the blend: consumes one length-prefixed block
/// from `rest` and composites it straight into `dst`. Charges codec
/// time plus the blend's To like take_block + blend_in_place +
/// charge_over would. A coherent clean-blank block charges neither.
void take_block_blend(comm::Comm& comm, int tag,
                      std::span<const std::byte>& rest,
                      std::span<img::GrayA8> dst,
                      const compress::BlockGeometry& geom,
                      const compress::Codec* codec, img::BlendMode mode,
                      bool src_front, std::vector<img::GrayA8>& scratch,
                      bool coherent = false, int saturation = 0);

/// Tag bases; methods use step numbers below kGatherTag.
inline constexpr int kGatherTag = 1'000'000;

/// A self-describing final-image fragment used by the gather stage:
/// [u32 depth][u64 index][raw pixels].
[[nodiscard]] std::vector<std::byte> pack_fragment(
    int depth, std::int64_t index, std::span<const img::GrayA8> px);

struct Fragment {
  int depth = 0;
  std::int64_t index = 0;
  std::vector<img::GrayA8> pixels;
};
/// Throws wire::DecodeError on malformed bytes (short header, payload
/// not a whole number of pixels).
[[nodiscard]] Fragment unpack_fragment(std::span<const std::byte> bytes);

/// Decodes one rank's gather payload ([u32 count] then count
/// length-prefixed fragments) and copies each fragment into its tiling
/// span of `out`. Every wire-derived field — fragment lengths, depth,
/// index, pixel counts — is validated against `tiling`/`out` before
/// use; malformed bytes throw wire::DecodeError. Exposed as a free
/// function so the untrusted-input path is testable without a World.
/// With `sink`, each fragment is additionally delivered as a finished
/// tile of `frame` the moment it lands. Returns the number of pixels
/// written (for staleness accounting when the payload was substituted).
std::int64_t scatter_fragments_into(img::Image& out,
                                    const img::Tiling& tiling,
                                    std::span<const std::byte> payload,
                                    frames::TileSink* sink = nullptr,
                                    int frame = 0);

/// Decodes one rank's span-gather payload ([i64 begin][i64 end][raw
/// pixels]) into `out`, validating the span against the image bounds
/// and the payload size before writing. Throws wire::DecodeError.
/// Returns the number of pixels written.
std::int64_t scatter_span_into(img::Image& out,
                               std::span<const std::byte> payload,
                               frames::TileSink* sink = nullptr,
                               int frame = 0);

/// One final block a rank owns: its (depth, index) against the tiling
/// and a view of its composited pixels, wherever the rank holds them.
struct OwnedBlock {
  int depth = 0;
  std::int64_t index = 0;
  std::span<const img::GrayA8> pixels;
};

/// Gathers the (depth, index) blocks each rank finally owns into the
/// assembled `width` x `height` image at `root`; other ranks return an
/// empty image. `owned` lists this rank's final blocks against
/// `tiling`, each view exactly its block's size. Under a degrading
/// policy a rank whose payload is lost or malformed leaves its blocks
/// blank (recorded via note_loss); under kThrow malformed bytes
/// propagate as wire::DecodeError. With `sink`, the root delivers each
/// gathered fragment incrementally as a tile of `frame` (lost ranks'
/// regions are never delivered — they stay blank).
[[nodiscard]] img::Image gather_fragments(
    comm::Comm& comm, const img::Tiling& tiling,
    std::span<const OwnedBlock> owned, int root, int width, int height,
    frames::TileSink* sink = nullptr, int frame = 0);

/// Gathers one arbitrary pixel span per rank (methods whose final
/// blocks are not tiling-aligned, e.g. radix-k). Every rank passes its
/// span and a view of that span's pixels; the assembled image returns
/// at `root`. Loss/malformed-payload handling matches
/// gather_fragments, and `sink`/`frame` deliver spans incrementally the
/// same way.
[[nodiscard]] img::Image gather_spans(comm::Comm& comm, img::PixelSpan span,
                                      std::span<const img::GrayA8> pixels,
                                      int root, int width, int height,
                                      frames::TileSink* sink = nullptr,
                                      int frame = 0);

}  // namespace rtc::compositing
