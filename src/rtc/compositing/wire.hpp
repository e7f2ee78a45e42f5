// Helpers for moving pixel blocks between ranks through a codec.
//
// Everything received here crossed the wire and is untrusted: all
// parsing goes through wire::WireReader, and malformed bytes surface as
// typed wire::DecodeError instead of undefined behavior (see
// docs/fault_model.md §6). The hot composition path is allocation-free
// in steady state: encode buffers come from the rank's BufferPool,
// received payloads are released back into it, and decode_blend_block
// composites decoded runs directly into the destination block.
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
#include <type_traits>
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

/// One block a message carries: its id and pixel count, for loss and
/// staleness accounting.
struct CarriedBlock {
  std::int64_t id = 0;
  std::int64_t pixels = 0;
};

/// Consumes a received payload: `decode(payload, done)` increments
/// `done` once for each carried block it finishes, in order, and throws
/// wire::DecodeError on malformed bytes. A non-owning reference to the
/// caller's callable, so no message allocates (std::function would);
/// it lives as long as the recv_blocks call it is passed to.
class PayloadDecoder {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, PayloadDecoder>)
  PayloadDecoder(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f),
        call_([](void* obj, std::span<const std::byte> p, std::size_t& n) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(p, n);
        }) {}
  void operator()(std::span<const std::byte> p, std::size_t& n) const {
    call_(obj_, p, n);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::span<const std::byte>, std::size_t&);
};

/// The one receive path of every compositor: receives the message from
/// `src` on `tag` that carries `blocks` and hands its payload to
/// `decode`; the payload then returns to the pool. What a lost, stale
/// or malformed message does to its blocks is decided here, once:
///   - under kThrow a loss throws Comm::recv's CommError and malformed
///     bytes propagate as wire::DecodeError;
///   - under a degrading policy (kBlank, kRecompose) a lost message
///     notes every block it carries as a loss, and a payload that
///     fails validation notes each block `decode` did not finish;
///   - a block counts as stale only once it was decoded from a
///     substituted payload (Comm::last_recv_stale). A lost or rejected
///     block is a loss and never stale.
/// Returns true when the whole payload decoded. Callers react to false
/// in their own way (skip the fold, restart a ring segment, leave the
/// block as it is); the accounting is already done.
bool recv_blocks(comm::Comm& comm, int src, int tag,
                 const comm::ResiliencePolicy& policy,
                 std::span<const CarriedBlock> blocks,
                 PayloadDecoder decode);

/// The one blend rule: folds `src` into `dst` by `mode`, `src_front`
/// saying which side `src` is on under kOver. With `saturation` > 0
/// and kOver it is the approximate rung's blend
/// (img::blend_in_place_approx). Charges To for the blended pixels
/// and reports skipped ones through Comm::note_approx.
void blend_block(comm::Comm& comm, std::span<img::GrayA8> dst,
                 std::span<const img::GrayA8> src, img::BlendMode mode,
                 bool src_front, int saturation);

/// Decodes one block payload into `out` (raw when `codec` is null) and
/// charges codec time. Returns true for a coherent clean-blank marker:
/// `out` is filled blank for free and the caller can skip the blend.
/// `coherent` must match the sender's use of a coherence cache.
/// Malformed bytes throw wire::DecodeError.
bool decode_block(comm::Comm& comm, int tag,
                  std::span<const std::byte> bytes,
                  std::span<img::GrayA8> out,
                  const compress::BlockGeometry& geom,
                  const compress::Codec* codec, bool coherent = false);

/// Fused decode-and-blend of one block payload into `dst` via
/// Codec::decode_blend (or decode_blend_approx under the approx rule):
/// no intermediate image materializes for codecs with a fused path
/// (TRLE, RLE skip blank structure entirely). Charges the same codec
/// and blend time as decode_block + blend_block, so virtual-time
/// results are unchanged. A payload that decodes partway before
/// failing validation may leave a partial contribution in `dst`.
/// `scratch` backs codecs without a fused path and is reused across
/// calls. A coherent clean-blank marker is the blend identity: `dst`
/// is untouched and no codec or blend time is charged.
void decode_blend_block(comm::Comm& comm, int tag,
                        std::span<const std::byte> bytes,
                        std::span<img::GrayA8> dst,
                        const compress::BlockGeometry& geom,
                        const compress::Codec* codec, img::BlendMode mode,
                        bool src_front, std::vector<img::GrayA8>& scratch,
                        bool coherent = false, int saturation = 0);

/// Appends one length-prefixed encoded block to `payload` — used to
/// aggregate several blocks for the same receiver into one message, and
/// for the pipelined ring's traveling segments; the receiver frames
/// each one with wire::WireReader::length_prefixed.
/// Encodes directly into `payload` (no intermediate body buffer).
/// `tag` attributes the encode span to its compositor step (obs).
/// With `cache`, `peer` keys the coherence slot (the receiving rank).
void append_block(comm::Comm& comm, int tag,
                  std::vector<std::byte>& payload,
                  std::span<const img::GrayA8> px,
                  const compress::BlockGeometry& geom,
                  const compress::Codec* codec,
                  frames::RankCoherence* cache = nullptr, int peer = -1);

/// Tag bases; methods use step numbers below kGatherTag.
inline constexpr int kGatherTag = 1'000'000;

/// A self-describing final-image fragment used by the gather stage:
/// [u32 depth][u64 index][raw pixels].
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
/// policy a lost rank's blocks stay blank (Comm counts the lost
/// message), and a malformed payload leaves the rest of its blocks
/// blank and is noted as a loss of that rank; under kThrow malformed
/// bytes propagate as wire::DecodeError. A substituted payload is
/// noted stale once it scattered. With `sink`, the root delivers each
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
