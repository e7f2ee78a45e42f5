// Parallel-pipelined composition (Lee [13]) — the ring baseline.
//
// Each sub-image is split into P blocks. Block b's accumulation starts
// at rank (b+1) mod P and travels the ring for P-1 steps; every rank it
// passes composites its own contribution, and block b finishes at rank
// b. Per step every rank sends one block of A/P pixels and receives
// one — exactly the Table 1 cost.
//
// Order caveat: with the non-commutative "over", the ring accumulation
// of block b fuses ranks in the order b+1, ..., P-1, 0, ..., b. The
// fusion across the P-1 -> 0 seam joins non-adjacent depth intervals,
// which is wrong for semi-transparent overlap. The paper (following
// Lee's z-buffer setting, where merges commute) does not address this.
// Two implementations are provided:
//   "pp"       — paper-faithful single accumulation (seam fused loose);
//                exact whenever each pixel is non-blank on at most one
//                rank (e.g. screen-disjoint 2-D partitions).
//   "pp_exact" — carries the pre-seam ("back") and post-seam ("front")
//                partials as separate segments and joins them only at
//                the destination; order-correct for any input at the
//                cost of one extra in-flight segment after the seam.
#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compositing/compositor.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::compositing {

namespace {

int mod(int a, int p) { return ((a % p) + p) % p; }

class Pipelined final : public Compositor {
 public:
  explicit Pipelined(bool exact) : exact_(exact) {}

  [[nodiscard]] std::string name() const override {
    return exact_ ? "pp_exact" : "pp";
  }

  [[nodiscard]] img::Image run_core(comm::Comm& comm, const img::Image& partial,
                               const Options& opt) const override {
    const int p = comm.size();
    const int r = comm.rank();
    const img::Tiling tiling(partial.pixel_count(), p);

    if (p == 1) {
      if (!opt.gather) return img::Image{};
      const OwnedBlock owned[] = {{0, 0, partial.pixels()}};
      return gather_fragments(comm, tiling, owned, opt.root,
                              partial.width(), partial.height(), opt.sink,
                              opt.frame_id);
    }

    // Initiate block (r-1): my own contribution, as the "back" segment.
    State state;
    {
      const img::PixelSpan s = tiling.block(0, mod(r - 1, p));
      const std::span<const img::GrayA8> v = partial.view(s);
      state.back.assign(v.begin(), v.end());
    }

    std::vector<img::GrayA8> final_pixels;

    for (int t = 1; t <= p - 1; ++t) {
      const int send_block_id = mod(r - t, p);
      const int recv_block_id = mod(r - t - 1, p);
      const int next = mod(r + 1, p);
      const int prev = mod(r - 1, p);

      send_state(comm, next, t, state, tiling, send_block_id,
                 partial.width(), opt.codec);
      state = recv_state(comm, prev, t, tiling, recv_block_id,
                         partial.width(), opt.codec, opt.resilience);

      // Composite my own contribution for the received block.
      const img::PixelSpan s = tiling.block(0, recv_block_id);
      const std::span<const img::GrayA8> mine = partial.view(s);
      const int initiator = mod(recv_block_id + 1, p);
      const bool at_seam = (r == 0 && initiator != 0);
      if (opt.blend == img::BlendMode::kMax) {
        // Commutative merge: no seam, no segments, any order works.
        img::max_in_place(state.back, mine);
        comm.charge_over(s.size());
      } else if (exact_ && at_seam) {
        // Start the front segment rather than fusing across the seam.
        RTC_CHECK(state.front.empty());
        state.front.assign(mine.begin(), mine.end());
      } else if (!state.front.empty()) {
        // Post-seam (exact mode): extend the front segment behind.
        img::over_in_place_back(state.front, mine);
        comm.charge_over(s.size());
      } else {
        // Pre-seam, or loose mode: the arrival is in front of me in
        // ring order, so my pixels go behind it.
        img::over_in_place_back(state.back, mine);
        comm.charge_over(s.size());
      }

      comm.mark(t);
      if (t == p - 1) {
        // Block recv_block_id == r is complete; join segments.
        RTC_CHECK(recv_block_id == r);
        if (!state.front.empty()) {
          img::over_in_place_back(state.front, state.back);
          comm.charge_over(s.size());
          final_pixels = std::move(state.front);
        } else {
          final_pixels = std::move(state.back);
        }
      }
    }

    if (!opt.gather) return img::Image{};
    // My final block is the joined ring segment itself.
    const OwnedBlock owned[] = {
        {0, static_cast<std::int64_t>(r), final_pixels}};
    return gather_fragments(comm, tiling, owned, opt.root, partial.width(),
                            partial.height(), opt.sink, opt.frame_id);
  }

 private:
  /// Traveling accumulation: one (or, in exact mode after the seam,
  /// two) pixel buffers for the block currently passing through.
  struct State {
    std::vector<img::GrayA8> front;  // covers ranks [0 .. e] (post-seam)
    std::vector<img::GrayA8> back;   // covers ranks [b+1 .. hi]
  };

  static void send_state(comm::Comm& comm, int dst, int tag,
                         const State& state, const img::Tiling& tiling,
                         int block_id, int width,
                         const compress::Codec* codec) {
    const img::PixelSpan s = tiling.block(0, block_id);
    const compress::BlockGeometry geom{width, s.begin};
    std::vector<std::byte> payload = comm.pool().acquire();
    payload.push_back(static_cast<std::byte>(state.front.empty() ? 0 : 1));
    if (!state.front.empty())
      append_block(comm, tag, payload, state.front, geom, codec);
    append_block(comm, tag, payload, state.back, geom, codec);
    comm.send(dst, tag, std::move(payload));
  }

  static State recv_state(comm::Comm& comm, int src, int tag,
                          const img::Tiling& tiling, int block_id,
                          int width, const compress::Codec* codec,
                          const comm::ResiliencePolicy& policy) {
    const img::PixelSpan s = tiling.block(0, block_id);
    const compress::BlockGeometry geom{width, s.begin};
    std::vector<std::byte> payload;
    if (policy.degrade_on_loss()) {
      std::optional<std::vector<std::byte>> p = comm.try_recv(src, tag);
      if (!p) {
        // The traveling accumulation for this block is gone: restart it
        // from a blank segment; downstream ranks still fold their own
        // contributions in, so the block degrades to a partial stack.
        comm.note_loss(block_id, s.size());
        State blank;
        blank.back.assign(static_cast<std::size_t>(s.size()), img::kBlank);
        return blank;
      }
      payload = std::move(*p);
    } else {
      payload = comm.recv(src, tag);
    }
    if (comm.last_recv_stale()) comm.note_stale(block_id, s.size());
    try {
      wire::WireReader r(payload);
      const bool has_front = r.u8("segment-state flag") != 0;
      std::span<const std::byte> rest = r.rest();
      const auto pixels = static_cast<std::size_t>(s.size());
      State state;
      if (has_front) {
        state.front.resize(pixels);
        take_block(comm, tag, rest, state.front, geom, codec);
      }
      state.back.resize(pixels);
      take_block(comm, tag, rest, state.back, geom, codec);
      wire::require(rest.empty(), wire::DecodeError::Kind::kTrailing,
                    "ring segment payload");
      comm.pool().release(std::move(payload));
      return state;
    } catch (const wire::DecodeError&) {
      // Malformed traveling accumulation: degrade like a lost message
      // under kBlank (blank restart), propagate under kThrow.
      if (!policy.degrade_on_loss()) throw;
      comm.pool().release(std::move(payload));
      comm.note_loss(block_id, s.size());
      State blank;
      blank.back.assign(static_cast<std::size_t>(s.size()), img::kBlank);
      return blank;
    }
  }

  bool exact_;
};

}  // namespace

std::unique_ptr<Compositor> make_pipelined(bool exact);
std::unique_ptr<Compositor> make_pipelined(bool exact) {
  return std::make_unique<Pipelined>(exact);
}

}  // namespace rtc::compositing
