// Radix-k composition (extension beyond the paper).
//
// The modern generalization of binary-swap (Peterka et al. 2009, as in
// IceT): factor P into rounds of group size <= k; within a round each
// group member keeps one 1/g piece of its live block and direct-sends
// the other pieces to the owning members. Groups are formed over the
// mixed-radix digits of the rank, so every merge combines depth-
// adjacent coverage intervals and "over" stays order-correct.
// Included because the RT method occupies the same design space
// (arbitrary P, tunable message count/size) — bench_ablation compares
// them under the same network model.
//
// Options::initial_blocks is reused as the radix k (>= 2).
#include <algorithm>
#include <numeric>

#include "rtc/common/check.hpp"
#include "rtc/compositing/builtin.hpp"
#include "rtc/compositing/compositor.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/frames/coherence.hpp"

namespace rtc::compositing {

namespace {

/// Near-equal split of [b, e): piece j of g.
img::PixelSpan piece_of(img::PixelSpan s, int g, int j) {
  const std::int64_t n = s.size();
  const std::int64_t q = n / g;
  const std::int64_t r = n % g;
  img::PixelSpan out;
  out.begin = s.begin + q * j + std::min<std::int64_t>(j, r);
  out.end = out.begin + q + (j < r ? 1 : 0);
  return out;
}

/// Factors p into round sizes, largest-first, each <= k where
/// possible; a prime factor > k becomes its own (big) round.
std::vector<int> factor_rounds(int p, int k) {
  std::vector<int> rounds;
  int rest = p;
  while (rest > 1) {
    int g = 1;
    for (int f = std::min(k, rest); f >= 2; --f) {
      if (rest % f == 0) {
        g = f;
        break;
      }
    }
    if (g == 1) {  // prime > k
      g = rest;
    }
    rounds.push_back(g);
    rest /= g;
  }
  return rounds;
}

class RadixK final : public Compositor {
 public:
  [[nodiscard]] std::string name() const override { return "radix"; }

  [[nodiscard]] img::Image run_core(comm::Comm& comm, const img::Image& partial,
                               const Options& opt) const override {
    const int p = comm.size();
    const int r = comm.rank();
    const int k = std::max(2, opt.initial_blocks);
    frames::RankCoherence* cache =
        opt.coherence != nullptr ? &opt.coherence->rank(r) : nullptr;
    const bool coherent = opt.coherence != nullptr;

    // The rank's current pixels, starting at image pixel `first`: the
    // partial until round 0 has sent, then only the rank's own round-0
    // piece (`own`), within which every later round's span shrinks.
    img::PixelSpan span{0, partial.pixel_count()};
    std::vector<img::GrayA8> own;
    std::span<const img::GrayA8> current = partial.pixels();
    std::int64_t first = 0;
    const auto offset = [&](img::PixelSpan s) {
      return static_cast<std::size_t>(s.begin - first);
    };
    const auto pixels_at = [&](img::PixelSpan s) {
      return current.subspan(offset(s), static_cast<std::size_t>(s.size()));
    };
    int stride = 1;  // product of earlier round sizes

    const std::vector<int> rounds = factor_rounds(p, k);
    for (std::size_t t = 0; t < rounds.size(); ++t) {
      const int g = rounds[t];
      const int tag = static_cast<int>(t) + 1;
      // My digit within this round's group and the group's base rank.
      const int digit = (r / stride) % g;
      const int base = r - digit * stride;

      // Send every piece except mine to its owner; owners are the
      // group members in digit order, so coverage stays contiguous.
      for (int j = 0; j < g; ++j) {
        if (j == digit) continue;
        const img::PixelSpan pc = piece_of(span, g, j);
        const compress::BlockGeometry geom{partial.width(), pc.begin};
        send_block(comm, base + j * stride, tag, pixels_at(pc), geom,
                   opt.codec, cache);
      }

      const img::PixelSpan mine = piece_of(span, g, digit);
      if (t == 0) {
        own.resize(static_cast<std::size_t>(mine.size()));
        std::ranges::copy(partial.view(mine), own.begin());
        current = own;
        first = mine.begin;
      }

      // Receive my piece from every other member, then fold in
      // adjacency order — nearer digits first, so every "over" joins
      // depth-adjacent coverage intervals (folding in arrival order
      // would fuse non-adjacent intervals, the very defect the loose
      // ring has).
      const compress::BlockGeometry geom{partial.width(), mine.begin};
      std::vector<std::vector<img::GrayA8>> arrived(
          static_cast<std::size_t>(g));
      // A lost piece and a coherent clean-blank one are both the blend
      // identity: their folds (and blend charges) are skipped.
      std::vector<std::uint8_t> fold_it(static_cast<std::size_t>(g), 0);
      for (int j = 0; j < g; ++j) {
        if (j == digit) continue;
        const auto ju = static_cast<std::size_t>(j);
        arrived[ju].resize(static_cast<std::size_t>(mine.size()));
        const CarriedBlock carried[] = {{base + j * stride, mine.size()}};
        recv_blocks(comm, base + j * stride, tag, opt.resilience, carried,
                    [&](std::span<const std::byte> bytes, std::size_t&) {
                      fold_it[ju] = !decode_block(comm, tag, bytes,
                                                  arrived[ju], geom,
                                                  opt.codec, coherent);
                    });
      }
      auto fold = [&](int j, bool front) {
        if (!fold_it[static_cast<std::size_t>(j)]) return;
        blend_block(comm,
                    std::span<img::GrayA8>(own).subspan(
                        offset(mine), static_cast<std::size_t>(mine.size())),
                    arrived[static_cast<std::size_t>(j)], opt.blend, front,
                    opt.approx_saturation);
      };
      for (int j = digit - 1; j >= 0; --j) fold(j, /*front=*/true);
      for (int j = digit + 1; j < g; ++j) fold(j, /*front=*/false);
      span = mine;
      stride *= g;
    }

    if (!opt.gather) return img::Image{};
    return gather_spans(comm, span, pixels_at(span), opt.root,
                        partial.width(), partial.height(), opt.sink,
                        opt.frame_id);
  }
};

}  // namespace

std::unique_ptr<Compositor> make_radix_k() {
  return std::make_unique<RadixK>();
}

}  // namespace rtc::compositing
