#include "rtc/core/schedule_compositor.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::core {

namespace {

/// The pixels one rank composites into. Before step 1 the rank walks
/// the schedule once and collects every span it receives into. Tiling
/// blocks nest and step depths never decrease, so each receive span
/// lies inside one earlier span or outside all of them; only the
/// outermost ones are copied out of the partial, into one compact
/// buffer. A block inside a held span is read from that buffer. Any
/// other block has received nothing yet, so it is read from the partial.
class RankStore {
 public:
  RankStore(const img::Image& partial, const Schedule& sched,
            const img::Tiling& tiling, int rank)
      : partial_(partial) {
    std::vector<img::PixelSpan> recv;
    int depth = 0;
    for (const Step& step : sched.steps) {
      RTC_CHECK_MSG(step.depth >= depth, "schedule depths must not decrease");
      depth = step.depth;
      for (const Merge& m : step.merges) {
        if (m.receiver != rank) continue;
        const img::PixelSpan s = tiling.block(step.depth, m.block);
        if (!s.empty()) recv.push_back(s);
      }
    }
    // Outer spans first: ascending begin, the longer of equal begins.
    std::sort(recv.begin(), recv.end(),
              [](const img::PixelSpan& a, const img::PixelSpan& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.end > b.end;
              });
    std::int64_t size = 0;
    for (const img::PixelSpan& s : recv) {
      if (!held_.empty() && s.begin < held_.back().end) {
        RTC_CHECK_MSG(s.end <= held_.back().end, "receive spans must nest");
        continue;
      }
      held_.push_back(s);
      offset_.push_back(size);
      size += s.size();
    }
    // resize + copy: GrayA8's member initializers make it non-trivial,
    // so copy-constructing a range would go pixel by pixel.
    px_.resize(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < held_.size(); ++i)
      std::ranges::copy(partial.view(held_[i]),
                        px_.begin() + static_cast<std::ptrdiff_t>(offset_[i]));
  }

  /// The rank's current pixels of `s`.
  [[nodiscard]] std::span<const img::GrayA8> read(img::PixelSpan s) const {
    const int h = find(s);
    if (h < 0) return partial_.view(s);
    return std::span<const img::GrayA8>(px_).subspan(
        pos(h, s), static_cast<std::size_t>(s.size()));
  }

  /// The held pixels of a span the rank receives into.
  [[nodiscard]] std::span<img::GrayA8> write(img::PixelSpan s) {
    if (s.empty()) return {};
    const int h = find(s);
    RTC_CHECK_MSG(h >= 0, "receive span outside the rank store");
    return std::span<img::GrayA8>(px_).subspan(
        pos(h, s), static_cast<std::size_t>(s.size()));
  }

 private:
  /// Index of the held span containing non-empty `s`, or -1.
  [[nodiscard]] int find(img::PixelSpan s) const {
    for (std::size_t h = 0; h < held_.size() && !s.empty(); ++h)
      if (held_[h].begin <= s.begin && s.end <= held_[h].end)
        return static_cast<int>(h);
    return -1;
  }

  /// Where `s`, inside held span `h`, starts in px_.
  [[nodiscard]] std::size_t pos(int h, img::PixelSpan s) const {
    const auto i = static_cast<std::size_t>(h);
    return static_cast<std::size_t>(offset_[i] + s.begin - held_[i].begin);
  }

  const img::Image& partial_;
  std::vector<img::PixelSpan> held_;  ///< outermost receive spans
  std::vector<std::int64_t> offset_;  ///< each one's start in px_
  std::vector<img::GrayA8> px_;
};

class ScheduleCompositor final : public compositing::Compositor {
 public:
  explicit ScheduleCompositor(std::string method)
      : method_(std::move(method)) {}

  [[nodiscard]] std::string name() const override { return method_; }

  [[nodiscard]] img::Image run_core(
      comm::Comm& comm, const img::Image& partial,
      const compositing::Options& opt) const override;

 private:
  /// The schedule of `method` over `p` ranks. Every rank of a run
  /// shares this compositor object and asks for the same schedule, so
  /// it is built once and handed out read-only. Group views (survivor
  /// recomposition, hier levels) key on their own P.
  [[nodiscard]] std::shared_ptr<const Schedule> schedule(
      const std::string& method, int p, int initial_blocks,
      int root) const;

  std::string method_;
  mutable std::mutex mu_;
  mutable std::map<std::tuple<std::string, int, int, int>,
                   std::shared_ptr<const Schedule>>
      schedules_;
};

std::shared_ptr<const Schedule> ScheduleCompositor::schedule(
    const std::string& method, int p, int initial_blocks, int root) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const Schedule>& s =
      schedules_[std::make_tuple(method, p, initial_blocks, root)];
  if (s == nullptr)
    s = std::make_shared<const Schedule>(
        build_schedule(method, p, initial_blocks, root));
  return s;
}

img::Image ScheduleCompositor::run_core(
    comm::Comm& comm, const img::Image& partial,
    const compositing::Options& opt) const {
  const int p = comm.size();
  const int r = comm.rank();
  // Under a group view (survivor recomposition, a hier level) the rank
  // count is not the caller's choice, so a method whose applicability
  // rule it breaks runs its any-P sibling. Ungrouped runs keep the
  // strict check.
  const std::shared_ptr<const Schedule> shared = schedule(
      comm.group() != nullptr ? any_p_method(method_, p) : method_, p,
      opt.initial_blocks, opt.root);
  const Schedule& sched = *shared;
  const img::Tiling tiling(partial.pixel_count(), sched.initial_blocks);

  RankStore store(partial, sched, tiling, r);
  frames::RankCoherence* cache =
      opt.coherence != nullptr ? &opt.coherence->rank(r) : nullptr;
  const bool coherent = opt.coherence != nullptr;
  std::vector<img::GrayA8> scratch;  // decode_blend fallback, reused

  for (const Step& step : sched.steps) {
    const int tag = step.tag;

    // Issue every send first so transmissions pipeline behind the
    // receive/composite loop (the "tiling" payoff). With
    // aggregate_messages, blocks bound for the same receiver ride in
    // one message — the batching visible in the paper's Figure 1,
    // where P1 ships blocks 0 and 3 to P0 as a single send. Both sides
    // walk the schedule in the same order, so grouping is implicit.
    if (opt.aggregate_messages) {
      std::map<int, std::vector<const Merge*>> outgoing;  // by receiver
      std::map<int, std::vector<const Merge*>> incoming_by_sender;
      std::map<std::int64_t, int> last_sender;  // by block
      for (const Merge& m : step.merges) {
        if (m.sender == r) outgoing[m.receiver].push_back(&m);
        if (m.receiver != r) continue;
        // Messages are taken in ascending sender order; "over" does
        // not commute, so merges into one block must already be in it.
        const auto [it, fresh] = last_sender.try_emplace(m.block, m.sender);
        RTC_CHECK_MSG(fresh || it->second < m.sender,
                      "aggregation would reorder merges into one block");
        it->second = m.sender;
        incoming_by_sender[m.sender].push_back(&m);
      }
      for (const auto& [receiver, merges] : outgoing) {
        std::vector<std::byte> payload = comm.pool().acquire();
        for (const Merge* m : merges) {
          const img::PixelSpan span = tiling.block(step.depth, m->block);
          const compress::BlockGeometry geom{partial.width(), span.begin};
          compositing::append_block(comm, tag, payload, store.read(span),
                                    geom, opt.codec, cache, receiver);
        }
        comm.send(receiver, tag, std::move(payload));
      }
      for (const auto& [sender, merges] : incoming_by_sender) {
        std::vector<compositing::CarriedBlock> carried;
        for (const Merge* m : merges)
          carried.push_back(
              {m->block, tiling.block(step.depth, m->block).size()});
        // A lost or malformed aggregate leaves every block it did not
        // finish as it is: blank is the identity, so no blend, no To.
        compositing::recv_blocks(
            comm, sender, tag, opt.resilience, carried,
            [&](std::span<const std::byte> payload, std::size_t& done) {
              wire::WireReader in(payload);
              for (const Merge* m : merges) {
                const img::PixelSpan span =
                    tiling.block(step.depth, m->block);
                const compress::BlockGeometry geom{partial.width(),
                                                   span.begin};
                compositing::decode_blend_block(
                    comm, tag, in.length_prefixed("length-prefixed block"),
                    store.write(span), geom, opt.codec, opt.blend,
                    m->sender_front, scratch, coherent,
                    opt.approx_saturation);
                ++done;
              }
              in.finish("trailing bytes in aggregated message");
            });
      }
      comm.mark(tag);
      continue;
    }

    // Per-merge messages (the paper's per-message cost accounting).
    for (const Merge& m : step.merges) {
      if (m.sender != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      compositing::send_block(comm, m.receiver, tag, store.read(span),
                              geom, opt.codec, cache);
    }
    for (const Merge& m : step.merges) {
      if (m.receiver != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      const compositing::CarriedBlock carried[] = {{m.block, span.size()}};
      compositing::recv_blocks(
          comm, m.sender, tag, opt.resilience, carried,
          [&](std::span<const std::byte> bytes, std::size_t&) {
            compositing::decode_blend_block(
                comm, tag, bytes, store.write(span), geom, opt.codec,
                opt.blend, m.sender_front, scratch, coherent,
                opt.approx_saturation);
          });
    }
    comm.mark(tag);
  }

  if (sched.ends_at_root) {
    // No gather stage — the whole image already sits at the root — so
    // the frame is delivered as one full-surface tile.
    if (r != opt.root) return img::Image{};
    img::Image out(partial.width(), partial.height());
    const img::PixelSpan all{0, out.pixel_count()};
    std::ranges::copy(store.read(all), out.pixels().begin());
    if (opt.sink != nullptr)
      opt.sink->deliver_tile(opt.frame_id, all, out.pixels());
    return out;
  }
  if (!opt.gather) return img::Image{};
  std::vector<compositing::OwnedBlock> owned;
  for (const auto& [depth, index] : sched.owned_blocks(r))
    owned.push_back({depth, index, store.read(tiling.block(depth, index))});
  return compositing::gather_fragments(comm, tiling, owned, opt.root,
                                       partial.width(), partial.height(),
                                       opt.sink, opt.frame_id);
}

}  // namespace

std::unique_ptr<compositing::Compositor> make_schedule_compositor(
    const std::string& method) {
  return std::make_unique<ScheduleCompositor>(method);
}

}  // namespace rtc::core
