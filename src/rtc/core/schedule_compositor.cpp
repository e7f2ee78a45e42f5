#include "rtc/core/schedule_compositor.hpp"

#include <map>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::core {

namespace {

class ScheduleCompositor final : public compositing::Compositor {
 public:
  explicit ScheduleCompositor(std::string method)
      : method_(std::move(method)) {}

  [[nodiscard]] std::string name() const override { return method_; }

  [[nodiscard]] img::Image run_core(
      comm::Comm& comm, const img::Image& partial,
      const compositing::Options& opt) const override;

 private:
  std::string method_;
};

img::Image ScheduleCompositor::run_core(
    comm::Comm& comm, const img::Image& partial,
    const compositing::Options& opt) const {
  const int p = comm.size();
  const int r = comm.rank();
  // Under a group view (survivor recomposition, a hier level) the rank
  // count is not the caller's choice, so a method whose applicability
  // rule it breaks runs its any-P sibling. Ungrouped runs keep the
  // strict check.
  const Schedule sched = build_schedule(
      comm.group() != nullptr ? any_p_method(method_, p) : method_, p,
      opt.initial_blocks, opt.root);
  const img::Tiling tiling(partial.pixel_count(), sched.initial_blocks);

  img::Image buf = partial;
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
          compositing::append_block(comm, tag, payload, buf.view(span),
                                    geom, opt.codec, cache, receiver);
        }
        comm.send(receiver, tag, std::move(payload));
      }
      const bool blank_on_loss = opt.resilience.degrade_on_loss();
      for (const auto& [sender, merges] : incoming_by_sender) {
        std::vector<std::byte> payload;
        if (blank_on_loss) {
          std::optional<std::vector<std::byte>> got =
              comm.try_recv(sender, tag);
          if (!got) {
            // The whole aggregated message is gone: every block it
            // carried degrades to blank (identity — no blend, no To).
            for (const Merge* m : merges) {
              const img::PixelSpan span =
                  tiling.block(step.depth, m->block);
              comm.note_loss(m->block, span.size());
            }
            continue;
          }
          payload = std::move(*got);
        } else {
          payload = comm.recv(sender, tag);
        }
        if (comm.last_recv_stale()) {
          // The whole aggregated message was substituted from last
          // frame: every block it carries is one frame old.
          for (const Merge* m : merges) {
            const img::PixelSpan span = tiling.block(step.depth, m->block);
            comm.note_stale(m->block, span.size());
          }
        }
        std::span<const std::byte> rest(payload);
        std::size_t done = 0;
        try {
          for (const Merge* m : merges) {
            const img::PixelSpan span = tiling.block(step.depth, m->block);
            const compress::BlockGeometry geom{partial.width(),
                                               span.begin};
            compositing::take_block_blend(comm, tag, rest, buf.view(span),
                                          geom, opt.codec, opt.blend,
                                          m->sender_front, scratch,
                                          coherent,
                                          opt.approx_saturation);
            ++done;
          }
          wire::require(rest.empty(), wire::DecodeError::Kind::kTrailing,
                        "trailing bytes in aggregated message");
        } catch (const wire::DecodeError&) {
          if (!blank_on_loss) throw;
          // Malformed aggregate: blocks not yet consumed degrade to
          // losses, same as if the message never arrived.
          for (std::size_t i = done; i < merges.size(); ++i) {
            const img::PixelSpan span =
                tiling.block(step.depth, merges[i]->block);
            comm.note_loss(merges[i]->block, span.size());
          }
        }
        comm.pool().release(std::move(payload));
      }
      comm.mark(tag);
      continue;
    }

    // Per-merge messages (the paper's per-message cost accounting).
    for (const Merge& m : step.merges) {
      if (m.sender != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      compositing::send_block(comm, m.receiver, tag, buf.view(span), geom,
                              opt.codec, cache);
    }
    for (const Merge& m : step.merges) {
      if (m.receiver != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      compositing::recv_block_blend(comm, m.sender, tag, buf.view(span),
                                    geom, opt.codec, opt.blend,
                                    m.sender_front, opt.resilience,
                                    m.block, scratch, coherent,
                                    opt.approx_saturation);
    }
    comm.mark(tag);
  }

  if (sched.ends_at_root) {
    // No gather stage — the whole image already sits at the root — so
    // the frame is delivered as one full-surface tile.
    if (r != opt.root) return img::Image{};
    if (opt.sink != nullptr)
      opt.sink->deliver_tile(opt.frame_id,
                             img::PixelSpan{0, buf.pixel_count()},
                             buf.pixels());
    return buf;
  }
  if (!opt.gather) return img::Image{};
  const std::vector<std::pair<int, std::int64_t>> owned =
      sched.owned_blocks(r);
  return compositing::gather_fragments(comm, buf, tiling, owned, opt.root,
                                       partial.width(), partial.height(),
                                       opt.sink, opt.frame_id);
}

}  // namespace

std::unique_ptr<compositing::Compositor> make_schedule_compositor(
    const std::string& method) {
  return std::make_unique<ScheduleCompositor>(method);
}

}  // namespace rtc::core
