// Two-level hierarchical compositor — see hierarchical.hpp.
#include "rtc/core/hierarchical.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>

#include "rtc/comm/membership.hpp"
#include "rtc/common/check.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::core {

int default_group_size(int ranks) {
  int g = 1;
  while (g * g < ranks) ++g;
  return g;
}

namespace {

using compositing::Compositor;
using compositing::Options;

class Hierarchical final : public Compositor {
 public:
  [[nodiscard]] std::string name() const override { return "hier"; }

  [[nodiscard]] img::Image run_core(comm::Comm& comm,
                                    const img::Image& partial,
                                    const Options& opt) const override {
    // Both levels run over set_group views, which cannot nest — inside
    // a survivor view (or under the recompose driver, which installs
    // one) the hierarchy would need view-composition machinery that
    // does not exist yet. The degrading policies (kBlank) work fine:
    // sub-methods blank out dead contributors at either level.
    RTC_CHECK_MSG(comm.group() == nullptr,
                  "hier cannot run inside a group view");
    RTC_CHECK_MSG(opt.resilience.on_peer_loss !=
                      comm::ResiliencePolicy::PeerLoss::kRecompose,
                  "hier does not support on_peer_loss=recompose");
    RTC_CHECK_MSG(opt.root == 0, "hier composites to root 0");
    RTC_CHECK_MSG(opt.hier_intra != "hier" && opt.hier_inter != "hier",
                  "hier levels must use non-hierarchical methods");
    const int p = comm.size();
    const int g = opt.group_size > 0 ? std::min(opt.group_size, p)
                                     : default_group_size(p);

    // Per-level options: level 1 always gathers its group composite to
    // the leader; level 2 honors the caller's gather/sink. The
    // sender-side coherence cache is keyed by *virtual* rank, which
    // collides across concurrent groups — force it off here.
    Options intra_opt = opt;
    intra_opt.gather = true;
    intra_opt.root = 0;
    intra_opt.coherence = nullptr;
    intra_opt.sink = nullptr;
    Options inter_opt = opt;
    inter_opt.root = 0;
    inter_opt.coherence = nullptr;

    const Compositor& intra = level(opt.hier_intra);
    const Compositor& inter = level(opt.hier_inter);

    // Level 1: contiguous groups [k*g, min(P, (k+1)*g)) — contiguity
    // preserves depth order, and ascending members is what set_group's
    // virtual-rank translation expects.
    const int r = comm.rank();
    const int lo = (r / g) * g;
    const int hi = std::min(p, lo + g);
    comm::MembershipView group_view;
    group_view.members.resize(static_cast<std::size_t>(hi - lo));
    std::iota(group_view.members.begin(), group_view.members.end(), lo);

    comm.set_group(&group_view);
    img::Image group_img = intra.run_core(comm, partial, intra_opt);
    comm.set_group(nullptr);

    if (r != lo) return img::Image{};  // non-leaders are done

    // Level 2: the leaders, ordered by group (= depth interval order).
    comm::MembershipView leader_view;
    for (int base = 0; base < p; base += g) leader_view.members.push_back(base);
    if (leader_view.size() == 1) {
      // One group: its composite is already the frame. Deliver it the
      // way the inter pass's gather would have.
      if (opt.sink != nullptr)
        opt.sink->deliver_tile(opt.frame_id,
                               img::PixelSpan{0, group_img.pixel_count()},
                               group_img.pixels());
      return group_img;
    }
    comm.set_group(&leader_view);
    img::Image out = inter.run_core(comm, group_img, inter_opt);
    comm.set_group(nullptr);
    return out;
  }

 private:
  /// The compositor running level method `method`. Every rank of a run
  /// shares this object, so it makes each level's compositor once and
  /// each level builds its schedule once per group size.
  [[nodiscard]] const Compositor& level(const std::string& method) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Compositor>& c = levels_[method];
    if (c == nullptr) c = compositing::make_compositor(method);
    return *c;
  }

  mutable std::mutex mu_;
  mutable std::map<std::string, std::unique_ptr<Compositor>> levels_;
};

}  // namespace

std::unique_ptr<compositing::Compositor> make_hierarchical() {
  return std::make_unique<Hierarchical>();
}

}  // namespace rtc::core
