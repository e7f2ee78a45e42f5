#include "rtc/core/predictor.hpp"

#include <algorithm>

#include "rtc/common/check.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::core {

Prediction predict_time(const Schedule& sched, std::int64_t image_pixels,
                        int bytes_per_pixel, const comm::NetworkModel& net) {
  const int p = sched.ranks;
  const img::Tiling tiling(image_pixels, sched.initial_blocks);

  Prediction out;
  out.rank_clock.assign(static_cast<std::size_t>(p), 0.0);
  std::vector<double> egress(static_cast<std::size_t>(p), 0.0);
  // Wire-frame sequence numbers, counted per sender from 1 like
  // Comm::send's; the cloud jitter hashes them.
  std::vector<std::uint32_t> seq(static_cast<std::size_t>(p), 0);

  for (const Step& step : sched.steps) {
    // Phase 1: every rank issues its sends (schedule order), exactly
    // like the executor does before any receive of the step.
    // availability[i] is when merge i's payload lands.
    std::vector<double> availability(step.merges.size(), 0.0);
    std::vector<std::int64_t> step_sends(static_cast<std::size_t>(p), 0);
    std::vector<std::int64_t> step_bytes(static_cast<std::size_t>(p), 0);
    for (std::size_t i = 0; i < step.merges.size(); ++i) {
      const Merge& m = step.merges[i];
      const auto s = static_cast<std::size_t>(m.sender);
      const std::int64_t bytes =
          tiling.block(step.depth, m.block).size() * bytes_per_pixel;
      out.rank_clock[s] += net.ts;
      const double depart = std::max(out.rank_clock[s], egress[s]);
      egress[s] = depart + net.wire_time(bytes);
      // The in-flight terms Comm::send adds, in its order.
      availability[i] = egress[s] +
                        net.topology_latency(m.sender, m.receiver) +
                        net.jitter(m.sender, m.receiver, step.tag, ++seq[s]);
      step_sends[s] += 1;
      step_bytes[s] += bytes;
      out.total_bytes += bytes;
      out.total_messages += 1;
    }

    // Phase 2: receives in schedule order, then the composite charge.
    for (std::size_t i = 0; i < step.merges.size(); ++i) {
      const Merge& m = step.merges[i];
      const auto r = static_cast<std::size_t>(m.receiver);
      out.rank_clock[r] = std::max(out.rank_clock[r], availability[i]);
      out.rank_clock[r] +=
          net.over_time(tiling.block(step.depth, m.block).size());
    }

    StepPrediction sp;
    sp.end_time =
        *std::max_element(out.rank_clock.begin(), out.rank_clock.end());
    sp.max_rank_sends =
        *std::max_element(step_sends.begin(), step_sends.end());
    sp.max_rank_bytes =
        *std::max_element(step_bytes.begin(), step_bytes.end());
    out.steps.push_back(sp);
  }

  out.makespan =
      out.rank_clock.empty()
          ? 0.0
          : *std::max_element(out.rank_clock.begin(), out.rank_clock.end());
  return out;
}

}  // namespace rtc::core
