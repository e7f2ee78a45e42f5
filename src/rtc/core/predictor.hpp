// Analytic dry run of a composition schedule.
//
// Replays the exact timing semantics of comm::World (Ts-busy sends on a
// serialized egress channel, topology latency and cloud jitter on the
// flight, availability-gated receives, To-per-pixel composites) over a
// Schedule without touching any pixel data. For an uncompressed run
// without gather the predicted makespan, per-rank clocks, bytes and
// messages equal the simulator's *bit for bit*, for every
// schedule-built method — the property test that pins the simulator
// and the predictor to each other. This plays the role of the paper's
// "theoretical analysis" columns, derived from our actual schedules
// rather than the closed forms (which are kept, as printed, in
// rtc/costmodel).
#pragma once

#include <cstdint>
#include <vector>

#include "rtc/comm/network_model.hpp"
#include "rtc/core/schedule.hpp"

namespace rtc::core {

struct StepPrediction {
  double end_time = 0.0;          ///< max rank clock after this step
  std::int64_t max_rank_sends = 0;
  std::int64_t max_rank_bytes = 0;  ///< largest per-rank bytes sent
};

struct Prediction {
  double makespan = 0.0;
  std::vector<double> rank_clock;       ///< final clock per rank
  std::vector<StepPrediction> steps;
  std::int64_t total_bytes = 0;
  std::int64_t total_messages = 0;
};

/// Predicts the composition time of `sched` over an image of
/// `image_pixels` with `bytes_per_pixel` on the wire (no codec, per-merge
/// messages, no gather).
[[nodiscard]] Prediction predict_time(const Schedule& sched,
                                      std::int64_t image_pixels,
                                      int bytes_per_pixel,
                                      const comm::NetworkModel& net);

}  // namespace rtc::core
