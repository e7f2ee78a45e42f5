// The one schedule interpreter: runs a composition schedule
// (schedule.hpp) as a message-passing program.
#pragma once

#include <memory>
#include <string>

#include "rtc/compositing/compositor.hpp"

namespace rtc::core {

/// Compositor for a schedule-built method (see is_schedule_method).
/// Every rank builds the method's schedule locally from (P, Options) —
/// no coordination traffic — and runs it step by step: per-merge or
/// aggregated sends, fused receive-and-blend (with the loss, stale,
/// coherence and approximate-rung handling of compositing/wire.hpp), a
/// step mark, then the gather of the final blocks to the root.
/// `initial_blocks` in Options is the paper's N (N_RT) or 2N (2N_RT);
/// binary swap and direct send start from one block.
[[nodiscard]] std::unique_ptr<compositing::Compositor>
make_schedule_compositor(const std::string& method);

}  // namespace rtc::core
