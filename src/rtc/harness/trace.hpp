// Trace export of a composition run's timeline.
#pragma once

#include <string>

#include "rtc/comm/stats.hpp"

namespace rtc::harness {

/// Span-based export (obs layer): writes RunStats::spans — recorded via
/// CompositionConfig::record_spans / World::set_trace — plus per-rank
/// step marks as trace-event JSON that chrome://tracing and
/// ui.perfetto.dev load directly: one track per rank, with step
/// attribution, codec byte counts, fault recoveries, and wall-clock
/// durations in args.
void write_perfetto_trace(const comm::RunStats& stats,
                          const std::string& path);

}  // namespace rtc::harness
