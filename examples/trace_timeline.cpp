// Exports a Perfetto / chrome://tracing timeline of one composition
// run from its obs spans: per-rank tracks of send startups, receive
// waits, codec work and over-composites, with step markers, and prints
// each rank's virtual-time budget. Handy for *seeing* why rotate-tiling
// beats binary-swap — the receive-wait gaps shrink as blocks pipeline.
// A -DRTC_OBS=OFF build compiles tracing out, so it only says so.
//
//   ./trace_timeline [method] [ranks] [blocks] [out.json]
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/harness/trace.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  const std::string method = argc > 1 ? argv[1] : "rt_2n";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  const int blocks = examples::arg_int(argc, argv, 3, "blocks", 4);
  const std::string out = argc > 4 ? argv[4] : "timeline.json";
#if defined(RTC_OBS_DISABLED)
  std::cout << "tracing is compiled out (built with -DRTC_OBS=OFF); "
               "no timeline for "
            << method << " on " << ranks << " ranks\n";
  return 0;
#endif

  const harness::Scene scene = harness::make_scene("engine", 64, 256);
  const auto partials = harness::render_partials(
      scene, ranks, harness::PartitionKind::kSlab1D);

  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.record_spans = true;
  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);
  harness::write_perfetto_trace(run.stats, out);

  // Per-rank time budget: where does the virtual time go?
  harness::Table t({"rank", "send [s]", "recv-wait [s]", "over [s]",
                    "final clock [s]"});
  for (std::size_t r = 0; r < run.stats.ranks.size(); ++r) {
    double send = 0, wait = 0, over = 0;
    for (const obs::Span& s : run.stats.ranks[r].spans) {
      const double d = s.v_end - s.v_begin;
      if (s.kind == obs::SpanKind::kSend) send += d;
      if (s.kind == obs::SpanKind::kRecvWait) wait += d;
      if (s.kind == obs::SpanKind::kBlend) over += d;
    }
    t.add_row({std::to_string(r), harness::Table::num(send, 4),
               harness::Table::num(wait, 4), harness::Table::num(over, 4),
               harness::Table::num(run.stats.ranks[r].clock, 4)});
  }
  std::cout << method << " on " << ranks << " ranks, " << blocks
            << " initial blocks — composition " << run.time << " s\n\n";
  t.print(std::cout);
  std::cout << "\nwrote " << out
            << " (load in ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
