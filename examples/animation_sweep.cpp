// The interactive-rendering scenario from the paper's introduction: a
// camera orbit driven through the frame pipeline (rtc/frames). Frames
// are admitted with up to two in flight — frame f+1 renders while
// frame f composites on the virtual clock — the temporal-coherence
// cache persists across the orbit (unchanged blocks skip re-encoding,
// unchanged blank blocks travel as one byte), and the per-frame
// timeline, modeled frame rate, and coherence hit rate are reported.
//
//   ./animation_sweep [dataset] [ranks] [frames] [renderer]
//     renderer: shearwarp | raycast | splat    (default shearwarp)
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/frames/pipeline.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  frames::PipelineConfig cfg;
  cfg.dataset = argc > 1 ? argv[1] : "engine";
  cfg.ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  cfg.frames = examples::arg_int(argc, argv, 3, "frames", 12);
  cfg.renderer = argc > 4 ? argv[4] : "shearwarp";
  cfg.volume_n = 64;
  cfg.image_size = 256;
  cfg.comp.method = "rt_n";
  cfg.comp.initial_blocks = 3;
  cfg.comp.codec = "trle";
  cfg.max_in_flight = 2;

  const frames::SequenceResult seq = frames::run_sequence(cfg);

  std::cout << "orbit of '" << cfg.dataset << "', " << cfg.ranks
            << " ranks, " << cfg.renderer
            << " renderer, pipeline depth " << cfg.max_in_flight
            << "\n\n";
  frames::print_sequence(std::cout, cfg, seq);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
