// Quickstart: the whole library in ~60 lines.
//
// Renders a CT-engine phantom on 4 "processors" (threads with
// message-passing only), composites the partial images with the
// rotate-tiling method, and writes the result as PGM files.
//
//   ./quickstart [output-directory]
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/image/io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. Data partitioning + rendering: each rank renders its slab of
  //    the volume with shear-warp; partials come back depth-ordered.
  const harness::Scene scene = harness::make_scene(
      "engine", /*volume_n=*/96, /*image_size=*/256);
  const std::vector<img::Image> partials =
      harness::render_partials(scene, /*ranks=*/4,
                               harness::PartitionKind::kSlab1D);

  // 2. Image composition: rotate-tiling (N_RT) with 3 initial blocks
  //    and TRLE compression, gathered to rank 0.
  harness::CompositionConfig cfg;
  cfg.method = "rt_n";
  cfg.initial_blocks = 3;
  cfg.codec = "trle";
  cfg.gather = true;
  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);

  std::cout << "composited 4 partial images with " << cfg.method
            << " (N=" << cfg.initial_blocks << ", codec=" << cfg.codec
            << ")\n"
            << "virtual composition time: " << run.time << " s\n"
            << "bytes on the wire:        "
            << run.stats.total_bytes_sent() << "\n";

  img::write_pgm(run.image, out_dir + "/quickstart_final.pgm");
  for (std::size_t r = 0; r < partials.size(); ++r)
    img::write_pgm(partials[r], out_dir + "/quickstart_partial" +
                                    std::to_string(r) + ".pgm");
  std::cout << "wrote " << out_dir << "/quickstart_final.pgm and "
            << partials.size() << " partial images\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
