// Full three-stage parallel volume-rendering pipeline, as in the
// paper's Section 4 setup: data partitioning (1-D or 2-D), shear-warp
// rendering per rank, and image composition — over several viewpoints
// of a chosen dataset.
//
//   ./render_pipeline [dataset] [ranks] [method] [out-dir]
//     dataset: engine | brain | head        (default engine)
//     ranks:   number of processors         (default 8)
//     method:  bswap|pp|pp_exact|direct|rt|rt_n|rt_2n  (default rt_n)
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/image/io.hpp"
#include "rtc/image/ops.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  const std::string dataset = argc > 1 ? argv[1] : "engine";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  const std::string method = argc > 3 ? argv[3] : "rt_n";
  const std::string out_dir = argc > 4 ? argv[4] : ".";

  struct View {
    double yaw, pitch;
    const char* name;
  };
  const View views[] = {{0.0, 0.0, "front"},
                        {35.0, 15.0, "oblique"},
                        {90.0, 0.0, "side"},
                        {20.0, 55.0, "top"}};

  harness::Table t({"view", "partition", "render non-blank %",
                    "composition [s]", "wire MB"});
  for (const View& view : views) {
    for (const auto kind : {harness::PartitionKind::kSlab1D,
                            harness::PartitionKind::kGrid2D}) {
      const bool slab = kind == harness::PartitionKind::kSlab1D;
      harness::Scene scene = harness::make_scene(
          dataset, /*volume_n=*/96, /*image_size=*/512, view.yaw,
          view.pitch);
      const std::vector<img::Image> partials =
          harness::render_partials(scene, ranks, kind);

      harness::CompositionConfig cfg;
      cfg.method = method;
      cfg.initial_blocks = 3;
      cfg.codec = "trle";
      cfg.gather = true;
      const harness::CompositionRun run =
          harness::run_composition(cfg, partials);

      double non_blank = 0;
      for (const auto& p : partials)
        non_blank += static_cast<double>(
            img::count_non_blank(p.pixels()));
      non_blank /= static_cast<double>(ranks) *
                   static_cast<double>(partials[0].pixel_count());

      t.add_row({std::string(view.name), slab ? "1-D slab" : "2-D grid",
                 harness::Table::num(100.0 * non_blank, 1),
                 harness::Table::num(run.time, 4),
                 harness::Table::num(
                     static_cast<double>(run.stats.total_bytes_sent()) /
                         1e6,
                     2)});

      if (slab) {
        img::write_pgm(run.image, out_dir + "/pipeline_" + dataset + "_" +
                                      view.name + ".pgm");
      }
    }
  }
  std::cout << "dataset=" << dataset << " ranks=" << ranks
            << " method=" << method << "\n\n";
  t.print(std::cout);
  std::cout << "\nwrote one PGM per view into " << out_dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
