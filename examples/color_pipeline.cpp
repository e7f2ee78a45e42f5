// Color (RGBA) end-to-end pipeline: color ray-casting per rank over a
// balanced partition, rotate-tiling composition with color TRLE, and a
// PPM you can actually look at. The extension shows the method is
// pixel-format agnostic — the schedule, wire rules and gather are the
// gray ones; only the payload widens.
//
//   ./color_pipeline [dataset] [ranks] [out-dir]
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/color/render.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/volume/phantom.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  const std::string dataset = argc > 1 ? argv[1] : "head";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  const vol::Volume volume = vol::make_phantom(dataset, 96);
  const color::ColorTransferFunction tf =
      color::phantom_color_transfer(dataset);
  const render::OrthoCamera cam =
      render::centered_camera(96, 96, 96, 30.0, 18.0, 512, 512 / 190.0);

  // Partition (balanced along the principal axis) + color render.
  const render::Vec3 d = cam.direction();
  const int axis = render::principal_axis(d);
  const vol::TransferFunction gray_tf = vol::phantom_transfer(dataset);
  const auto bricks = part::balanced_slab_1d(volume, gray_tf, ranks, axis);
  const double dir[3] = {d.x, d.y, d.z};
  const auto order = part::visibility_order(bricks, dir);

  std::vector<color::RgbaImage> partials;
  for (int r = 0; r < ranks; ++r)
    partials.push_back(color::render_raycast_color(
        volume, tf,
        bricks[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])],
        cam));

  comm::World world(ranks, comm::sp2_hps_model());
  std::vector<color::RgbaImage> results(static_cast<std::size_t>(ranks));
  const comm::RunResult run = world.run([&](comm::Comm& c) {
    results[static_cast<std::size_t>(c.rank())] = color::composite_rt_color(
        c, partials[static_cast<std::size_t>(c.rank())],
        /*initial_blocks=*/3, /*use_trle=*/true);
  });

  const std::string path = out_dir + "/color_" + dataset + ".ppm";
  color::write_ppm(results[0], path);
  std::cout << "color pipeline: " << dataset << " on " << ranks
            << " ranks\n"
            << "composition time: " << run.makespan() << " s (virtual), "
            << static_cast<double>(run.stats.total_bytes_sent()) / 1e6
            << " MB TRLE-compressed on the wire\n"
            << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
