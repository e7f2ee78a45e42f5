#include "rtc/harness/scene.hpp"

#include <algorithm>

#include "rtc/common/check.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/volume/phantom.hpp"

namespace rtc::harness {

Scene make_scene(const std::string& dataset, int volume_n, int image_size,
                 double yaw_deg, double pitch_deg) {
  Scene s{dataset, vol::make_phantom(dataset, volume_n),
          vol::phantom_transfer(dataset),
          render::centered_camera(volume_n, volume_n, volume_n, yaw_deg,
                                  pitch_deg, image_size,
                                  /*scale=*/image_size /
                                      (1.9 * volume_n))};
  return s;
}

RenderedScene render_scene(const Scene& scene, int ranks,
                           PartitionKind kind, const std::string& renderer,
                           render::RenderMode mode) {
  RTC_CHECK(ranks >= 1);
  const render::BrickRenderer render_brick = render::brick_renderer(renderer);
  const render::Vec3 d = scene.camera.direction();
  const int c_ax = render::principal_axis(d);
  const vol::Brick bounds = scene.volume.bounds();

  std::vector<vol::Brick> bricks;
  switch (kind) {
    case PartitionKind::kSlab1D:
      bricks = part::slab_1d(bounds, ranks, c_ax);
      break;
    case PartitionKind::kGrid2D:
      bricks = part::grid_2d(bounds, ranks, (c_ax + 1) % 3, (c_ax + 2) % 3);
      break;
    case PartitionKind::kBalanced1D:
      bricks = part::balanced_slab_1d(scene.volume, scene.tf, ranks, c_ax);
      break;
  }

  const double dir[3] = {d.x, d.y, d.z};
  const std::vector<int> order = part::visibility_order(bricks, dir);

  RenderedScene rs;
  rs.partials.reserve(static_cast<std::size_t>(ranks));
  rs.bricks.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const vol::Brick& brick = bricks[static_cast<std::size_t>(
        order[static_cast<std::size_t>(r)])];
    rs.bricks.push_back(brick);
    rs.solid_voxels.push_back(
        part::solid_voxels(scene.volume, scene.tf, brick));
    rs.total_voxels.push_back(brick.voxels());
    rs.partials.push_back(
        render_brick(scene.volume, scene.tf, brick, scene.camera, mode));
  }
  return rs;
}

std::vector<img::Image> render_partials(const Scene& scene, int ranks,
                                        PartitionKind kind) {
  return render_scene(scene, ranks, kind).partials;
}

double render_stage_time(const RenderedScene& rs, double t_solid_voxel,
                         double t_any_voxel) {
  double worst = 0.0;
  for (std::size_t r = 0; r < rs.solid_voxels.size(); ++r) {
    const double t =
        t_solid_voxel * static_cast<double>(rs.solid_voxels[r]) +
        t_any_voxel * static_cast<double>(rs.total_voxels[r]);
    worst = std::max(worst, t);
  }
  return worst;
}

}  // namespace rtc::harness
