// Scene setup: dataset -> camera -> per-rank partial images.
//
// This is the paper's first two pipeline stages (data partitioning and
// rendering) packaged for the composition experiments: pick a test
// sample, partition the volume 1-D or 2-D, render each rank's brick
// (shear-warp by default), and hand back the partial images in
// visibility order (rank 0 front-most). render_scene is the one
// partition-and-render loop: frames::render_view (the sweep and the
// render service), rtcomp's single shot, the benches and the examples
// all render through it.
#pragma once

#include <string>
#include <vector>

#include "rtc/image/image.hpp"
#include "rtc/render/camera.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/volume/transfer.hpp"
#include "rtc/volume/volume.hpp"

namespace rtc::harness {

struct Scene {
  std::string name;
  vol::Volume volume;
  vol::TransferFunction tf;
  render::OrthoCamera camera;
};

/// Builds a scene for a paper dataset name ("engine", "brain", "head").
/// `volume_n` is the phantom resolution, `image_size` the raster size
/// (the paper uses 512x512).
[[nodiscard]] Scene make_scene(const std::string& dataset, int volume_n,
                               int image_size, double yaw_deg = 30.0,
                               double pitch_deg = 20.0);

enum class PartitionKind {
  kSlab1D,      ///< uniform slabs along the principal view axis
  kGrid2D,      ///< near-square grid over the two non-principal axes
  kBalanced1D   ///< workload-balanced slabs (companion paper [15])
};

/// Everything the rendering stage produced, for whole-frame analyses.
struct RenderedScene {
  std::vector<img::Image> partials;          ///< depth-ordered
  std::vector<vol::Brick> bricks;            ///< depth-ordered
  std::vector<std::int64_t> solid_voxels;    ///< per rank workload
  std::vector<std::int64_t> total_voxels;    ///< per rank brick size
};

/// Partitions the volume into `ranks` bricks along the view's principal
/// axis and renders each with the renderer named `renderer` (one of
/// render::kRendererNames; an unknown name throws ContractError before
/// any work), in front-to-back visibility order.
[[nodiscard]] RenderedScene render_scene(
    const Scene& scene, int ranks, PartitionKind kind,
    const std::string& renderer = "shearwarp",
    render::RenderMode mode = render::RenderMode::kComposite);

/// render_scene's partials alone: shear-warp, composite mode.
[[nodiscard]] std::vector<img::Image> render_partials(const Scene& scene,
                                                      int ranks,
                                                      PartitionKind kind);

/// Virtual render-stage time: the slowest rank under a two-term cost
/// (per-solid-voxel compositing work + per-voxel traversal work) —
/// how the RLE-accelerated shear-warp scales (Lacroute [10]).
[[nodiscard]] double render_stage_time(const RenderedScene& rs,
                                       double t_solid_voxel = 1.0e-7,
                                       double t_any_voxel = 5.0e-9);

}  // namespace rtc::harness
