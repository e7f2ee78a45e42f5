// The volume renderers.
//
// render_shearwarp is the paper's rendering stage: the Lacroute-Levoy
// shear-warp factorization over an RLE-classified volume (composite
// sheared slices into an intermediate image, then 2-D warp).
// render_raycast is an orthographic ray-caster that samples at the same
// slice planes with the same in-slice bilinear filter; it exists to
// cross-check the shear-warp output and as a simple reference renderer.
// render_splat is a sheet-buffer splatter, a third workload.
//
// All render only `region` (a rank's brick): voxels outside it are
// transparent, producing the partial images the composition stage
// merges. All write premultiplied gray+alpha. brick_renderer() picks
// one by name from kRendererNames, the one list of renderer names.
#pragma once

#include <array>
#include <string>

#include "rtc/image/image.hpp"
#include "rtc/render/camera.hpp"
#include "rtc/volume/transfer.hpp"
#include "rtc/volume/volume.hpp"

namespace rtc::render {

/// What a ray accumulates.
enum class RenderMode {
  kComposite,  ///< front-to-back "over" (the paper's setting)
  kMip         ///< maximum-intensity projection (commutative merges)
};

[[nodiscard]] img::Image render_raycast(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

[[nodiscard]] img::Image render_shearwarp(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

/// Sheet-buffer splatting (Westover [23], from the paper's intro):
/// slices splat Gaussian footprints into a sheet that composites
/// front-to-back. Softer edges than shear-warp; useful as a third
/// workload for the composition stage.
[[nodiscard]] img::Image render_splat(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

/// A per-brick renderer: render_shearwarp, render_raycast or
/// render_splat.
using BrickRenderer = decltype(&render_shearwarp);

/// Names of the per-brick renderers, the default first.
inline constexpr std::array<const char*, 3> kRendererNames = {
    "shearwarp", "raycast", "splat"};

/// The renderer called `name`; ContractError, naming the choices, for
/// a name not in kRendererNames.
[[nodiscard]] BrickRenderer brick_renderer(const std::string& name);

/// Axis with the largest |direction| component (the shear-warp
/// principal axis; also the slicing axis of the ray-caster).
[[nodiscard]] int principal_axis(const Vec3& dir);

/// Perspective view for render_raycast_perspective (extension; the
/// paper-era shear-warp stays orthographic).
struct PerspectiveCamera {
  Vec3 eye{};
  Vec3 target{};        ///< looked-at point (usually the volume center)
  double fov_deg = 40;  ///< full vertical field of view
  int width = 512;
  int height = 512;
};

/// Perspective ray-caster; converges to render_raycast as the eye
/// recedes and the field of view narrows (property-tested).
[[nodiscard]] img::Image render_raycast_perspective(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const PerspectiveCamera& cam,
    RenderMode mode = RenderMode::kComposite);

}  // namespace rtc::render
