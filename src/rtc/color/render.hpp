// Color rendering and composition (extension module).
//
// Self-contained RGBA path mirroring the grayscale pipeline: a color
// ray-caster over the same volumes/partitions, TRLE generalized to
// 4-byte payloads (the 2x2 occupancy templates are color-agnostic —
// the paper's structure/payload split carries over unchanged), and a
// rotate-tiling compositor driven by the exact same core schedule.
#pragma once

#include <string>
#include <vector>

#include "rtc/color/image.hpp"
#include "rtc/color/transfer.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/render/camera.hpp"
#include "rtc/volume/volume.hpp"

namespace rtc::color {

/// Orthographic color ray-caster over a brick of the volume.
[[nodiscard]] RgbaImage render_raycast_color(
    const vol::Volume& v, const ColorTransferFunction& tf,
    const vol::Brick& region, const render::OrthoCamera& cam);

/// TRLE for RGBA blocks: identical code stream to the gray codec
/// (2x2 occupancy templates + run nibble); payload is 4 bytes per
/// non-blank pixel.
[[nodiscard]] std::vector<std::byte> trle_encode_color(
    std::span<const RgbA8> px, int image_width, std::int64_t span_begin);
void trle_decode_color(std::span<const std::byte> bytes,
                       std::span<RgbA8> out, int image_width,
                       std::int64_t span_begin);

/// Rotate-tiling composition of color partials over `comm` (collective;
/// same schedule, wire rules and gather semantics as the gray schedule
/// interpreter). Returns the assembled image at rank 0.
[[nodiscard]] RgbaImage composite_rt_color(
    comm::Comm& comm, const RgbaImage& partial, int initial_blocks,
    bool use_trle, img::BlendMode blend = img::BlendMode::kOver);

}  // namespace rtc::color
