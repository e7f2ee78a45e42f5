// Renderer correctness: camera geometry, RLE classification, the
// shear-warp factorization identity, shear-warp vs ray-cast agreement,
// and the pinned bytes of shear-warp partials.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "rtc/image/ops.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/render/rle_volume.hpp"
#include "rtc/volume/phantom.hpp"

namespace rtc::render {
namespace {

TEST(Camera, BasisIsOrthonormal) {
  for (const double yaw : {0.0, 30.0, 135.0, 280.0}) {
    for (const double pitch : {-45.0, 0.0, 20.0, 60.0}) {
      const OrthoCamera cam =
          centered_camera(32, 32, 32, yaw, pitch, 64, 1.0);
      const Vec3 d = cam.direction();
      const Vec3 r = cam.right();
      const Vec3 u = cam.up();
      EXPECT_NEAR(dot(d, d), 1.0, 1e-12);
      EXPECT_NEAR(dot(r, r), 1.0, 1e-12);
      EXPECT_NEAR(dot(u, u), 1.0, 1e-12);
      EXPECT_NEAR(dot(d, r), 0.0, 1e-12);
      EXPECT_NEAR(dot(d, u), 0.0, 1e-12);
      EXPECT_NEAR(dot(r, u), 0.0, 1e-12);
    }
  }
}

TEST(Camera, CenterProjectsToImageCenter) {
  const OrthoCamera cam = centered_camera(32, 32, 32, 25.0, 10.0, 100, 2.0);
  const auto s = cam.project(cam.center);
  EXPECT_DOUBLE_EQ(s[0], 50.0);
  EXPECT_DOUBLE_EQ(s[1], 50.0);
}

TEST(Camera, ProjectionIgnoresViewDirection) {
  const OrthoCamera cam = centered_camera(32, 32, 32, 25.0, 10.0, 100, 2.0);
  const Vec3 p{3.0, 4.0, 5.0};
  const auto a = cam.project(p);
  const auto b = cam.project(p + 7.5 * cam.direction());
  EXPECT_NEAR(a[0], b[0], 1e-9);
  EXPECT_NEAR(a[1], b[1], 1e-9);
}

TEST(Camera, PrincipalAxisPicksLargestComponent) {
  EXPECT_EQ(principal_axis(Vec3{0.9, 0.1, 0.2}), 0);
  EXPECT_EQ(principal_axis(Vec3{0.1, -0.9, 0.2}), 1);
  EXPECT_EQ(principal_axis(Vec3{0.1, 0.3, -0.9}), 2);
}

TEST(ShearWarp, FactorizationIdentity) {
  // The warp's k-term must cancel: e_c - s_u e_a - s_v e_b projects to
  // zero (it is parallel to the view direction). This is the algebraic
  // heart of the factorization.
  const OrthoCamera cam = centered_camera(32, 32, 32, 37.0, 22.0, 64, 1.5);
  const Vec3 d = cam.direction();
  const int c = principal_axis(d);
  const AxisFrame f = axis_frame(c);
  const double su = -d[f.a] / d[f.c];
  const double sv = -d[f.b] / d[f.c];
  auto unit = [](int axis) {
    return Vec3{axis == 0 ? 1.0 : 0.0, axis == 1 ? 1.0 : 0.0,
                axis == 2 ? 1.0 : 0.0};
  };
  const Vec3 residual =
      unit(f.c) - su * unit(f.a) - sv * unit(f.b);
  EXPECT_NEAR(dot(residual, cam.right()), 0.0, 1e-12);
  EXPECT_NEAR(dot(residual, cam.up()), 0.0, 1e-12);
}

TEST(RleVolume, RunsMatchBruteForce) {
  const vol::Volume v = vol::make_engine(32);
  const vol::TransferFunction tf = vol::phantom_transfer("engine");
  const vol::Brick region{4, 28, 2, 30, 0, 32};
  for (const int axis : {0, 1, 2}) {
    const RleVolume rle(v, tf, region, axis);
    const AxisFrame f = rle.frame();
    auto lo = [&](int ax) {
      return ax == 0 ? region.x0 : (ax == 1 ? region.y0 : region.z0);
    };
    auto hi = [&](int ax) {
      return ax == 0 ? region.x1 : (ax == 1 ? region.y1 : region.z1);
    };
    for (int k = lo(f.c); k < hi(f.c); k += 7) {
      for (int j = lo(f.b); j < hi(f.b); j += 5) {
        // Rebuild occupancy from runs and compare voxel by voxel.
        std::vector<bool> from_runs(static_cast<std::size_t>(hi(f.a)),
                                    false);
        for (const ::rtc::render::Run& r : rle.runs(k, j))
          for (int i = r.begin; i < r.end; ++i)
            from_runs[static_cast<std::size_t>(i)] = true;
        for (int i = lo(f.a); i < hi(f.a); ++i) {
          int p[3];
          p[f.a] = i;
          p[f.b] = j;
          p[f.c] = k;
          EXPECT_EQ(from_runs[static_cast<std::size_t>(i)],
                    !tf.transparent(v.at(p[0], p[1], p[2])))
              << "axis " << axis << " at " << i << "," << j << "," << k;
        }
      }
    }
    EXPECT_GT(rle.occupancy(), 0.0);
    EXPECT_LT(rle.occupancy(), 1.0);
  }
}

double mean_abs_diff(const img::Image& a, const img::Image& b) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < a.pixel_count(); ++i) {
    const auto& pa = a.pixels()[static_cast<std::size_t>(i)];
    const auto& pb = b.pixels()[static_cast<std::size_t>(i)];
    sum += std::abs(int{pa.v} - int{pb.v}) + std::abs(int{pa.a} - int{pb.a});
  }
  return sum / (2.0 * static_cast<double>(a.pixel_count()));
}

TEST(Renderers, AgreeExactlyOnUnitScaleAxisView) {
  // Along +z at unit scale every resampling in both pipelines lands on
  // lattice points (zero shear, integer warp), so the two renderers
  // compute identical samples; only quantization/early-out remains.
  const vol::Volume v = vol::make_engine(40);
  const vol::TransferFunction tf = vol::phantom_transfer("engine");
  const OrthoCamera cam = centered_camera(40, 40, 40, 0.0, 0.0, 96, 1.0);
  const img::Image sw = render_shearwarp(v, tf, v.bounds(), cam);
  const img::Image rc = render_raycast(v, tf, v.bounds(), cam);
  EXPECT_LE(img::max_channel_diff(sw, rc), 2);
}

TEST(Renderers, AgreeStructurallyWhenUpscaled) {
  // At non-integer scale shear-warp resamples the *composited*
  // intermediate while the ray-caster resamples each slice, so only
  // structural agreement is expected.
  const vol::Volume v = vol::make_engine(40);
  const vol::TransferFunction tf = vol::phantom_transfer("engine");
  const OrthoCamera cam = centered_camera(40, 40, 40, 0.0, 0.0, 96, 1.6);
  const img::Image sw = render_shearwarp(v, tf, v.bounds(), cam);
  const img::Image rc = render_raycast(v, tf, v.bounds(), cam);
  EXPECT_LT(mean_abs_diff(sw, rc), 8.0);
}

TEST(Renderers, AgreeOnObliqueView) {
  const vol::Volume v = vol::make_head(40);
  const vol::TransferFunction tf = vol::phantom_transfer("head");
  const OrthoCamera cam = centered_camera(40, 40, 40, 30.0, 20.0, 96, 1.5);
  const img::Image sw = render_shearwarp(v, tf, v.bounds(), cam);
  const img::Image rc = render_raycast(v, tf, v.bounds(), cam);
  // Oblique views add one bilinear warp resampling; structural
  // agreement within a few gray levels on average.
  EXPECT_LT(mean_abs_diff(sw, rc), 6.0);
}

TEST(Renderers, OutsideProjectionIsBlank) {
  const vol::Volume v = vol::make_engine(32);
  const vol::TransferFunction tf = vol::phantom_transfer("engine");
  // Tiny object in a big image: corners must stay blank.
  const OrthoCamera cam = centered_camera(32, 32, 32, 15.0, 10.0, 128, 1.0);
  for (const bool sw : {true, false}) {
    const img::Image im = sw ? render_shearwarp(v, tf, v.bounds(), cam)
                             : render_raycast(v, tf, v.bounds(), cam);
    EXPECT_TRUE(img::is_blank(im.at(0, 0)));
    EXPECT_TRUE(img::is_blank(im.at(127, 127)));
    EXPECT_GT(img::count_non_blank(im.pixels()), 500);
  }
}

TEST(Renderers, EmptyRegionRendersBlank) {
  const vol::Volume v = vol::make_engine(32);
  const vol::TransferFunction tf = vol::phantom_transfer("engine");
  const OrthoCamera cam = centered_camera(32, 32, 32, 0.0, 0.0, 32, 1.0);
  const vol::Brick empty{0, 0, 0, 0, 0, 0};
  const img::Image im = render_shearwarp(v, tf, empty, cam);
  EXPECT_EQ(img::count_non_blank(im.pixels()), 0);
}

TEST(Renderers, SlabPartialsCompositeToFullImage) {
  // Slabs along the principal axis: in-slice interpolation never
  // crosses brick boundaries, so compositing the partials front to
  // back reproduces the single-renderer image (up to quantization).
  const vol::Volume v = vol::make_head(36);
  const vol::TransferFunction tf = vol::phantom_transfer("head");
  const OrthoCamera cam = centered_camera(36, 36, 36, 10.0, 5.0, 80, 1.6);
  const img::Image full = render_raycast(v, tf, v.bounds(), cam);

  const int c = principal_axis(cam.direction());
  std::vector<img::Image> partials;
  const int n = 36, parts = 4;
  for (int s = 0; s < parts; ++s) {
    vol::Brick b = v.bounds();
    const int lo = s * n / parts, hi = (s + 1) * n / parts;
    if (c == 0) {
      b.x0 = lo;
      b.x1 = hi;
    } else if (c == 1) {
      b.y0 = lo;
      b.y1 = hi;
    } else {
      b.z0 = lo;
      b.z1 = hi;
    }
    partials.push_back(render_raycast(v, tf, b, cam));
  }
  if (cam.direction()[c] < 0) std::reverse(partials.begin(), partials.end());
  const img::Image merged = img::composite_reference(partials);
  EXPECT_LT(mean_abs_diff(merged, full), 1.0);
  EXPECT_LE(img::max_channel_diff(merged, full), 16);
}

/// One FNV-1a step.
std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

TEST(ShearWarp, PartialBytesArePinned) {
  // Every partial the shear-warp renderer produced when these constants
  // were recorded, folded into one FNV-1a hash per (dataset, mode):
  // any change to a single output byte moves the hash. The views put
  // the principal axis on +z, +x, -z, -x, +y and -y; the large scale
  // makes the image border clip the brick footprints; one camera is
  // square and one odd-sized and non-square; the bricks are slab,
  // grid and balanced partitions plus one brick with no solid voxel.
  struct Pin {
    const char* dataset;
    RenderMode mode;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"engine", RenderMode::kComposite, 0x2504c3d052d7cdefull},
      {"engine", RenderMode::kMip, 0x1c3365a915390125ull},
      {"brain", RenderMode::kComposite, 0xc25a6c38fdea3ebaull},
      {"brain", RenderMode::kMip, 0x86683093845cf750ull},
      {"head", RenderMode::kComposite, 0xdd1a5addf38b4fdaull},
      {"head", RenderMode::kMip, 0xa1020584a27ca5f9ull},
  };
  const std::pair<double, double> views[] = {
      {0.0, 0.0},    {20.0, 10.0}, {90.0, 15.0},   {180.0, -25.0},
      {270.0, 30.0}, {45.0, 60.0}, {200.0, -65.0}, {300.0, -10.0}};
  const std::pair<int, int> sizes[] = {{40, 40}, {53, 37}};
  const int n = 20;
  const vol::Brick empty_brick{0, 2, 0, 2, 0, n};
  for (const Pin& pin : pins) {
    const vol::Volume v = vol::make_phantom(pin.dataset, n);
    const vol::TransferFunction tf = vol::phantom_transfer(pin.dataset);
    ASSERT_EQ(part::solid_voxels(v, tf, empty_brick), 0) << pin.dataset;
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    int seen_axes = 0;
    for (const auto& [yaw, pitch] : views) {
      for (const double scale : {1.3, 4.0}) {
        for (const auto& [width, height] : sizes) {
          OrthoCamera cam =
              centered_camera(n, n, n, yaw, pitch, width, scale);
          cam.height = height;
          const Vec3 d = cam.direction();
          const int c = principal_axis(d);
          seen_axes |= 1 << (2 * c + (d[c] < 0 ? 1 : 0));
          std::vector<vol::Brick> bricks = part::slab_1d(v.bounds(), 3, c);
          for (const vol::Brick& b :
               part::grid_2d(v.bounds(), 4, (c + 1) % 3, (c + 2) % 3))
            bricks.push_back(b);
          for (const vol::Brick& b : part::balanced_slab_1d(v, tf, 5, c))
            bricks.push_back(b);
          bricks.push_back(empty_brick);
          for (const vol::Brick& b : bricks) {
            const img::Image im = render_shearwarp(v, tf, b, cam, pin.mode);
            for (const img::GrayA8 p : im.pixels())
              h = fnv1a(fnv1a(h, p.v), p.a);
          }
        }
      }
    }
    EXPECT_EQ(seen_axes, 0x3f) << "views miss a principal direction";
    EXPECT_EQ(h, pin.hash) << pin.dataset << " mode "
                           << static_cast<int>(pin.mode) << ": 0x"
                           << std::hex << h;
  }
}

}  // namespace
}  // namespace rtc::render
