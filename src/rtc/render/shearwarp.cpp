// Shear-warp factorization renderer (Lacroute & Levoy [11]).
//
// The orthographic viewing transform factors into (1) a shear along the
// principal axis that makes every viewing ray perpendicular to the
// slices — so slices composite into an *intermediate* image by pure 2-D
// resampling — followed by (2) a 2-D affine warp of the intermediate
// image to the final screen. Empty space is skipped with the
// RLE-classified volume.
//
// Derivation used below: with d the ray direction, principal axis c and
// in-slice axes (a, b), the shear is s_u = -d_a/d_c, s_v = -d_b/d_c and
// a voxel (i, j, k) lands at intermediate (u, v) = (i + s_u k, j + s_v k)
// (plus translation). Points on one ray share (u, v). The residual map
// (u, v) -> screen is affine because the k-dependence cancels:
// screen(e_c - s_u e_a - s_v e_b) = screen(d / d_c) = 0 for an
// orthographic projection along d (a property test pins this).
//
// The warp visits only the screen box of the texels the composite loop
// touched (grown by the bilinear taps' one-texel reach): every pixel
// outside it reads four transparent taps and quantizes to the blank
// {0, 0} the output image starts with, so the partial is byte-identical
// to warping the whole image at a cost that scales with the brick's
// footprint.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rtc/common/check.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/render/rle_volume.hpp"
#include "rtc/render/sampling.hpp"

namespace rtc::render {

namespace {

int axis_lo(const vol::Brick& b, int axis) {
  return axis == 0 ? b.x0 : (axis == 1 ? b.y0 : b.z0);
}
int axis_hi(const vol::Brick& b, int axis) {
  return axis == 0 ? b.x1 : (axis == 1 ? b.y1 : b.z1);
}

Vec3 axis_unit(int axis) {
  return Vec3{axis == 0 ? 1.0 : 0.0, axis == 1 ? 1.0 : 0.0,
              axis == 2 ? 1.0 : 0.0};
}

struct Vec2 {
  double x = 0.0, y = 0.0;
};

/// Merged, sorted half-open integer intervals.
void merge_intervals(std::vector<std::pair<int, int>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (out > 0 && iv[i].first <= iv[out - 1].second) {
      iv[out - 1].second = std::max(iv[out - 1].second, iv[i].second);
    } else {
      iv[out++] = iv[i];
    }
  }
  iv.resize(out);
}

}  // namespace

img::Image render_shearwarp(const vol::Volume& v,
                            const vol::TransferFunction& tf,
                            const vol::Brick& region,
                            const OrthoCamera& cam, RenderMode mode) {
  const Vec3 d = cam.direction();
  const int c_ax = principal_axis(d);
  const AxisFrame f = axis_frame(c_ax);
  const double dc = d[f.c];
  RTC_CHECK(std::abs(dc) > 1e-9);
  const double su = -d[f.a] / dc;
  const double sv = -d[f.b] / dc;

  const int a0 = axis_lo(region, f.a), a1 = axis_hi(region, f.a);
  const int b0 = axis_lo(region, f.b), b1 = axis_hi(region, f.b);
  const int c0 = axis_lo(region, f.c), c1 = axis_hi(region, f.c);
  if (a1 <= a0 || b1 <= b0 || c1 <= c0)
    return img::Image(cam.width, cam.height);

  // Intermediate raster extents covering every sheared slice footprint.
  const double su_min = std::min(su * c0, su * (c1 - 1));
  const double su_max = std::max(su * c0, su * (c1 - 1));
  const double sv_min = std::min(sv * c0, sv * (c1 - 1));
  const double sv_max = std::max(sv * c0, sv * (c1 - 1));
  const double offu = 1.0 - std::floor(a0 + su_min);
  const double offv = 1.0 - std::floor(b0 + sv_min);
  const int wu =
      static_cast<int>(std::ceil(a1 - 1 + su_max + offu)) + 2;
  const int hv =
      static_cast<int>(std::ceil(b1 - 1 + sv_max + offv)) + 2;

  std::vector<img::GrayAF> acc(static_cast<std::size_t>(wu) *
                               static_cast<std::size_t>(hv));

  const RleVolume rle(v, tf, region, c_ax);
  const bool forward = dc > 0.0;

  // --- Shear & composite: slices front to back into the intermediate.
  // [tu0, tu1) x [tv0, tv1) bounds the texels the loop touches.
  int tu0 = wu, tu1 = 0, tv0 = hv, tv1 = 0;
  std::vector<std::pair<int, int>> spans;
  for (int step = 0; step < c1 - c0; ++step) {
    const int k = forward ? c0 + step : c1 - 1 - step;
    const double shift_u = su * k + offu;
    const double shift_v = sv * k + offv;

    const int v_lo =
        std::max(0, static_cast<int>(std::ceil(b0 + shift_v - 1.0)));
    const int v_hi =
        std::min(hv - 1, static_cast<int>(std::floor(b1 - 1 + shift_v + 1.0)));
    for (int vi = v_lo; vi <= v_hi; ++vi) {
      const double j_real = vi - shift_v;
      const int j0 = static_cast<int>(std::floor(j_real));

      spans.clear();
      for (int jj = j0; jj <= j0 + 1; ++jj) {
        if (jj < b0 || jj >= b1) continue;
        for (const Run& run : rle.runs(k, jj)) {
          const int u_lo = static_cast<int>(
              std::ceil(run.begin - 1 + shift_u));
          const int u_hi = static_cast<int>(
              std::ceil(run.end + shift_u));  // exclusive
          spans.emplace_back(std::max(0, u_lo), std::min(wu, u_hi));
        }
      }
      merge_intervals(spans);

      img::GrayAF* row = acc.data() + static_cast<std::size_t>(vi) *
                                          static_cast<std::size_t>(wu);
      for (const auto& [ub, ue] : spans) {
        tu0 = std::min(tu0, ub);
        tu1 = std::max(tu1, ue);
        tv0 = std::min(tv0, vi);
        tv1 = std::max(tv1, vi + 1);
        for (int ui = ub; ui < ue; ++ui) {
          img::GrayAF& pix = row[ui];
          const double i_real = ui - shift_u;
          if (mode == RenderMode::kMip) {
            detail::accumulate_max(
                pix, detail::classify_bilinear(v, tf, region, f, i_real,
                                               j_real, k));
            continue;
          }
          if (pix.a >= detail::kOpaque) continue;
          detail::accumulate(
              pix, detail::classify_bilinear(v, tf, region, f, i_real,
                                             j_real, k));
        }
      }
    }
  }

  // --- Warp: affine map from intermediate to screen, applied inverse.
  auto lin = [&](Vec3 w) {
    return Vec2{cam.scale * dot(w, cam.right()),
                -cam.scale * dot(w, cam.up())};
  };
  const Vec2 su_col = lin(axis_unit(f.a));
  const Vec2 sv_col = lin(axis_unit(f.b));
  const std::array<double, 2> origin = cam.project(Vec3{0.0, 0.0, 0.0});
  const double det = su_col.x * sv_col.y - sv_col.x * su_col.y;
  RTC_CHECK_MSG(std::abs(det) > 1e-12, "degenerate warp");

  img::Image out(cam.width, cam.height);
  if (tu0 >= tu1) return out;

  // A pixel can read a touched texel only if its (uu, vv) lies in
  // [tu0 - 1, tu1] x [tv0 - 1, tv1]. Map that rectangle's corners
  // forward to pixel indices, widen the box by a pixel against
  // rounding, and clamp it to the image before converting to int.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double x_lo = kInf, x_hi = -kInf, y_lo = kInf, y_hi = -kInf;
  for (const double du : {tu0 - 1.0 - offu, tu1 - offu}) {
    for (const double dv : {tv0 - 1.0 - offv, tv1 - offv}) {
      const double x = origin[0] - 0.5 + su_col.x * du + sv_col.x * dv;
      const double y = origin[1] - 0.5 + su_col.y * du + sv_col.y * dv;
      x_lo = std::min(x_lo, x);
      x_hi = std::max(x_hi, x);
      y_lo = std::min(y_lo, y);
      y_hi = std::max(y_hi, y);
    }
  }
  auto first = [](double lo, double n) {
    return static_cast<int>(std::clamp(std::floor(lo) - 1.0, 0.0, n));
  };
  auto last = [](double hi, double n) {
    return static_cast<int>(std::clamp(std::ceil(hi) + 1.0, -1.0, n - 1.0));
  };
  const int ix0 = first(x_lo, cam.width), ix1 = last(x_hi, cam.width);
  const int iy0 = first(y_lo, cam.height), iy1 = last(y_hi, cam.height);

  for (int iy = iy0; iy <= iy1; ++iy) {
    for (int ix = ix0; ix <= ix1; ++ix) {
      const double rx = ix + 0.5 - origin[0];
      const double ry = iy + 0.5 - origin[1];
      const double uu = (sv_col.y * rx - sv_col.x * ry) / det + offu;
      const double vv = (-su_col.y * rx + su_col.x * ry) / det + offv;

      // Bilinear sample of the intermediate (transparent outside).
      const int iu = static_cast<int>(std::floor(uu));
      const int iv = static_cast<int>(std::floor(vv));
      const auto tu = static_cast<float>(uu - iu);
      const auto tv = static_cast<float>(vv - iv);
      auto tap = [&](int x, int y) -> img::GrayAF {
        if (x < 0 || x >= wu || y < 0 || y >= hv) return img::GrayAF{};
        return acc[static_cast<std::size_t>(y) *
                       static_cast<std::size_t>(wu) +
                   static_cast<std::size_t>(x)];
      };
      const img::GrayAF c00 = tap(iu, iv);
      const img::GrayAF c10 = tap(iu + 1, iv);
      const img::GrayAF c01 = tap(iu, iv + 1);
      const img::GrayAF c11 = tap(iu + 1, iv + 1);
      const float w00 = (1.0f - tu) * (1.0f - tv);
      const float w10 = tu * (1.0f - tv);
      const float w01 = (1.0f - tu) * tv;
      const float w11 = tu * tv;
      out.at(ix, iy) = detail::quantize(img::GrayAF{
          w00 * c00.v + w10 * c10.v + w01 * c01.v + w11 * c11.v,
          w00 * c00.a + w10 * c10.a + w01 * c01.a + w11 * c11.a});
    }
  }
  return out;
}

}  // namespace rtc::render
