#include <cmath>
#include <string>

#include "rtc/common/check.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/render/sampling.hpp"

namespace rtc::render {

int principal_axis(const Vec3& dir) {
  const double ax = std::abs(dir.x);
  const double ay = std::abs(dir.y);
  const double az = std::abs(dir.z);
  if (ax >= ay && ax >= az) return 0;
  if (ay >= ax && ay >= az) return 1;
  return 2;
}

BrickRenderer brick_renderer(const std::string& name) {
  constexpr std::array<BrickRenderer, kRendererNames.size()> kRenderers = {
      render_shearwarp, render_raycast, render_splat};
  std::string expected;
  for (std::size_t i = 0; i < kRendererNames.size(); ++i) {
    if (name == kRendererNames[i]) return kRenderers[i];
    if (i > 0) expected += i + 1 == kRendererNames.size() ? " or " : ", ";
    expected += kRendererNames[i];
  }
  throw ContractError("unknown renderer '" + name + "' (expected " +
                      expected + ")");
}

img::Image render_raycast(const vol::Volume& v,
                          const vol::TransferFunction& tf,
                          const vol::Brick& region,
                          const OrthoCamera& cam, RenderMode mode) {
  img::Image out(cam.width, cam.height);
  const Vec3 d = cam.direction();
  const int c_ax = principal_axis(d);
  const AxisFrame f = axis_frame(c_ax);
  const double dc = d[f.c];
  RTC_CHECK(std::abs(dc) > 1e-9);

  const int c0 = f.c == 0 ? region.x0 : (f.c == 1 ? region.y0 : region.z0);
  const int c1 = f.c == 0 ? region.x1 : (f.c == 1 ? region.y1 : region.z1);
  const bool forward = dc > 0.0;

  const Vec3 r = cam.right();
  const Vec3 u = cam.up();
  for (int iy = 0; iy < cam.height; ++iy) {
    for (int ix = 0; ix < cam.width; ++ix) {
      const double sx = (ix + 0.5 - 0.5 * cam.width) / cam.scale;
      const double sy = (iy + 0.5 - 0.5 * cam.height) / cam.scale;
      const Vec3 q = cam.center + sx * r + (-sy) * u;
      img::GrayAF acc;
      for (int step = 0; step < c1 - c0; ++step) {
        const int k = forward ? c0 + step : c1 - 1 - step;
        const double t = (k - q[f.c]) / dc;
        const Vec3 p = q + t * d;
        const img::GrayAF s =
            detail::classify_bilinear(v, tf, region, f, p[f.a], p[f.b], k);
        if (mode == RenderMode::kMip) {
          detail::accumulate_max(acc, s);
        } else {
          detail::accumulate(acc, s);
          if (acc.a >= detail::kOpaque) break;
        }
      }
      out.at(ix, iy) = detail::quantize(acc);
    }
  }
  return out;
}

}  // namespace rtc::render
