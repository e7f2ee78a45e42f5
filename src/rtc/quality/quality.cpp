#include "rtc/quality/quality.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "rtc/common/check.hpp"
#include "rtc/image/ops.hpp"

namespace rtc::quality {

const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kExact: return "exact";
    case Rung::kApprox: return "approx";
    case Rung::kProgressive: return "progressive";
    case Rung::kStale: return "stale";
    case Rung::kBlank: return "blank";
  }
  return "?";
}

std::optional<Rung> parse_rung(const std::string& name) {
  for (int i = 0; i < kRungCount; ++i) {
    const Rung r = static_cast<Rung>(i);
    if (name == rung_name(r)) return r;
  }
  return std::nullopt;
}

int approx_error_bound(int saturation) {
  if (saturation < 128 || saturation > 255) return 255;
  return std::min(255, 2 * (255 - saturation) + 16);
}

int progressive_error_bound(std::span<const img::Image> partials,
                            int coarse_factor) {
  if (coarse_factor < 2 || partials.empty()) return 255;
  const int f = coarse_factor;
  const int w = partials[0].width();
  const int h = partials[0].height();
  const int cw = (w + f - 1) / f;
  const int ch = (h + f - 1) / f;
  for (const img::Image& p : partials)
    RTC_CHECK_MSG(p.width() == w && p.height() == h,
                  "partials must share their dimensions");
  // One LSB of box-average rounding per rank plus blend-tree drift.
  if (partials.size() + 8 >= 255) return 255;
  const int slack = static_cast<int>(partials.size()) + 8;
  // Partial-major: each partial adds its per-cell (value range + alpha
  // range) into one sum per coarse cell, a band of f rows at a time.
  // Cells outside a band's non-blank columns have range 0. The sums
  // only grow, so the first one to reach the clamp decides the answer.
  std::vector<int> sum(static_cast<std::size_t>(cw) *
                       static_cast<std::size_t>(ch));
  std::vector<int> vmin(static_cast<std::size_t>(cw));
  std::vector<int> vmax(vmin.size()), amin(vmin.size()), amax(vmin.size());
  for (const img::Image& p : partials) {
    for (int cy = 0; cy < ch; ++cy) {
      const int y0 = cy * f;
      const int y1 = std::min(h, y0 + f);
      const img::ColumnRange cols = img::non_blank_columns(p, y0, y1);
      if (cols.empty()) continue;
      const int c0 = cols.begin / f;
      const int c1 = (cols.end - 1) / f + 1;
      std::fill(vmin.begin() + c0, vmin.begin() + c1, 255);
      std::fill(vmax.begin() + c0, vmax.begin() + c1, 0);
      std::fill(amin.begin() + c0, amin.begin() + c1, 255);
      std::fill(amax.begin() + c0, amax.begin() + c1, 0);
      for (int y = y0; y < y1; ++y) {
        const img::GrayA8* row = &p.at(0, y);
        for (int c = c0; c < c1; ++c) {
          const auto i = static_cast<std::size_t>(c);
          const int x1 = std::min(w, (c + 1) * f);
          for (int x = c * f; x < x1; ++x) {
            vmin[i] = std::min(vmin[i], static_cast<int>(row[x].v));
            vmax[i] = std::max(vmax[i], static_cast<int>(row[x].v));
            amin[i] = std::min(amin[i], static_cast<int>(row[x].a));
            amax[i] = std::max(amax[i], static_cast<int>(row[x].a));
          }
        }
      }
      int* band = sum.data() + static_cast<std::ptrdiff_t>(cy) * cw;
      for (int c = c0; c < c1; ++c) {
        const auto i = static_cast<std::size_t>(c);
        band[c] += (vmax[i] - vmin[i]) + (amax[i] - amin[i]);
        if (band[c] + slack >= 255) return 255;
      }
    }
  }
  const int worst =
      sum.empty() ? 0 : *std::max_element(sum.begin(), sum.end());
  return worst + slack;
}

Rung step_down(Rung r, Rung floor) {
  const int next = std::min(static_cast<int>(r) + 1, static_cast<int>(floor));
  return static_cast<Rung>(std::max(next, static_cast<int>(r)));
}

Rung step_up(Rung r) {
  if (r == Rung::kExact) return r;
  return static_cast<Rung>(static_cast<int>(r) - 1);
}

int rung_error_bound(Rung r, const QualityPolicy& policy,
                     std::span<const img::Image> partials) {
  switch (r) {
    case Rung::kExact: return 0;
    case Rung::kApprox: return approx_error_bound(policy.saturation);
    case Rung::kProgressive:
      return progressive_error_bound(partials, policy.coarse_factor);
    case Rung::kStale:
    case Rung::kBlank: return 255;
  }
  return 255;
}

RungChoice enforce_contract(Rung proposed, const QualityPolicy& policy,
                            std::span<const img::Image> partials) {
  Rung r = std::min(proposed, policy.max_rung);
  while (r != Rung::kExact) {
    const int bound = rung_error_bound(r, policy, partials);
    if (bound <= policy.max_error) return {r, bound};
    r = step_up(r);
  }
  return {Rung::kExact, 0};
}

}  // namespace rtc::quality
