// Template run-length encoding (TRLE) — Section 3 of the paper.
//
// A *template* is the blank/non-blank occupancy pattern of a 2x2 pixel
// cell; there are 16 templates (Figure 3), indexed by the 4-bit pattern
//
//     bit 0: (x,   y)      bit 1: (x+1, y)
//     bit 2: (x,   y+1)    bit 3: (x+1, y+1)
//
// A TRLE code is one byte: the lower four bits hold the template, the
// upper four bits hold (replications - 1), so one code covers up to 16
// consecutive cells with the same template. The codes describe the
// occupancy structure; the values of the non-blank pixels follow raw in
// cell order. Gray images compress well because only the *occupancy*
// needs to repeat, not the pixel values.
//
// Blocks are 1-D spans of a row-major image, so a block may start or end
// mid-cell; out-of-span (and out-of-image, for odd widths) positions are
// treated as blank on encode and skipped on decode, which keeps the two
// sides in exact agreement using geometry arithmetic only.
//
// Both hot loops lean on the dispatched SIMD kernels (rtc/simd/):
// encode classifies occupancy with one vectorized blank_mask pass and
// then reads templates as bit-pair lookups (with a 32-cells-at-a-time
// skip over fully blank stretches), and the fused decode_blend hands
// runs of full (0xF) cells to a vectorized blend that composites the
// interleaved payload straight into both destination rows. Plain decode
// runs through the same walk: blank runs become fills and full runs
// row-pair copies, so only mixed cells go pixel by pixel. The approx
// rung's decode_blend_approx rides the same walk: blank runs cost
// nothing in front of dst and one alpha count behind it. Every
// dispatch level produces byte-identical streams and images — the
// scalar-vs-SIMD property suite pins it.
#include <algorithm>
#include <cstring>
#include <vector>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compress/cells.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc::compress {

namespace {

constexpr std::uint8_t kRunShift = 4;
constexpr std::uint8_t kTemplateMask = 0x0f;
constexpr int kMaxRun = 16;

class TrleCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "trle"; }

  void encode_into(std::span<const img::GrayA8> px,
                   const BlockGeometry& geom,
                   std::vector<std::byte>& out) const override {
    // Codes precede the payload but their count is only known at the
    // end, so the two streams build separately. thread_local keeps the
    // scratch capacity alive across blocks (each rank is one thread),
    // making steady-state encodes allocation-free.
    static thread_local std::vector<std::byte> codes;
    static thread_local std::vector<std::byte> payload;
    static thread_local std::vector<std::uint64_t> occupancy;
    codes.clear();
    payload.clear();
    int run = 0;
    std::uint8_t run_template = 0;

    const auto flush = [&] {
      if (run > 0) emit(codes, run, run_template);
      run = 0;
    };
    // Folds k consecutive cells of the same template into the run,
    // emitting exactly the codes the one-cell-at-a-time logic would:
    // greedy chunks of kMaxRun, remainder left pending.
    const auto add_cells = [&](std::uint8_t tmpl, std::int64_t k) {
      while (k > 0) {
        if (run > 0 && tmpl == run_template && run < kMaxRun) {
          const int take = static_cast<int>(
              std::min<std::int64_t>(k, kMaxRun - run));
          run += take;
          k -= take;
        } else {
          flush();
          run_template = tmpl;
          run = static_cast<int>(std::min<std::int64_t>(k, kMaxRun));
          k -= run;
        }
      }
    };
    const auto push_px = [&](img::GrayA8 p) {
      payload.push_back(static_cast<std::byte>(p.v));
      payload.push_back(static_cast<std::byte>(p.a));
    };

    const std::int64_t size = static_cast<std::int64_t>(px.size());
    if (size > 0) {
      RTC_CHECK_MSG(geom.image_width > 0,
                    "TRLE needs the parent image width");
      // Vectorized classify: one occupancy bit per span pixel. All
      // template construction below is bit lookups into this mask.
      occupancy.resize(static_cast<std::size_t>((size + 63) / 64));
      simd::kernels().blank_mask(px.data(), px.size(), occupancy.data());
      const auto occupied = [&](std::int64_t i) -> std::uint8_t {
        return static_cast<std::uint8_t>(
            (occupancy[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1u);
      };
      // 64-bit occupancy window with its low bit at span index pos;
      // bits past the span end read as zero.
      const auto window = [&](std::int64_t pos) -> std::uint64_t {
        const std::size_t word = static_cast<std::size_t>(pos >> 6);
        const int off = static_cast<int>(pos & 63);
        std::uint64_t bits = occupancy[word] >> off;
        if (off != 0 && word + 1 < occupancy.size())
          bits |= occupancy[word + 1] << (64 - off);
        return bits;
      };

      const int w = geom.image_width;
      const std::int64_t first = geom.span_begin;
      const std::int64_t last = first + size - 1;
      const std::int64_t y0 = (first / w) & ~std::int64_t{1};
      const std::int64_t y1 = last / w;
      for (std::int64_t cy = y0; cy <= y1; cy += 2) {
        const bool interior =
            cy * w >= first && (cy + 2) * w - 1 <= last;
        if (!interior) {
          // Boundary row pairs (the span starts or ends inside them):
          // the generic enumeration, templates still from the mask.
          detail::for_each_cell_in_rowpair(
              cy, w, first, last, [&](const CellPixels& cell) {
                std::uint8_t tmpl = 0;
                for (int b = 0; b < 4; ++b) {
                  const std::int64_t i = cell.index[b];
                  if (i >= 0 && occupied(i) != 0)
                    tmpl = static_cast<std::uint8_t>(tmpl | (1u << b));
                }
                add_cells(tmpl, 1);
                for (int b = 0; b < 4; ++b) {
                  const std::int64_t i = cell.index[b];
                  if (i >= 0 && (tmpl & (1u << b)))
                    push_px(px[static_cast<std::size_t>(i)]);
                }
              });
          continue;
        }
        const std::int64_t row_base = cy * w - first;
        int cx = 0;
        while (cx + 1 < w) {
          // Up to 32 full cells (64 pixels per row) share one window
          // pair; a fully blank window pair folds in O(1).
          const int chunk = std::min((w - cx) / 2, 32);
          const std::uint64_t keep =
              chunk == 32 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (2 * chunk)) - 1;
          const std::uint64_t r0 = window(row_base + cx) & keep;
          const std::uint64_t r1 = window(row_base + cx + w) & keep;
          if ((r0 | r1) == 0) {
            add_cells(0, chunk);
            cx += 2 * chunk;
            continue;
          }
          for (int j = 0; j < chunk; ++j) {
            const std::uint8_t tmpl = static_cast<std::uint8_t>(
                ((r0 >> (2 * j)) & 3) | (((r1 >> (2 * j)) & 3) << 2));
            add_cells(tmpl, 1);
            if (tmpl == 0) continue;
            const std::int64_t base = row_base + cx + 2 * j;
            if (tmpl & 1u) push_px(px[static_cast<std::size_t>(base)]);
            if (tmpl & 2u) push_px(px[static_cast<std::size_t>(base + 1)]);
            if (tmpl & 4u) push_px(px[static_cast<std::size_t>(base + w)]);
            if (tmpl & 8u)
              push_px(px[static_cast<std::size_t>(base + w + 1)]);
          }
          cx += 2 * chunk;
        }
        if (cx < w) {
          // Odd width: the row's last cell covers x = cx only; bits
          // 1/3 address out-of-image pixels and carry no payload.
          const std::int64_t base = row_base + cx;
          const std::uint8_t tmpl = static_cast<std::uint8_t>(
              occupied(base) | (occupied(base + w) << 2));
          add_cells(tmpl, 1);
          if (tmpl & 1u) push_px(px[static_cast<std::size_t>(base)]);
          if (tmpl & 4u) push_px(px[static_cast<std::size_t>(base + w)]);
        }
      }
      flush();
    }

    out.reserve(out.size() + 4 + codes.size() + payload.size());
    wire::WireWriter w(out);
    w.u32(static_cast<std::uint32_t>(codes.size()));
    w.bytes(codes);
    w.bytes(payload);
  }

  void decode(std::span<const std::byte> bytes, std::span<img::GrayA8> out,
              const BlockGeometry& geom) const override {
    // Every span pixel is written exactly once: payload pixels and
    // blank bits one by one, interior runs of blank cells as two fills
    // and runs of full cells as row-pair copies of their payload.
    walk(bytes, out, geom,
         [&](std::size_t i, img::GrayA8 p) { out[i] = p; },
         [&](std::size_t i) { out[i] = img::kBlank; },
         [](img::GrayA8* row0, img::GrayA8* row1, std::size_t k) {
           std::fill_n(row0, 2 * k, img::kBlank);
           std::fill_n(row1, 2 * k, img::kBlank);
         },
         copy_full_cells);
  }

  void decode_blend(std::span<const std::byte> bytes,
                    std::span<img::GrayA8> dst, const BlockGeometry& geom,
                    img::BlendMode mode, bool src_front,
                    std::vector<img::GrayA8>&) const override {
    // Fused path — the paper's Section 3 payoff: blank template bits
    // are the identity under both blend modes, so cells of blank
    // structure cost nothing; only payload pixels touch dst. Runs of
    // full (0xF) cells — the bulk of any dense region — go through
    // the dispatched SIMD cell blend.
    const simd::Kernels& k = simd::kernels();
    const auto keep = [](std::size_t) {};
    const auto keep_cells = [](img::GrayA8*, img::GrayA8*, std::size_t) {};
    if (mode == img::BlendMode::kMax) {
      walk(bytes, dst, geom,
           [&](std::size_t i, img::GrayA8 p) {
             dst[i] = img::max_blend(dst[i], p);
           },
           keep, keep_cells, k.fused_cells_max);
    } else if (src_front) {
      walk(bytes, dst, geom,
           [&](std::size_t i, img::GrayA8 p) {
             dst[i] = img::over(p, dst[i]);
           },
           keep, keep_cells, k.fused_cells_over_front);
    } else {
      walk(bytes, dst, geom,
           [&](std::size_t i, img::GrayA8 p) {
             dst[i] = img::over(dst[i], p);
           },
           keep, keep_cells, k.fused_cells_over_back);
    }
  }

  img::ApproxBlendStats decode_blend_approx(
      std::span<const std::byte> bytes, std::span<img::GrayA8> dst,
      const BlockGeometry& geom, bool src_front, int saturation,
      std::vector<img::GrayA8>& scratch) const override {
    if (saturation <= 0) {
      decode_blend(bytes, dst, geom, img::BlendMode::kOver, src_front,
                   scratch);
      return {static_cast<std::int64_t>(dst.size()), 0};
    }
    // img::blend_in_place_approx's rule, one stream walk. A blank src
    // pixel is the identity under `over`: in front it always counts as
    // blended; behind, it counts as skipped where dst is saturated, so
    // blank positions only read dst (and only when src is behind).
    const auto sat = static_cast<std::uint8_t>(std::min(saturation, 255));
    std::int64_t skipped = 0;
    const auto run = [&](auto&& blend, auto&& blank) {
      const auto px = [](const std::byte* p) {
        return img::GrayA8{static_cast<std::uint8_t>(p[0]),
                           static_cast<std::uint8_t>(p[1])};
      };
      walk(bytes, dst, geom,
           [&](std::size_t i, img::GrayA8 p) { blend(dst[i], p); },
           [&](std::size_t i) { blank(&dst[i], 1); },
           [&](img::GrayA8* row0, img::GrayA8* row1, std::size_t k) {
             blank(row0, 2 * k);
             blank(row1, 2 * k);
           },
           [&](img::GrayA8* row0, img::GrayA8* row1,
               const std::byte* payload, std::size_t k) {
             for (std::size_t j = 0; j < k; ++j, payload += 8) {
               blend(row0[2 * j], px(payload));
               blend(row0[2 * j + 1], px(payload + 2));
               blend(row1[2 * j], px(payload + 4));
               blend(row1[2 * j + 1], px(payload + 6));
             }
           });
    };
    if (src_front) {
      run(
          [&](img::GrayA8& d, img::GrayA8 p) {
            if (p.a >= sat) {
              d = p;
              ++skipped;
            } else {
              d = img::over(p, d);
            }
          },
          [](const img::GrayA8*, std::size_t) {});
    } else {
      run(
          [&](img::GrayA8& d, img::GrayA8 p) {
            if (d.a >= sat) {
              ++skipped;
            } else {
              d = img::over(d, p);
            }
          },
          [&](const img::GrayA8* d, std::size_t n) {
            for (std::size_t j = 0; j < n; ++j)
              skipped += d[j].a >= sat ? 1 : 0;
          });
    }
    return {static_cast<std::int64_t>(dst.size()) - skipped, skipped};
  }

 private:
  static void emit(std::vector<std::byte>& codes, int run,
                   std::uint8_t tmpl) {
    RTC_DCHECK(run >= 1 && run <= kMaxRun);
    codes.push_back(
        static_cast<std::byte>(((run - 1) << kRunShift) | tmpl));
  }

  /// decode's full-cell run: the payload holds k cells of 4 pixels in
  /// template-bit order, a row0 pair then a row1 pair per cell. Each
  /// payload pixel is (v, a), GrayA8's own layout (image/serialize.cpp
  /// pins it), so a row pair is one 4-byte copy.
  static void copy_full_cells(img::GrayA8* row0, img::GrayA8* row1,
                              const std::byte* payload, std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) {
      std::memcpy(row0 + 2 * j, payload + 8 * j, 4);
      std::memcpy(row1 + 2 * j, payload + 8 * j + 4, 4);
    }
  }

  /// The one validated walk over an untrusted TRLE stream, covering the
  /// `dst.size()` span pixels at `geom`: `set(i, p)` for every payload
  /// pixel, `clear(i)` for every in-span blank bit the walk visits one
  /// by one. Interior row pairs (both rows inside the span) address
  /// cells by direct index arithmetic, with no per-pixel bounds checks,
  /// and hand whole runs to two bulk actions: a run of blank templates
  /// goes to `blank_cells(row0, row1, k)` with no payload, and a run of
  /// full (0xF) cells to `full_cells(row0, row1, payload, k)`, 4 payload
  /// pixels per cell into both rows. Boundary row pairs fall back to the
  /// generic enumeration, so the cell order (and thus code/payload
  /// consumption) is exactly for_each_cell's. The code-count header is
  /// bounds-checked through the reader (no `4 + n` arithmetic that can
  /// wrap), and the stream must cover the cells exactly with no
  /// trailing codes or payload. trle_test pins decode against a
  /// per-cell reference walk, and the decode_blend-vs-decode+blend
  /// property tests pin the blend actions, across odd widths and
  /// mid-cell span starts.
  template <typename Set, typename Clear, typename BlankCells,
            typename FullCells>
  static void walk(std::span<const std::byte> bytes,
                   std::span<img::GrayA8> dst, const BlockGeometry& geom,
                   Set&& set, Clear&& clear, BlankCells&& blank_cells,
                   FullCells&& full_cells) {
    wire::WireReader r(bytes);
    const std::uint32_t n_codes = r.u32("TRLE code count");
    const std::span<const std::byte> codes =
        r.bytes(n_codes, "TRLE code block");
    const std::span<const std::byte> payload = r.rest();
    const std::size_t size = dst.size();

    std::size_t code_i = 0;
    int remaining = 0;
    std::uint8_t tmpl = 0;
    std::size_t pay_i = 0;

    const auto fetch = [&] {
      wire::require(code_i < codes.size(),
                    wire::DecodeError::Kind::kTruncated,
                    "TRLE code stream underrun");
      const auto code = static_cast<std::uint8_t>(codes[code_i++]);
      remaining = (code >> kRunShift) + 1;
      tmpl = code & kTemplateMask;
    };
    const auto take_px = [&]() -> img::GrayA8 {
      wire::require(pay_i + 2 <= payload.size(),
                    wire::DecodeError::Kind::kTruncated,
                    "TRLE payload underrun");
      const img::GrayA8 p{static_cast<std::uint8_t>(payload[pay_i]),
                          static_cast<std::uint8_t>(payload[pay_i + 1])};
      pay_i += 2;
      return p;
    };
    // One template bit at span index i.
    const auto visit = [&](std::int64_t i, unsigned bit) {
      if (tmpl & bit) {
        set(static_cast<std::size_t>(i), take_px());
      } else {
        clear(static_cast<std::size_t>(i));
      }
    };

    if (size != 0) {
      RTC_CHECK_MSG(geom.image_width > 0,
                    "TRLE needs the parent image width");
      const int w = geom.image_width;
      const std::int64_t first = geom.span_begin;
      const std::int64_t last =
          first + static_cast<std::int64_t>(size) - 1;
      const std::int64_t y0 = (first / w) & ~std::int64_t{1};
      const std::int64_t y1 = last / w;
      for (std::int64_t cy = y0; cy <= y1; cy += 2) {
        const bool interior =
            cy * w >= first && (cy + 2) * w - 1 <= last;
        if (!interior) {
          detail::for_each_cell_in_rowpair(
              cy, w, first, last, [&](const CellPixels& cell) {
                if (remaining == 0) fetch();
                --remaining;
                for (int b = 0; b < 4; ++b)
                  if (cell.index[b] >= 0) visit(cell.index[b], 1u << b);
              });
          continue;
        }
        const std::int64_t row_base = cy * w - first;
        img::GrayA8* const row0 =
            dst.data() + static_cast<std::size_t>(row_base);
        img::GrayA8* const row1 = row0 + w;
        int cx = 0;
        while (cx + 1 < w) {
          if (remaining == 0) fetch();
          const int n_full = (w - cx) / 2;
          const int k = remaining < n_full ? remaining : n_full;
          if (tmpl == 0) {
            // A blank run: consume it against this row's full cells
            // without touching payload.
            blank_cells(row0 + cx, row1 + cx, static_cast<std::size_t>(k));
            remaining -= k;
            cx += 2 * k;
            continue;
          }
          if (tmpl == kTemplateMask) {
            // A full run: k cells of 4 payload pixels into both rows.
            // On a truncated payload fall through to the per-pixel
            // path, so the partial writes and the error match a
            // cell-by-cell walk.
            const std::size_t need = static_cast<std::size_t>(k) * 8;
            if (pay_i + need <= payload.size()) {
              full_cells(row0 + cx, row1 + cx, payload.data() + pay_i,
                         static_cast<std::size_t>(k));
              pay_i += need;
              remaining -= k;
              cx += 2 * k;
              continue;
            }
          }
          --remaining;
          const std::int64_t base = row_base + cx;
          visit(base, 1u);
          visit(base + 1, 2u);
          visit(base + w, 4u);
          visit(base + w + 1, 8u);
          cx += 2;
        }
        if (cx < w) {
          // Odd width: the row's last cell covers x = cx only; bits
          // 1/3 address out-of-image pixels and carry no payload
          // (matching the generic enumeration's index < 0 skip).
          if (remaining == 0) fetch();
          --remaining;
          const std::int64_t base = row_base + cx;
          visit(base, 1u);
          visit(base + w, 4u);
        }
      }
    }
    wire::require(remaining == 0 && code_i == codes.size(),
                  wire::DecodeError::Kind::kTrailing,
                  "TRLE code stream overrun");
    wire::require(pay_i == payload.size(),
                  wire::DecodeError::Kind::kTrailing,
                  "trailing TRLE payload");
  }
};

}  // namespace

std::unique_ptr<Codec> make_trle_codec() {
  return std::make_unique<TrleCodec>();
}

}  // namespace rtc::compress
