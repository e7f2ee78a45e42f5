// Microbenchmarks for the hot paths: the "over" operator, the codecs,
// and schedule construction.
//
// Two modes:
//   * default — google-benchmark suite (args go to the benchmark
//     library: --benchmark_filter=..., etc.)
//   * --wallclock — measured-throughput mode for the perf CI gate:
//     runs each pixel/codec kernel, the raw wire format's round trip,
//     the progressive rung's bound and downsample and the wire CRC at
//     every SIMD dispatch level this machine supports and reports
//     Mpix/s and MB/s per kernel plus SIMD-over-scalar speedups,
//     optionally as JSON (BENCH_wallclock.json) for
//     scripts/check_wallclock.sh.
#include <benchmark/benchmark.h>

#include <chrono>
#include <climits>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rtc/comm/frame.hpp"
#include "rtc/common/flags.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"
#include "rtc/quality/quality.hpp"
#include "rtc/simd/dispatch.hpp"

namespace {

using namespace rtc;

img::Image sparse_image(int n) {
  img::Image im(n, n);
  for (int y = n / 4; y < 3 * n / 4; ++y)
    for (int x = n / 4; x < 3 * n / 4; ++x)
      im.at(x, y) = img::GrayA8{
          static_cast<std::uint8_t>((x * 7 + y * 13) & 0xff), 255};
  return im;
}

/// Progressive-rung partials whose error bound stays under the clamp,
/// so the bound walks every band instead of stopping early: a low-alpha
/// gradient over sparse_image's cell-aligned central square.
std::vector<img::Image> smooth_partials(int n, int count) {
  std::vector<img::Image> out;
  for (int r = 0; r < count; ++r) {
    img::Image im(n, n);
    for (int y = n / 4; y < 3 * n / 4; ++y)
      for (int x = n / 4; x < 3 * n / 4; ++x) {
        const int a = 8 + (x + y + r) % 4;
        im.at(x, y) = img::GrayA8{static_cast<std::uint8_t>(a / 2),
                                  static_cast<std::uint8_t>(a)};
      }
    out.push_back(std::move(im));
  }
  return out;
}

void BM_OverInPlace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  img::Image dst = sparse_image(n);
  const img::Image src = sparse_image(n);
  for (auto _ : state) {
    img::over_in_place_back(dst.pixels(), src.pixels());
    benchmark::DoNotOptimize(dst.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() * dst.pixel_count());
}
BENCHMARK(BM_OverInPlace)->Arg(128)->Arg(512);

void BM_CodecEncode(benchmark::State& state, const char* name) {
  const img::Image im = sparse_image(512);
  const auto codec = compress::make_codec(name);
  const compress::BlockGeometry geom{512, 0};
  for (auto _ : state) {
    auto bytes = codec->encode(im.pixels(), geom);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * im.pixel_count());
}
BENCHMARK_CAPTURE(BM_CodecEncode, rle, "rle");
BENCHMARK_CAPTURE(BM_CodecEncode, trle, "trle");
BENCHMARK_CAPTURE(BM_CodecEncode, bbox, "bbox");

void BM_CodecDecode(benchmark::State& state, const char* name) {
  const img::Image im = sparse_image(512);
  const auto codec = compress::make_codec(name);
  const compress::BlockGeometry geom{512, 0};
  const auto bytes = codec->encode(im.pixels(), geom);
  std::vector<img::GrayA8> out(
      static_cast<std::size_t>(im.pixel_count()));
  for (auto _ : state) {
    codec->decode(bytes, out, geom);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * im.pixel_count());
}
BENCHMARK_CAPTURE(BM_CodecDecode, rle, "rle");
BENCHMARK_CAPTURE(BM_CodecDecode, trle, "trle");

// The P=32 TRLE composition step: a rank receives one encoded block of
// A/P pixels (512x512 image, 32 ranks -> 8192-pixel blocks) and folds
// it into its local partial. "Unfused" is the legacy shape — decode
// into a freshly allocated intermediate image, then blend. "Fused" is
// the decode_blend path over a reused scratch: TRLE runs composite
// straight into the destination and blank structure is skipped.
constexpr int kStepWidth = 512;
constexpr std::int64_t kStepPixels = 512LL * 512 / 32;

void BM_DecodeBlendUnfused(benchmark::State& state, const char* name) {
  const img::Image im = sparse_image(kStepWidth);
  const auto codec = compress::make_codec(name);
  const img::PixelSpan span{16 * kStepPixels, 17 * kStepPixels};
  const compress::BlockGeometry geom{kStepWidth, span.begin};
  const auto bytes = codec->encode(im.view(span), geom);
  img::Image dst = sparse_image(kStepWidth);
  for (auto _ : state) {
    std::vector<img::GrayA8> incoming(
        static_cast<std::size_t>(span.size()));
    codec->decode(bytes, incoming, geom);
    img::blend_in_place(dst.view(span), incoming, img::BlendMode::kOver,
                        /*src_front=*/false);
    benchmark::DoNotOptimize(dst.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() * span.size());
}
BENCHMARK_CAPTURE(BM_DecodeBlendUnfused, trle, "trle");
BENCHMARK_CAPTURE(BM_DecodeBlendUnfused, rle, "rle");

void BM_DecodeBlendFused(benchmark::State& state, const char* name) {
  const img::Image im = sparse_image(kStepWidth);
  const auto codec = compress::make_codec(name);
  const img::PixelSpan span{16 * kStepPixels, 17 * kStepPixels};
  const compress::BlockGeometry geom{kStepWidth, span.begin};
  const auto bytes = codec->encode(im.view(span), geom);
  img::Image dst = sparse_image(kStepWidth);
  std::vector<img::GrayA8> scratch;
  for (auto _ : state) {
    codec->decode_blend(bytes, dst.view(span), geom,
                        img::BlendMode::kOver, /*src_front=*/false,
                        scratch);
    benchmark::DoNotOptimize(dst.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() * span.size());
}
BENCHMARK_CAPTURE(BM_DecodeBlendFused, trle, "trle");
BENCHMARK_CAPTURE(BM_DecodeBlendFused, rle, "rle");

// Encode into a pooled (reused) buffer vs a fresh allocation per block
// — the send side of the same composition step.
void BM_EncodeFreshAlloc(benchmark::State& state) {
  const img::Image im = sparse_image(kStepWidth);
  const auto codec = compress::make_codec("trle");
  const img::PixelSpan span{16 * kStepPixels, 17 * kStepPixels};
  const compress::BlockGeometry geom{kStepWidth, span.begin};
  for (auto _ : state) {
    auto bytes = codec->encode(im.view(span), geom);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * span.size());
}
BENCHMARK(BM_EncodeFreshAlloc);

void BM_EncodePooledBuffer(benchmark::State& state) {
  const img::Image im = sparse_image(kStepWidth);
  const auto codec = compress::make_codec("trle");
  const img::PixelSpan span{16 * kStepPixels, 17 * kStepPixels};
  const compress::BlockGeometry geom{kStepWidth, span.begin};
  std::vector<std::byte> bytes;
  for (auto _ : state) {
    bytes.clear();
    codec->encode_into(im.view(span), geom, bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * span.size());
}
BENCHMARK(BM_EncodePooledBuffer);

void BM_BuildSchedule(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto s =
        core::build_rt_schedule(p, 4, core::RtVariant::kGeneralized);
    benchmark::DoNotOptimize(s.final_owner.data());
  }
}
BENCHMARK(BM_BuildSchedule)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------
// --wallclock mode: measured kernel throughput for the perf CI gate.

struct WallclockOptions {
  int image = 512;      ///< square test-image side
  int repeat = 5;       ///< samples per kernel; best throughput wins
  int blend_threads = 0;  ///< when > 0, also measure the tiled blend
  std::string simd;     ///< restrict to one level ("" = all supported)
  std::string json_out;
};

/// One measured kernel: best-of-`repeat` throughput. Each sample runs
/// `fn` in a doubling loop until it has spent >= 10 ms, so fast kernels
/// are timed over many iterations and slow ones are not padded.
double measure_mpix_s(std::int64_t pixels_per_call, int repeat,
                      const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  constexpr double kMinSampleSeconds = 0.010;
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    std::int64_t iters = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::int64_t i = 0; i < iters; ++i) fn();
      const double s =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (s >= kMinSampleSeconds) {
        const double mpix =
            static_cast<double>(pixels_per_call * iters) / s / 1e6;
        if (mpix > best) best = mpix;
        break;
      }
      iters = s <= 0.0 ? iters * 8 : iters * 2;
    }
  }
  return best;
}

struct KernelResult {
  std::string key;  ///< "kernel/level"
  double mpix_s = 0.0;
  double mb_s = 0.0;  ///< raw pixel bytes (2 per GrayA8 pixel)
};

/// Measures every kernel at one dispatch level. The level is already
/// active; `level` only labels the keys.
void measure_level(const WallclockOptions& o, const std::string& level,
                   std::vector<KernelResult>& out) {
  const int n = o.image;
  const std::int64_t pixels = std::int64_t{n} * n;
  const img::Image src = sparse_image(n);
  img::Image dst = sparse_image(n);
  const auto codec = compress::make_codec("trle");
  const compress::BlockGeometry geom{n, 0};
  const auto encoded = codec->encode(src.pixels(), geom);
  std::vector<std::byte> enc_buf;
  std::vector<std::byte> raw_buf;
  std::vector<img::GrayA8> scratch;
  std::vector<img::GrayA8> decoded(static_cast<std::size_t>(pixels));

  const auto add = [&](const std::string& kernel, double mpix) {
    out.push_back(KernelResult{kernel + "/" + level, mpix, mpix * 2.0});
  };
  add("over_front", measure_mpix_s(pixels, o.repeat, [&] {
        img::over_in_place_front(dst.pixels(), src.pixels());
      }));
  add("over_back", measure_mpix_s(pixels, o.repeat, [&] {
        img::over_in_place_back(dst.pixels(), src.pixels());
      }));
  add("max_blend", measure_mpix_s(pixels, o.repeat, [&] {
        img::max_in_place(dst.pixels(), src.pixels());
      }));
  add("count_non_blank", measure_mpix_s(pixels, o.repeat, [&] {
        benchmark::DoNotOptimize(img::count_non_blank(src.pixels()));
      }));
  add("trle_encode", measure_mpix_s(pixels, o.repeat, [&] {
        enc_buf.clear();
        codec->encode_into(src.pixels(), geom, enc_buf);
        benchmark::DoNotOptimize(enc_buf.data());
      }));
  add("trle_decode_blend", measure_mpix_s(pixels, o.repeat, [&] {
        codec->decode_blend(encoded, dst.pixels(), geom,
                            img::BlendMode::kOver, /*src_front=*/false,
                            scratch);
      }));
  // The approx rung's fused walk: saturated dst pixels skip the blend.
  add("trle_decode_blend_approx", measure_mpix_s(pixels, o.repeat, [&] {
        benchmark::DoNotOptimize(codec->decode_blend_approx(
            encoded, dst.pixels(), geom, /*src_front=*/false,
            /*saturation=*/240, scratch));
      }));
  // The progressive rung's host-side prep: the error bound over four
  // partials (pixels counted over all four) and one coarse partial.
  const std::vector<img::Image> smooth = smooth_partials(n, 4);
  add("progressive_bound", measure_mpix_s(4 * pixels, o.repeat, [&] {
        benchmark::DoNotOptimize(quality::progressive_error_bound(smooth, 4));
      }));
  add("downsample", measure_mpix_s(pixels, o.repeat, [&] {
        benchmark::DoNotOptimize(img::downsample(src, 4));
      }));
  // Plain decode, as radix and pp's ring segments decode every block.
  add("trle_decode", measure_mpix_s(pixels, o.repeat, [&] {
        codec->decode(encoded, decoded, geom);
        benchmark::DoNotOptimize(decoded.data());
      }));
  // The raw wire format both ways: serialize on send, deserialize on
  // receive.
  add("raw_roundtrip", measure_mpix_s(pixels, o.repeat, [&] {
        raw_buf.clear();
        img::serialize_pixels_into(src.pixels(), raw_buf);
        img::deserialize_pixels(raw_buf, decoded);
        benchmark::DoNotOptimize(decoded.data());
      }));
  // The wire checksum over the image's raw bytes, as a raw-codec frame
  // of this image would be checksummed on send and again on receive.
  add("crc32", measure_mpix_s(pixels, o.repeat, [&] {
        benchmark::DoNotOptimize(comm::crc32(std::as_bytes(src.pixels())));
      }));
  if (o.blend_threads > 1) {
    img::set_blend_threads(o.blend_threads);
    add("over_back_tiled", measure_mpix_s(pixels, o.repeat, [&] {
          img::blend_in_place_tiled(dst.pixels(), src.pixels(),
                                    img::BlendMode::kOver,
                                    /*src_front=*/false);
        }));
    img::set_blend_threads(1);
  }
}

int wallclock_main(const WallclockOptions& o) {
  const simd::SimdLevel detected = simd::detected_level();
  std::vector<simd::SimdLevel> levels;
  if (o.simd.empty()) {
    // Every level this machine can run, scalar first (the baseline).
    levels.push_back(simd::SimdLevel::kScalar);
    if (detected >= simd::SimdLevel::kSse2)
      levels.push_back(simd::SimdLevel::kSse2);
    if (detected >= simd::SimdLevel::kAvx2)
      levels.push_back(simd::SimdLevel::kAvx2);
  } else if (o.simd == "auto") {
    levels.push_back(detected);
  } else {
    const auto lvl = simd::parse_simd_level(o.simd);
    if (!lvl) {
      std::cerr << "unknown --simd: " << o.simd
                << " (expected auto, scalar, sse2 or avx2)\n";
      return 2;
    }
    levels.push_back(*lvl);
  }

  std::cout << "== bench_micro --wallclock ==\n"
            << "image=" << o.image << "x" << o.image
            << " repeat=" << o.repeat
            << " detected=" << simd::to_string(detected) << "\n\n";

  std::vector<KernelResult> results;
  for (const simd::SimdLevel lvl : levels) {
    std::string note;
    simd::set_level(simd::resolve_level(lvl, detected, &note));
    if (!note.empty()) std::cerr << note << "\n";
    measure_level(o, simd::to_string(simd::active_level()), results);
  }
  simd::set_level(detected);  // restore auto dispatch

  // SIMD-over-scalar speedups, computable only when the scalar
  // baseline was measured in this same run.
  std::vector<std::pair<std::string, double>> speedups;
  for (const KernelResult& r : results) {
    const std::size_t slash = r.key.rfind('/');
    const std::string kernel = r.key.substr(0, slash);
    const std::string level = r.key.substr(slash + 1);
    if (level == "scalar") continue;
    for (const KernelResult& base : results) {
      if (base.key == kernel + "/scalar" && base.mpix_s > 0.0) {
        speedups.emplace_back(r.key, r.mpix_s / base.mpix_s);
        break;
      }
    }
  }

  std::cout << std::left << std::setw(28) << "kernel/level"
            << std::right << std::setw(12) << "Mpix/s" << std::setw(12)
            << "MB/s" << std::setw(10) << "speedup" << "\n";
  for (const KernelResult& r : results) {
    std::cout << std::left << std::setw(28) << r.key << std::right
              << std::fixed << std::setprecision(1) << std::setw(12)
              << r.mpix_s << std::setw(12) << r.mb_s;
    bool has_speedup = false;
    for (const auto& [key, s] : speedups) {
      if (key == r.key) {
        std::cout << std::setw(9) << std::setprecision(2) << s << "x";
        has_speedup = true;
        break;
      }
    }
    if (!has_speedup) std::cout << std::setw(10) << "-";
    std::cout << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  if (!o.json_out.empty()) {
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\n  \"bench\": \"bench_micro_wallclock\",\n"
       << "  \"image\": " << o.image << ",\n"
       << "  \"repeat\": " << o.repeat << ",\n"
       << "  \"detected\": \"" << simd::to_string(detected) << "\",\n"
       << "  \"kernels\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
      os << (i ? "," : "") << "\n    \"" << results[i].key
         << "\": {\"mpix_s\": " << results[i].mpix_s
         << ", \"mb_s\": " << results[i].mb_s << "}";
    }
    os << "\n  },\n  \"speedup\": {";
    for (std::size_t i = 0; i < speedups.size(); ++i) {
      os << (i ? "," : "") << "\n    \"" << speedups[i].first
         << "\": " << speedups[i].second;
    }
    os << "\n  }\n}\n";
    std::ofstream f(o.json_out);
    f << os.str();
    if (!f.good()) {
      std::cerr << "cannot write " << o.json_out << "\n";
      return 1;
    }
    std::cout << "\nwrote " << o.json_out << "\n";
  }
  return 0;
}

/// Strict flag parsing for --wallclock mode (rtc/common/flags.hpp
/// whole-string numbers; unknown flags are usage errors, exit 2).
int parse_and_run_wallclock(int argc, char** argv) {
  WallclockOptions o;
  o.json_out = "BENCH_wallclock.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&]() -> int {
      const std::string v = next();
      const auto parsed = flags::parse_int(v);
      if (!parsed || *parsed < 1 || *parsed > INT_MAX) {
        std::cerr << "bad value for " << a << ": '" << v
                  << "' (expected a positive integer)\n";
        std::exit(2);
      }
      return static_cast<int>(*parsed);
    };
    if (a == "--wallclock") {
      continue;
    } else if (a == "--image") {
      o.image = next_int();
    } else if (a == "--repeat") {
      o.repeat = next_int();
    } else if (a == "--blend-threads") {
      o.blend_threads = next_int();
    } else if (a == "--simd") {
      o.simd = next();
    } else if (a == "--json") {
      o.json_out = next();
    } else {
      std::cerr << "unknown option " << a << "\n";
      std::exit(2);
    }
  }
  return wallclock_main(o);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--wallclock")
      return parse_and_run_wallclock(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
