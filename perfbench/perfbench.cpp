// perfbench — end-to-end wall-clock benchmark of the rtcomp pipeline.
//
//   perfbench --workload sweep|composite|service --seed N --seconds S
//             --trace 0|1
//
// Every workload runs through the public API only
// (frames::run_sequence, harness::run_composition, service::run_service)
// from this one process. With --trace 0 it measures the end-to-end
// metrics with all tracing off; with --trace 1 it reports the per-layer
// breakdown instead: an untraced pass (the baseline), the same pass with
// the program's rank spans armed (record_spans), and a replay that
// times this file's own calls into each layer's public functions. The
// metric map, the predictions and a first baseline are in README.md.
//
// Output: one "name = value unit" line per metric, a "counts {...}" line
// of deterministic counts (perfbench/selfcheck.py compares it across
// runs), and as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Any failed check makes `correct` false and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rtc/comm/executor.hpp"
#include "rtc/comm/network_model.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/frames/pipeline.hpp"
#include "rtc/frames/tile_sink.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/service/service.hpp"
#include "rtc/simd/dispatch.hpp"

using namespace rtc;

namespace {

// ---------------------------------------------------------------------
// Workload definitions. Each constant records why it was chosen.

/// Dataset of every workload: the paper's engine phantom.
constexpr const char* kDataset = "engine";

/// sweep — the interactive user's frame rate: one full 360° orbit per
/// cycle through frames::run_sequence at the paper's 512² image and
/// P=32. Scene build, partition and render dominate a frame (~88%) and
/// composition is ~10%, so render-side changes show here. A full orbit
/// in 15° steps samples every view direction, so a seed (which shifts
/// the orbit's start yaw) changes the inputs but not the mix of views.
constexpr int kSweepRanks = 32;
constexpr int kSweepVolume = 128;
constexpr int kSweepImage = 512;
constexpr int kSweepFrames = 24;

/// composite — the composition layers alone (comm, compositing/core,
/// compress, image/simd): partials are rendered once in setup, then
/// every round runs 8 gathered compositions. P=256 needs the 2-D grid
/// partition because slabs cap P at volume_n. The trle/raw pairs use
/// the same compositor two ways (sparse encode with blank-skip vs
/// byte-bound framing, CRC and blend); pp's ring of 65,535 messages
/// stresses the executor's park/wake path.
constexpr int kCompositeRanks = 256;
constexpr int kCompositeVolume = 128;
constexpr int kCompositeImage = 512;
/// The seed moves the camera yaw within [30°, 40°): different pixels,
/// the same kind of footprint (no principal-axis change).
constexpr double kCompositeYaw0 = 30.0;
constexpr double kCompositeYawSpan = 10.0;
constexpr double kCompositePitch = 20.0;

struct Cell {
  const char* name;
  const char* method;
  int blocks;
  const char* codec;
};
constexpr Cell kCells[] = {
    {"rt_n-3-trle", "rt_n", 3, "trle"},   {"rt_2n-4-trle", "rt_2n", 4, "trle"},
    {"bswap-trle", "bswap", 1, "trle"},   {"radix-4-trle", "radix", 4, "trle"},
    {"pp-trle", "pp", 1, "trle"},         {"hier-4-trle", "hier", 4, "trle"},
    {"rt_n-3-raw", "rt_n", 3, "raw"},     {"bswap-raw", "bswap", 1, "raw"},
};
/// Cells that must produce byte-identical images (same compositor,
/// different codec): {raw cell, trle cell}.
constexpr std::pair<int, int> kCodecTwins[] = {{6, 0}, {7, 2}};

/// service — the only workload where admission, batching, the quality
/// ladder and the error reference do work: 8 sessions × 16 requests,
/// open loop at 200 req/s/session into queues of 4, shed-oldest, with
/// degrade-before-shed down to the progressive rung. Its 256² images
/// make the fixed per-composition cost (World setup, barrier) a visible
/// share, so per-call overhead traded for per-pixel speed loses here.
/// One cycle runs kServiceRuns traffic seeds derived from --seed, so
/// the latency percentiles pool several arrival schedules.
constexpr int kServiceRanks = 32;
constexpr int kServiceVolume = 64;
constexpr int kServiceImage = 256;
constexpr int kServiceSessions = 8;
constexpr int kServiceRequests = 16;
constexpr double kServiceRate = 200.0;
constexpr int kServiceQueueCap = 4;
constexpr int kServiceRuns = 8;

/// Pool workers of the timed compositions in composite and service
/// (sweep uses nproc: it is the user's frame rate, where render-side
/// parallelism must show). Their compositions are fine-grained (P=256
/// rounds, 256² submissions); with 4 workers, host steal time on one
/// vCPU stalled the whole pool, round times swung 2× and the p90
/// spread over ten runs reached 0.44. comm.pool_speedup reports the
/// nproc scaling in traced runs.
constexpr int kFineGrainedWorkers = 1;

/// Setup is repeated and its median reported, so one slow build does
/// not read as a regression; composite's 1.5 s setup repeats less.
constexpr int kSetupRepeats = 5;
constexpr int kCompositeSetupRepeats = 3;

/// Rank-span ring per rank in traced runs: large enough that no run
/// here drops a span (checked), small enough that P=256 stays ~64 MiB.
constexpr std::size_t kTraceCapacity = 4096;

/// Rounding tolerance of a gathered composite vs img::composite_reference.
/// Tree methods round once per level (methods_test's 2·(depth+1)); the
/// pipelined ring folds partials in a chain instead, measured at 24
/// (P=256) and 27 (P=32) on these scenes, so it gets its own bound.
constexpr int kPipelinedTolerance = 32;

int rounding_tolerance(const std::string& method, int ranks) {
  if (method == "pp") return kPipelinedTolerance;
  int depth = 0;
  while ((1 << depth) < ranks) ++depth;
  return 2 * (depth + 1);
}

// ---------------------------------------------------------------------
// Small utilities.

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) draw for (seed, stream): seeds every input choice.
double unit_draw(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<double>(splitmix64(seed * 0x100000001b3ull + stream) >>
                             11) *
         0x1.0p-53;
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Pooled fibers on at most nproc workers: never the threaded executor,
/// which would start one kernel thread per rank.
comm::ExecutorConfig executor(int workers) {
  comm::ExecutorConfig e;
  e.kind = comm::ExecutorKind::kPooled;
  e.workers = workers;
  return e;
}

std::uint64_t image_hash(const img::Image& im) {
  return frames::hash_pixels(im.pixels());
}

/// Appends an image's hash to a signature as two exact 32-bit halves.
void push_hash(std::vector<double>& sig, const img::Image& im) {
  const std::uint64_t h = image_hash(im);
  sig.push_back(static_cast<double>(h >> 32));
  sig.push_back(static_cast<double>(h & 0xffffffffu));
}

double mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Result: metrics, deterministic counts and check outcomes.

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A printed metric kept out of the JSON result: an alias under the
  /// name a workload uses for it, or a value too coarse for a bound.
  void note(const std::string& name, double value, const std::string& unit) {
    notes_.push_back({name, value, unit});
  }
  /// A deterministic quantity that must repeat bit for bit.
  void count(const std::string& name, double value) {
    counts_.emplace_back(name, value);
  }
  void attempt(std::int64_t ops) { attempted_ += ops; }
  /// Operations the program refused (shed, rejected, expired).
  void refuse(std::int64_t ops) { refused_ += ops; }
  /// A correctness check; a failure is reported and fails the run.
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    ++check_failures_;
  }

  [[nodiscard]] bool correct() const { return check_failures_ == 0; }

  void print() const {
    for (const Metric& m : metrics_)
      std::cout << m.name << " = " << num(m.value) << " " << m.unit << "\n";
    for (const Metric& m : notes_)
      std::cout << m.name << " = " << num(m.value) << " " << m.unit << "\n";
    const std::int64_t failed =
        std::min(attempted_, check_failures_ + refused_);
    std::cout << "failed_frac = "
              << num(frac(static_cast<double>(failed),
                          static_cast<double>(attempted_)))
              << " frac (" << failed << " of " << attempted_ << ")\n";
    std::cout << "counts {";
    for (std::size_t i = 0; i < counts_.size(); ++i)
      std::cout << (i ? ", " : "") << "\"" << counts_[i].first
                << "\": " << num(counts_[i].second);
    std::cout << "}\n";
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << std::max<std::int64_t>(1, attempted_)
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::cout << (i ? ", " : "") << "\"" << metrics_[i].name
                << "\": {\"value\": " << num(metrics_[i].value)
                << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    std::cout << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string num(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::pair<std::string, double>> counts_;
  std::int64_t attempted_ = 0;
  std::int64_t refused_ = 0;
  std::int64_t check_failures_ = 0;
};

// ---------------------------------------------------------------------
// Per-layer accounting shared by the traced runs.

/// Rank spans folded into per-kind wall time (summed over ranks) and
/// the codec counts the spans carry.
struct SpanFold {
  double send_ms = 0, recv_wait_ms = 0, encode_ms = 0, decode_ms = 0,
         decode_blend_ms = 0;
  std::int64_t encode_raw_bytes = 0, encode_wire_bytes = 0;
  /// Blank pixels inside encoded blocks (the marker right after an
  /// encode) and whole clean-blank blocks a receiver skipped.
  std::int64_t encode_blank_px = 0, clean_blank_px = 0;
  std::int64_t blend_px = 0, retransmits = 0;
  std::uint64_t dropped = 0;

  /// `codec` false folds only traffic and blends: a raw run's framing
  /// spans would dilute the codec's ratios.
  void add(const comm::RunStats& st, bool codec = true) {
    for (const comm::RankStats& r : st.ranks) {
      retransmits += r.retransmits;
      dropped += r.spans_dropped;
      obs::SpanKind prev = obs::SpanKind::kCompute;
      for (const obs::Span& s : r.spans) {
        const double ms =
            static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e6;
        const bool codec_span = s.kind == obs::SpanKind::kEncode ||
                                s.kind == obs::SpanKind::kDecode ||
                                s.kind == obs::SpanKind::kDecodeBlend ||
                                s.kind == obs::SpanKind::kBlankSkip;
        if (codec_span && !codec) continue;
        switch (s.kind) {
          case obs::SpanKind::kSend: send_ms += ms; break;
          case obs::SpanKind::kRecvWait: recv_wait_ms += ms; break;
          case obs::SpanKind::kEncode:
            encode_ms += ms;
            encode_wire_bytes += s.bytes;
            encode_raw_bytes += s.aux;
            break;
          case obs::SpanKind::kDecode: decode_ms += ms; break;
          case obs::SpanKind::kDecodeBlend: decode_blend_ms += ms; break;
          case obs::SpanKind::kBlankSkip:
            (prev == obs::SpanKind::kEncode ? encode_blank_px
                                            : clean_blank_px) += s.aux;
            break;
          case obs::SpanKind::kBlend: blend_px += s.aux; break;
          default: break;
        }
        prev = s.kind;
      }
    }
  }

  /// The traced pass lost no span and resent no message (comm is
  /// fault-free here, so a retransmit is a failure).
  void check(Result& res, const std::string& what) const {
    res.expect(dropped == 0, what + ": rank spans dropped");
    res.expect(retransmits == 0, what + ": " + std::to_string(retransmits) +
                                     " retransmits in the traced pass");
  }

  /// Share of the pixels moved through the codec that were skipped as
  /// blank (inside encoded blocks or as whole clean-blank blocks).
  [[nodiscard]] double blank_skip_frac() const {
    const double encoded = static_cast<double>(encode_raw_bytes) /
                           static_cast<double>(sizeof(img::GrayA8));
    return frac(static_cast<double>(encode_blank_px + clean_blank_px),
                encoded + static_cast<double>(clean_blank_px));
  }
};

/// Wall time of this file's own calls into each layer, summed.
struct LayerTimes {
  double scene_s = 0, plan_s = 0, render_s = 0, brick_max_s = 0,
         composite_s = 0, reference_s = 0;
  std::int64_t solid_voxels = 0, nonblank_px = 0, partial_px = 0;
  std::int64_t reference_px = 0;
  int views = 0;

  /// The layers on the program's own frame path. The reference is not
  /// one of them: at the exact rung the program never composites it, and
  /// on degraded rungs run_composition folds its own (inside composite_s).
  [[nodiscard]] double path_s() const {
    return scene_s + plan_s + render_s + composite_s;
  }
};

/// The replay's layer sum over the program's own wall time for the same
/// operations, as the median of per-operation ratios (`ratios`), so one
/// operation caught in host steal time does not decide it.
struct Coverage {
  std::vector<double> ratios;

  void add(double layers_s, double program_ms) {
    if (program_ms > 0.0) ratios.push_back(layers_s * 1e3 / program_ms);
  }
  [[nodiscard]] double value() const { return median(ratios); }
  /// Fails the run when the timed layers miss (or double count) more
  /// than 10% of the program's wall time: a blocking layer is missing.
  void check(Result& res, const std::string& what) const {
    res.expect(!ratios.empty() && std::abs(value() - 1.0) <= 0.10,
               what + ": layer times cover " + std::to_string(value()) +
                   " of the program's wall time, not 1 +- 0.10");
  }
};

/// frames::render_view unrolled into its layer calls so each is timed:
/// volume (make_scene) → partition (principal axis, slabs or grid,
/// visibility order, solid voxels) → render (shear-warp per brick).
harness::RenderedScene render_timed(const frames::ViewSpec& v, int ranks,
                                    harness::PartitionKind kind,
                                    LayerTimes& t) {
  Clock::time_point t0 = Clock::now();
  const harness::Scene scene = harness::make_scene(
      v.dataset, v.volume_n, v.image_size, v.yaw_deg, v.pitch_deg);
  t.scene_s += seconds_since(t0);

  t0 = Clock::now();
  const render::Vec3 d = scene.camera.direction();
  const int axis = render::principal_axis(d);
  const std::vector<vol::Brick> bricks =
      kind == harness::PartitionKind::kGrid2D
          ? part::grid_2d(scene.volume.bounds(), ranks, (axis + 1) % 3,
                          (axis + 2) % 3)
          : part::balanced_slab_1d(scene.volume, scene.tf, ranks, axis);
  const double dir[3] = {d.x, d.y, d.z};
  const std::vector<int> order = part::visibility_order(bricks, dir);
  harness::RenderedScene rs;
  for (int r = 0; r < ranks; ++r) {
    const vol::Brick& brick =
        bricks[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])];
    rs.bricks.push_back(brick);
    rs.solid_voxels.push_back(part::solid_voxels(scene.volume, scene.tf, brick));
    rs.total_voxels.push_back(brick.voxels());
  }
  t.plan_s += seconds_since(t0);

  double brick_max = 0.0;
  for (const vol::Brick& brick : rs.bricks) {
    const Clock::time_point tb = Clock::now();
    rs.partials.push_back(
        render::render_shearwarp(scene.volume, scene.tf, brick, scene.camera));
    const double s = seconds_since(tb);
    t.render_s += s;
    brick_max = std::max(brick_max, s);
  }
  t.brick_max_s += brick_max;
  t.views += 1;
  return rs;
}

/// Render-side counts of one view (outside any timed interval).
void count_partials(const harness::RenderedScene& rs, LayerTimes& t) {
  for (std::size_t r = 0; r < rs.partials.size(); ++r) {
    t.solid_voxels += rs.solid_voxels[r];
    t.nonblank_px += img::count_non_blank(rs.partials[r].pixels());
    t.partial_px += rs.partials[r].pixel_count();
  }
}

img::Image reference_timed(const std::vector<img::Image>& partials,
                           LayerTimes& t) {
  const Clock::time_point t0 = Clock::now();
  img::Image ref = img::composite_reference(partials);
  t.reference_s += seconds_since(t0);
  t.reference_px +=
      static_cast<std::int64_t>(partials.size()) * partials[0].pixel_count();
  return ref;
}

/// comm.world_setup_ms: a World with a barrier-only body, construction
/// included — the fixed cost every composition pays.
double world_setup_ms(int ranks) {
  std::vector<double> ms;
  for (int i = 0; i < 15; ++i) {
    const Clock::time_point t0 = Clock::now();
    comm::World w(ranks, comm::sp2_hps_model());
    w.set_executor(executor(nproc()));
    (void)w.run([](comm::Comm& c) { c.barrier(); });
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

/// Wall time of `configs` run back to back over `partials` at `workers`
/// pool workers; checks the images against `want`.
double compositions_wall(std::vector<harness::CompositionConfig> configs,
                         const std::vector<img::Image>& partials, int workers,
                         const std::vector<std::uint64_t>& want, Result& res,
                         const std::string& what) {
  double wall = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].executor = executor(workers);
    const Clock::time_point t0 = Clock::now();
    const harness::CompositionRun run =
        harness::run_composition(configs[i], partials);
    wall += seconds_since(t0);
    res.expect(image_hash(run.image) == want[i],
               what + ": image differs at workers=" + std::to_string(workers));
  }
  return wall;
}

/// comm.pool_speedup for one composition: workers=1 vs workers=nproc,
/// median of three each.
double pool_speedup(harness::CompositionConfig c,
                    const std::vector<img::Image>& partials,
                    std::uint64_t want, Result& res, const std::string& what) {
  c.coherence = nullptr;
  c.record_spans = false;
  std::vector<double> w1, wn;
  for (int i = 0; i < 3; ++i) {
    wn.push_back(compositions_wall({c}, partials, nproc(), {want}, res, what));
    w1.push_back(compositions_wall({c}, partials, 1, {want}, res, what));
  }
  return frac(median(w1), median(wn));
}

/// Per-layer metrics every workload prints (0 where a layer is not on
/// the workload's path; README.md lists which apply where).
struct Layers {
  LayerTimes t;
  SpanFold spans;
  double ops = 0;  ///< operations the span fold covers (per-op scaling)
  double compositing_frame_ms = 0;
  double world_setup_p32 = 0, world_setup_p256 = 0, pool_speedup = 0;
  double coherence_hit_frac = 0, coherence_bytes_saved = 0,
         queue_wait_ms = 0;
  double degraded_frac = 0, approx_px = 0, error_bound = 0;
  double submissions = 0, renders_per_delivery = 0, sheds = 0, expired = 0,
         degrades = 0;
  double overhead_frac = 0, coverage_frac = 0;
  std::map<std::string, double> cells;  ///< compositing.<cell>.* values

  void emit(Result& res) const {
    const double views = std::max(1, t.views);
    const double per_op = ops > 0 ? 1.0 / ops : 0.0;
    res.metric("volume.make_scene_ms", t.scene_s * 1e3 / views, "ms");
    res.metric("partition.plan_ms", t.plan_s * 1e3 / views, "ms");
    res.metric("render.frame_ms", t.render_s * 1e3 / views, "ms");
    res.metric("render.brick_ms_max", t.brick_max_s * 1e3 / views, "ms");
    res.metric("render.solid_voxels",
               static_cast<double>(t.solid_voxels) / views, "count");
    res.metric("render.partial_mb",
               mib(t.partial_px * static_cast<std::int64_t>(
                                      sizeof(img::GrayA8))) /
                   views,
               "MiB");
    res.metric("render.nonblank_frac",
               frac(static_cast<double>(t.nonblank_px),
                    static_cast<double>(t.partial_px)),
               "frac");
    for (const Cell& c : kCells) {
      const std::string p = std::string("compositing.") + c.name;
      for (const char* k : {".wall_ms", ".messages", ".bytes"}) {
        const auto it = cells.find(p + k);
        res.metric(p + k, it == cells.end() ? 0.0 : it->second,
                   std::string(k) == ".wall_ms" ? "ms" : "count");
      }
    }
    res.metric("compositing.frame_ms", compositing_frame_ms, "ms");
    res.metric("comm.send_ms", spans.send_ms * per_op, "ms");
    res.metric("comm.recv_wait_ms", spans.recv_wait_ms * per_op, "ms");
    res.metric("comm.retransmits", static_cast<double>(spans.retransmits),
               "count");
    res.metric("comm.world_setup_ms_p32", world_setup_p32, "ms");
    res.metric("comm.world_setup_ms_p256", world_setup_p256, "ms");
    res.metric("comm.pool_speedup", pool_speedup, "x");
    res.metric("compress.encode_ms", spans.encode_ms * per_op, "ms");
    res.metric("compress.decode_ms", spans.decode_ms * per_op, "ms");
    res.metric("compress.decode_blend_ms", spans.decode_blend_ms * per_op,
               "ms");
    res.metric("compress.trle_ratio",
               frac(static_cast<double>(spans.encode_raw_bytes),
                    static_cast<double>(spans.encode_wire_bytes)),
               "x");
    res.metric("compress.blank_skip_frac", spans.blank_skip_frac(), "frac");
    // Blends inside compositions record no wall interval, so their time
    // is computed from the kernel rate this run measured on its own
    // img::composite_reference calls (same blend kernel).
    const double ns_per_px =
        frac(t.reference_s * 1e9, static_cast<double>(t.reference_px));
    res.metric("image.blend_ms",
               static_cast<double>(spans.blend_px) * ns_per_px / 1e6 * per_op,
               "ms");
    res.metric("image.blend_px", static_cast<double>(spans.blend_px) * per_op,
               "count");
    res.metric("image.reference_ms", t.reference_s * 1e3 / views, "ms");
    res.metric("frames.coherence_hit_frac", coherence_hit_frac, "frac");
    res.metric("frames.coherence_bytes_saved", coherence_bytes_saved, "B");
    res.metric("frames.queue_wait_ms", queue_wait_ms, "ms");
    res.metric("quality.degraded_frac", degraded_frac, "frac");
    res.metric("quality.approx_px", approx_px, "count");
    res.metric("quality.error_bound", error_bound, "count");
    res.metric("service.submissions", submissions, "count");
    res.metric("service.renders_per_delivery", renders_per_delivery, "frac");
    res.metric("service.sheds", sheds, "count");
    res.metric("service.expired", expired, "count");
    res.metric("service.degrades", degrades, "count");
    res.metric("obs.tracing_overhead_frac", overhead_frac, "frac");
    res.metric("trace.layer_gap_frac", std::abs(coverage_frac - 1.0), "frac");
    res.note("trace.layer_coverage_frac", coverage_frac, "frac");
  }

  void measure_world_setup() {
    world_setup_p32 = world_setup_ms(32);
    world_setup_p256 = world_setup_ms(256);
  }
};

/// End-to-end metrics every workload reports (README.md maps each
/// workload's model_* onto the name that workload prints for it).
struct EndToEnd {
  std::vector<double> setup_s;
  /// Operations per second of each timed unit (an orbit, a round, a
  /// service run); the median keeps one unit caught in a burst of host
  /// steal time from moving the result.
  std::vector<double> ops_per_s;
  std::vector<double> op_wall_ms;
  /// Read as the timed loop ends, before any post-loop check allocates.
  double peak_rss_mb = 0;
  int max_px_err = 0;
  double model_ms = 0, model_tail_ms = 0;
  /// The workload's own names for model_ms and model_tail_ms.
  std::string model_alias, tail_alias;

  void emit(Result& res) const {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("ops_per_s", median(ops_per_s), "1/s");
    res.metric("op_wall_ms_p50", quantile(op_wall_ms, 0.5), "ms");
    res.metric("op_wall_ms_p90", quantile(op_wall_ms, 0.9), "ms");
    res.metric("peak_rss_mb", peak_rss_mb, "MiB");
    res.metric("model_ms", model_ms, "ms");
    res.metric("model_tail_ms", model_tail_ms, "ms");
    // A small integer that moves by one between seeds: gated by the
    // correctness checks, reported but not bounded.
    res.note("max_px_err", max_px_err, "count");
    res.note(model_alias, model_ms, "ms");
    res.note(tail_alias, model_tail_ms, "ms");
    res.note("op_samples", static_cast<double>(op_wall_ms.size()), "count");
  }
};

// ---------------------------------------------------------------------
// sweep

/// Timestamps each frame's end_frame: the frame's wall time is the gap
/// to the previous one (run_sequence runs frames back to back).
class FrameClock final : public frames::TileSink {
 public:
  void begin_frame(int, int, int) override {}
  void deliver_tile(int, img::PixelSpan, std::span<const img::GrayA8>) override {
  }
  void end_frame(int) override { ends.push_back(Clock::now()); }
  std::vector<Clock::time_point> ends;
};

struct Orbit {
  frames::SequenceResult seq;
  std::vector<double> frame_ms;
  double wall_s = 0;

  /// Deterministic signature: images, virtual times, traffic counts.
  [[nodiscard]] std::vector<double> signature() const {
    std::vector<double> s{seq.makespan,
                          static_cast<double>(seq.coherence_hits),
                          static_cast<double>(seq.coherence_misses),
                          static_cast<double>(seq.coherence_bytes_saved)};
    for (const frames::FrameResult& f : seq.frames) {
      push_hash(s, f.run.image);
      s.push_back(f.render_time);
      s.push_back(f.composite_time);
      s.push_back(static_cast<double>(f.run.stats.total_messages()));
      s.push_back(static_cast<double>(f.run.stats.total_bytes_sent()));
    }
    return s;
  }
  [[nodiscard]] std::vector<std::uint64_t> frame_hashes() const {
    std::vector<std::uint64_t> h;
    for (const frames::FrameResult& f : seq.frames)
      h.push_back(image_hash(f.run.image));
    return h;
  }
  [[nodiscard]] std::int64_t retransmits() const {
    std::int64_t n = 0;
    for (const frames::FrameResult& f : seq.frames)
      n += f.run.stats.total_retransmits();
    return n;
  }
};

frames::PipelineConfig sweep_config(std::uint64_t seed) {
  frames::PipelineConfig cfg;
  cfg.dataset = kDataset;
  cfg.ranks = kSweepRanks;
  cfg.volume_n = kSweepVolume;
  cfg.image_size = kSweepImage;
  cfg.frames = kSweepFrames;
  cfg.yaw0_deg = 360.0 * unit_draw(seed, 1);
  cfg.sweep_deg = 360.0;
  cfg.comp.method = "rt_n";
  cfg.comp.initial_blocks = 3;
  cfg.comp.codec = "trle";
  cfg.comp.gather = true;
  cfg.comp.executor = executor(nproc());
  cfg.comp.trace_capacity = kTraceCapacity;
  cfg.max_in_flight = 2;
  cfg.coherence = true;
  return cfg;
}

frames::ViewSpec sweep_view(const frames::PipelineConfig& cfg, int f) {
  frames::ViewSpec v;
  v.dataset = cfg.dataset;
  v.volume_n = cfg.volume_n;
  v.image_size = cfg.image_size;
  v.yaw_deg = cfg.yaw0_deg + cfg.sweep_deg * f / cfg.frames;
  v.pitch_deg = cfg.pitch_deg;
  return v;
}

/// Frame f's composition as run_sequence configures it, over a
/// bench-owned coherence cache that stands in for run_sequence's own.
harness::CompositionConfig sweep_frame_config(const frames::PipelineConfig& cfg,
                                              int f,
                                              frames::CoherenceCache& cache) {
  harness::CompositionConfig c = cfg.comp;
  c.coherence = &cache;
  c.frame_id = f;
  c.seq_epoch = static_cast<std::uint32_t>(f);
  return c;
}

Orbit run_orbit(frames::PipelineConfig cfg) {
  FrameClock clock;
  cfg.sink = &clock;
  Orbit o;
  const Clock::time_point t0 = Clock::now();
  o.seq = frames::run_sequence(cfg);
  o.wall_s = seconds_since(t0);
  Clock::time_point prev = t0;
  for (const Clock::time_point t : clock.ends) {
    o.frame_ms.push_back(std::chrono::duration<double>(t - prev).count() * 1e3);
    prev = t;
  }
  return o;
}

std::vector<double> sweep_setup(const frames::PipelineConfig& cfg) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const harness::Scene scene =
        harness::make_scene(cfg.dataset, cfg.volume_n, cfg.image_size,
                            cfg.yaw0_deg, cfg.pitch_deg);
    s.push_back(seconds_since(t0));
  }
  return s;
}

/// Messages and bytes sent over the whole orbit.
std::pair<std::int64_t, std::int64_t> orbit_traffic(const Orbit& o) {
  std::int64_t messages = 0, bytes = 0;
  for (const frames::FrameResult& f : o.seq.frames) {
    messages += f.run.stats.total_messages();
    bytes += f.run.stats.total_bytes_sent();
  }
  return {messages, bytes};
}

std::int64_t total_solid_voxels(const harness::RenderedScene& rs) {
  std::int64_t n = 0;
  for (const std::int64_t v : rs.solid_voxels) n += v;
  return n;
}

void sweep_counts(const Orbit& o, std::int64_t solid_voxels, Result& res) {
  const auto [messages, bytes] = orbit_traffic(o);
  res.count("messages", static_cast<double>(messages));
  res.count("bytes", static_cast<double>(bytes));
  res.count("solid_voxels", static_cast<double>(solid_voxels));
  res.count("coherence_hits", static_cast<double>(o.seq.coherence_hits));
  res.count("model_makespan_s", o.seq.makespan);
}

void run_sweep(std::uint64_t seed, double seconds, bool trace, Result& res) {
  const frames::PipelineConfig cfg = sweep_config(seed);
  const int tol = rounding_tolerance(cfg.comp.method, cfg.ranks);
  if (!trace) {
    EndToEnd e;
    e.model_alias = "model_frame_ms";
    e.tail_alias = "model_frame_ms_max";
    e.setup_s = sweep_setup(cfg);
    // Correctness gate, run before the timed loop so that it also warms
    // every layer up: each frame is replayed on its own (render_view,
    // then its composition over a bench-owned cache) and checked against
    // img::composite_reference. Only the image hashes are kept, so the
    // gate holds one frame at a time, less than run_sequence itself, and
    // peak_rss_mb stays the program's.
    std::vector<std::uint64_t> want;
    std::int64_t solid_voxels = 0;
    frames::CoherenceCache cache(cfg.ranks);
    for (int f = 0; f < cfg.frames; ++f) {
      int axis = 0;
      const harness::RenderedScene rs =
          frames::render_view(sweep_view(cfg, f), cfg.ranks, axis);
      const harness::CompositionRun run = harness::run_composition(
          sweep_frame_config(cfg, f, cache), rs.partials);
      const int err = img::max_channel_diff(
          run.image, img::composite_reference(rs.partials));
      e.max_px_err = std::max(e.max_px_err, err);
      res.expect(err <= tol, "sweep: frame " + std::to_string(f) +
                                 " error " + std::to_string(err) +
                                 " exceeds tolerance " + std::to_string(tol));
      want.push_back(image_hash(run.image));
      solid_voxels += total_solid_voxels(rs);
    }
    // Orbits keep only orbit 0's signature: images of a finished orbit
    // are dropped before the next one starts.
    const Clock::time_point t0 = Clock::now();
    std::vector<double> first;
    int orbits = 0;
    while (orbits < 2 || seconds_since(t0) < seconds) {
      const Orbit o = run_orbit(cfg);
      const std::string name = "sweep: orbit " + std::to_string(orbits);
      res.attempt(static_cast<std::int64_t>(o.seq.frames.size()));
      res.expect(o.frame_ms.size() == o.seq.frames.size(),
                 name + ": sink saw every end_frame");
      res.expect(o.frame_hashes() == want,
                 name + " differs from the checked frames");
      res.expect(o.retransmits() == 0, name + " retransmitted");
      e.ops_per_s.push_back(static_cast<double>(o.seq.frames.size()) /
                            o.wall_s);
      e.op_wall_ms.insert(e.op_wall_ms.end(), o.frame_ms.begin(),
                          o.frame_ms.end());
      if (orbits == 0) {
        first = o.signature();
        e.model_ms = o.seq.makespan / cfg.frames * 1e3;
        for (const frames::FrameResult& f : o.seq.frames)
          e.model_tail_ms = std::max(e.model_tail_ms,
                                     (f.render_time + f.composite_time) * 1e3);
        sweep_counts(o, solid_voxels, res);
      } else {
        res.expect(o.signature() == first, name + " differs from orbit 0");
      }
      ++orbits;
    }
    e.peak_rss_mb = peak_rss_mib();
    e.emit(res);
    return;
  }

  Layers L;
  const Orbit base = run_orbit(cfg);
  res.attempt(cfg.frames);
  frames::PipelineConfig tcfg = cfg;
  tcfg.comp.record_spans = true;
  const Orbit traced = run_orbit(tcfg);
  res.expect(traced.signature() == base.signature(),
             "sweep: traced orbit differs from untraced orbit");
  res.expect(traced.frame_ms.size() == traced.seq.frames.size(),
             "sweep: sink saw every traced end_frame");
  for (const frames::FrameResult& f : traced.seq.frames)
    L.spans.add(f.run.stats);
  L.spans.check(res, "sweep");
  L.ops = cfg.frames;
  L.overhead_frac = base.wall_s > 0 ? traced.wall_s / base.wall_s - 1.0 : 0.0;

  // Replay: each frame's view through the layers, timed one by one, with
  // spans armed like the traced orbit whose frame times it is held to.
  frames::CoherenceCache cache(cfg.ranks);
  Coverage cover;
  std::int64_t messages = 0, bytes = 0, hits = 0;
  std::vector<img::Image> partials0;
  harness::CompositionConfig c0;
  for (int f = 0; f < cfg.frames; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    const double before = L.t.path_s();
    harness::RenderedScene rs = render_timed(
        sweep_view(cfg, f), cfg.ranks, harness::PartitionKind::kBalanced1D,
        L.t);
    const harness::CompositionConfig c = sweep_frame_config(tcfg, f, cache);
    const Clock::time_point tc = Clock::now();
    const harness::CompositionRun run = harness::run_composition(c, rs.partials);
    L.t.composite_s += seconds_since(tc);
    if (fi < traced.frame_ms.size())
      cover.add(L.t.path_s() - before, traced.frame_ms[fi]);
    const img::Image ref = reference_timed(rs.partials, L.t);

    count_partials(rs, L.t);
    res.expect(image_hash(run.image) == image_hash(base.seq.frames[fi].run.image),
               "sweep: replayed frame " + std::to_string(f) +
                   " differs from run_sequence");
    res.expect(img::max_channel_diff(run.image, ref) <= tol,
               "sweep: replayed frame exceeds tolerance");
    messages += run.stats.total_messages();
    bytes += run.stats.total_bytes_sent();
    hits += run.stats.total_coherence_hits();
    if (f == 0) {
      partials0 = std::move(rs.partials);
      c0 = c;
    }
  }
  res.expect(hits == base.seq.coherence_hits,
             "sweep: replay coherence hits differ");
  res.expect(std::pair{messages, bytes} == orbit_traffic(base),
             "sweep: replay traffic differs from run_sequence");
  L.compositing_frame_ms = L.t.composite_s * 1e3 / cfg.frames;
  L.coverage_frac = cover.value();
  cover.check(res, "sweep");

  // Single-threaded baseline: frame 0's composition (cold cache).
  L.pool_speedup =
      pool_speedup(c0, partials0, image_hash(base.seq.frames[0].run.image),
                   res, "sweep pool");
  L.measure_world_setup();

  L.coherence_hit_frac = base.seq.hit_rate();
  L.coherence_bytes_saved = static_cast<double>(base.seq.coherence_bytes_saved);
  L.queue_wait_ms = base.seq.total_queue_wait * 1e3 / cfg.frames;
  L.degraded_frac =
      static_cast<double>(base.seq.quality_frames) / cfg.frames;
  L.error_bound = base.seq.error_bound;
  L.approx_px = static_cast<double>(base.seq.approx_pixels);
  L.emit(res);
  sweep_counts(traced, L.t.solid_voxels, res);
}

// ---------------------------------------------------------------------
// composite

frames::ViewSpec composite_view(std::uint64_t seed) {
  frames::ViewSpec v;
  v.dataset = kDataset;
  v.volume_n = kCompositeVolume;
  v.image_size = kCompositeImage;
  v.yaw_deg = kCompositeYaw0 + kCompositeYawSpan * unit_draw(seed, 2);
  v.pitch_deg = kCompositePitch;
  return v;
}

std::vector<harness::CompositionConfig> cell_configs() {
  std::vector<harness::CompositionConfig> v;
  for (const Cell& c : kCells) {
    harness::CompositionConfig cfg;
    cfg.method = c.method;
    cfg.initial_blocks = c.blocks;
    cfg.codec = c.codec;
    cfg.gather = true;
    cfg.executor = executor(kFineGrainedWorkers);
    cfg.trace_capacity = kTraceCapacity;
    v.push_back(cfg);
  }
  return v;
}

struct Round {
  std::vector<harness::CompositionRun> runs;
  std::vector<double> cell_ms;
  double wall_s = 0;

  [[nodiscard]] std::vector<double> signature() const {
    std::vector<double> s;
    for (const harness::CompositionRun& r : runs) {
      push_hash(s, r.image);
      s.push_back(r.time);
      s.push_back(static_cast<double>(r.stats.total_messages()));
      s.push_back(static_cast<double>(r.stats.total_bytes_sent()));
    }
    return s;
  }
  [[nodiscard]] std::vector<std::uint64_t> hashes() const {
    std::vector<std::uint64_t> h;
    for (const harness::CompositionRun& r : runs) h.push_back(image_hash(r.image));
    return h;
  }
  [[nodiscard]] std::int64_t retransmits() const {
    std::int64_t n = 0;
    for (const harness::CompositionRun& r : runs)
      n += r.stats.total_retransmits();
    return n;
  }
};

Round run_round(const std::vector<img::Image>& partials, bool spans) {
  Round r;
  const Clock::time_point t0 = Clock::now();
  for (harness::CompositionConfig c : cell_configs()) {
    c.record_spans = spans;
    const Clock::time_point tc = Clock::now();
    r.runs.push_back(harness::run_composition(c, partials));
    r.cell_ms.push_back(seconds_since(tc) * 1e3);
  }
  r.wall_s = seconds_since(t0);
  return r;
}

void check_round(const Round& r, const img::Image& ref, int& max_err,
                 Result& res) {
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const int err = img::max_channel_diff(r.runs[i].image, ref);
    const int tol = rounding_tolerance(kCells[i].method, kCompositeRanks);
    max_err = std::max(max_err, err);
    res.expect(err <= tol, std::string("composite: ") + kCells[i].name +
                               " error " + std::to_string(err) +
                               " exceeds tolerance " + std::to_string(tol));
  }
  res.expect(r.retransmits() == 0, "composite: checked round retransmitted");
  for (const auto& [raw, trle] : kCodecTwins) {
    res.expect(image_hash(r.runs[static_cast<std::size_t>(raw)].image) ==
                   image_hash(r.runs[static_cast<std::size_t>(trle)].image),
               std::string("composite: ") + kCells[raw].name +
                   " and " + kCells[trle].name + " images differ");
  }
}

void composite_counts(const Round& r, std::int64_t solid_voxels,
                      Result& res) {
  res.count("solid_voxels", static_cast<double>(solid_voxels));
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const std::string p = kCells[i].name;
    res.count(p + ".messages",
              static_cast<double>(r.runs[i].stats.total_messages()));
    res.count(p + ".bytes",
              static_cast<double>(r.runs[i].stats.total_bytes_sent()));
    res.count(p + ".model_s", r.runs[i].time);
  }
}

void run_composite(std::uint64_t seed, double seconds, bool trace,
                   Result& res) {
  const frames::ViewSpec view = composite_view(seed);
  std::vector<double> setup;
  std::vector<img::Image> partials;
  std::int64_t solid_voxels = 0;
  for (int i = 0; i < (trace ? 1 : kCompositeSetupRepeats); ++i) {
    partials.clear();
    const Clock::time_point t0 = Clock::now();
    const harness::Scene scene = harness::make_scene(
        view.dataset, view.volume_n, view.image_size, view.yaw_deg,
        view.pitch_deg);
    harness::RenderedScene rs = harness::render_scene(
        scene, kCompositeRanks, harness::PartitionKind::kGrid2D);
    setup.push_back(seconds_since(t0));
    partials = std::move(rs.partials);
    solid_voxels = total_solid_voxels(rs);
  }

  if (!trace) {
    const img::Image ref = img::composite_reference(partials);
    EndToEnd e;
    e.model_alias = "model_composite_ms";
    e.tail_alias = "model_cell_ms_max";
    e.setup_s = setup;
    // Round 0 is the untimed warm-up: checked against the reference,
    // and every timed round must repeat it byte for byte.
    const Round warm = run_round(partials, false);
    res.attempt(1);
    check_round(warm, ref, e.max_px_err, res);
    const std::vector<double> first = warm.signature();
    for (const harness::CompositionRun& run : warm.runs) {
      e.model_ms += run.time * 1e3;
      e.model_tail_ms = std::max(e.model_tail_ms, run.time * 1e3);
    }
    composite_counts(warm, solid_voxels, res);
    const Clock::time_point t0 = Clock::now();
    for (int rounds = 1; rounds < 2 || seconds_since(t0) < seconds;
         ++rounds) {
      const Round r = run_round(partials, false);
      res.attempt(1);
      e.ops_per_s.push_back(1.0 / r.wall_s);
      e.op_wall_ms.push_back(r.wall_s * 1e3);
      const std::string name = "composite: round " + std::to_string(rounds);
      res.expect(r.signature() == first, name + " differs from round 0");
      res.expect(r.retransmits() == 0, name + " retransmitted");
    }
    e.peak_rss_mb = peak_rss_mib();
    e.emit(res);
    return;
  }

  Layers L;
  // Replay of the setup through its layer calls: partials must match,
  // and the layer times must add up to harness::render_scene's wall.
  const harness::RenderedScene rs = render_timed(
      view, kCompositeRanks, harness::PartitionKind::kGrid2D, L.t);
  Coverage cover;
  cover.add(L.t.path_s(), setup[0] * 1e3);
  L.coverage_frac = cover.value();
  cover.check(res, "composite");
  count_partials(rs, L.t);
  bool same = rs.partials.size() == partials.size();
  for (std::size_t i = 0; same && i < partials.size(); ++i)
    same = image_hash(rs.partials[i]) == image_hash(partials[i]);
  res.expect(same, "composite: replayed partials differ from render_scene");
  const img::Image ref = reference_timed(partials, L.t);

  std::vector<Round> base;
  for (int i = 0; i < 2; ++i) base.push_back(run_round(partials, false));
  res.attempt(1);
  int max_err = 0;
  check_round(base[0], ref, max_err, res);
  res.expect(base[1].signature() == base[0].signature(),
             "composite: untraced rounds differ");
  const Round traced = run_round(partials, true);
  res.expect(traced.signature() == base[0].signature(),
             "composite: traced round differs from untraced round");
  for (std::size_t i = 0; i < traced.runs.size(); ++i)
    L.spans.add(traced.runs[i].stats,
                /*codec=*/std::string(kCells[i].codec) == "trle");
  L.spans.check(res, "composite");
  L.ops = 1;
  const double base_round = (base[0].wall_s + base[1].wall_s) / 2;
  L.overhead_frac = traced.wall_s / base_round - 1.0;
  L.compositing_frame_ms = base_round * 1e3;
  for (std::size_t i = 0; i < base[0].runs.size(); ++i) {
    const std::string p = std::string("compositing.") + kCells[i].name;
    L.cells[p + ".wall_ms"] = (base[0].cell_ms[i] + base[1].cell_ms[i]) / 2;
    L.cells[p + ".messages"] =
        static_cast<double>(base[0].runs[i].stats.total_messages());
    L.cells[p + ".bytes"] =
        static_cast<double>(base[0].runs[i].stats.total_bytes_sent());
  }
  // The timed rounds run one worker; one more round at nproc workers.
  L.pool_speedup =
      base_round / compositions_wall(cell_configs(), partials, nproc(),
                                     base[0].hashes(), res, "composite pool");
  L.measure_world_setup();
  L.emit(res);
  composite_counts(traced, L.t.solid_voxels, res);
}

// ---------------------------------------------------------------------
// service

/// Timestamps the last tile of each submission (frame id = submission
/// index); stale-served submissions deliver no tiles and fold into the
/// next one's interval.
class SubmissionClock final : public frames::TileSink {
 public:
  void begin_frame(int, int, int) override {}
  void deliver_tile(int frame, img::PixelSpan,
                    std::span<const img::GrayA8>) override {
    if (last.empty() || last.back().first != frame)
      last.emplace_back(frame, Clock::now());
    else
      last.back().second = Clock::now();
  }
  void end_frame(int) override {}
  std::vector<std::pair<int, Clock::time_point>> last;
};

service::ServiceConfig service_config(std::uint64_t seed, int run) {
  service::ServiceConfig cfg;
  cfg.dataset = kDataset;
  cfg.ranks = kServiceRanks;
  cfg.volume_n = kServiceVolume;
  cfg.image_size = kServiceImage;
  cfg.comp.method = "rt_n";
  cfg.comp.initial_blocks = 3;
  cfg.comp.codec = "trle";
  cfg.comp.executor = executor(kFineGrainedWorkers);
  cfg.comp.trace_capacity = kTraceCapacity;
  cfg.comp.quality.max_rung = quality::Rung::kProgressive;
  cfg.comp.quality.degrade_before_shed = true;
  cfg.max_in_flight = 2;
  cfg.traffic.sessions = kServiceSessions;
  cfg.traffic.requests_per_session = kServiceRequests;
  cfg.traffic.arrival_rate = kServiceRate;
  cfg.traffic.seed = splitmix64(seed * 31 + static_cast<std::uint64_t>(run));
  // Each run's sessions orbit from their own start yaw, so the 8 runs of
  // a cycle render different views.
  cfg.traffic.yaw0_deg =
      360.0 * unit_draw(seed, 3 + static_cast<std::uint64_t>(run));
  // Poisson arrivals without the Pareto think pauses: at tail index 1.5
  // their variance is infinite, and they moved ops_per_s by ~35% from
  // one seed to the next.
  cfg.traffic.think_prob = 0.0;
  cfg.admission = service::AdmissionPolicy::kShedOldest;
  cfg.queue_cap = kServiceQueueCap;
  cfg.quant_deg = 1.0;
  return cfg;
}

struct ServiceRun {
  service::ServiceResult res;
  std::vector<double> submission_ms;
  std::vector<int> submission_ids;  ///< the submission each interval ends
  double wall_s = 0;

  [[nodiscard]] std::vector<double> signature() const {
    const comm::RunStats& st = res.stats;
    std::vector<double> s{
        static_cast<double>(res.submissions.size()),
        static_cast<double>(res.deliveries.size()),
        static_cast<double>(st.total_session_sheds()),
        static_cast<double>(st.total_session_rejects()),
        static_cast<double>(st.total_session_expiries()),
        static_cast<double>(st.total_session_quality_degrades()),
        static_cast<double>(st.total_messages()),
        static_cast<double>(st.total_bytes_sent()),
        static_cast<double>(st.total_coherence_hits()),
        static_cast<double>(st.max_pixel_error),
        static_cast<double>(st.error_bound),
        res.makespan};
    for (const service::Submission& sub : res.submissions)
      push_hash(s, sub.image);
    for (const service::Delivery& d : res.deliveries) s.push_back(d.latency());
    return s;
  }
};

ServiceRun run_service_timed(service::ServiceConfig cfg) {
  SubmissionClock clock;
  cfg.comp.sink = &clock;
  ServiceRun r;
  const Clock::time_point t0 = Clock::now();
  r.res = service::run_service(cfg);
  r.wall_s = seconds_since(t0);
  Clock::time_point prev = t0;
  for (const auto& [frame, t] : clock.last) {
    r.submission_ms.push_back(std::chrono::duration<double>(t - prev).count() *
                              1e3);
    r.submission_ids.push_back(frame);
    prev = t;
  }
  return r;
}

/// Checks one service run's error contract and counts its refusals.
void check_service(const ServiceRun& r, Result& res) {
  const comm::RunStats& st = r.res.stats;
  res.attempt(st.total_session_arrivals());
  res.refuse(st.total_session_drops());
  res.expect(st.max_pixel_error <= st.error_bound,
             "service: measured error " + std::to_string(st.max_pixel_error) +
                 " exceeds the reported bound " +
                 std::to_string(st.error_bound));
  res.expect(st.total_session_delivered() + st.total_session_drops() ==
                 st.total_session_arrivals(),
             "service: every arrival is delivered or dropped");
  res.expect(static_cast<std::int64_t>(r.res.deliveries.size()) ==
                 st.total_session_delivered(),
             "service: delivery list matches session counters");
  res.expect(st.total_retransmits() == 0, "service: run retransmitted");
}

void service_counts(const ServiceRun& r, Result& res) {
  const comm::RunStats& st = r.res.stats;
  res.count("submissions", static_cast<double>(r.res.submissions.size()));
  res.count("delivered", static_cast<double>(st.total_session_delivered()));
  res.count("sheds", static_cast<double>(st.total_session_sheds()));
  res.count("degrades",
            static_cast<double>(st.total_session_quality_degrades()));
  res.count("messages", static_cast<double>(st.total_messages()));
  res.count("bytes", static_cast<double>(st.total_bytes_sent()));
  res.count("coherence_hits", static_cast<double>(st.total_coherence_hits()));
  res.count("model_makespan_s", r.res.makespan);
}

/// Per-layer service figures summed over the traced cycle's runs.
struct ServiceTally {
  std::int64_t subs = 0, rendered = 0, degraded = 0, deliveries = 0;
  std::int64_t sheds = 0, expired = 0, degrades = 0, approx_px = 0;
  std::int64_t hits = 0, misses = 0, bytes_saved = 0;
  double queue_wait_s = 0, base_wall_s = 0, traced_wall_s = 0;
  int error_bound = 0;
};

/// Replays every rendered submission of one traced service run through
/// the layers, spans armed like the traced run whose submission times it
/// is held to, and checks each against the run and its error bound.
void replay_service(const service::ServiceConfig& tcfg, const ServiceRun& base,
                    const ServiceRun& traced, bool first_run, Layers& L,
                    Coverage& cover, ServiceTally& tally, Result& res) {
  std::map<int, double> traced_ms;  // submission -> its traced wall
  for (std::size_t i = 0; i < traced.submission_ids.size(); ++i)
    traced_ms[traced.submission_ids[i]] = traced.submission_ms[i];

  // Executed rung and bound per submission, from rank 0's kDegrade span;
  // stale/blank classes are served without rendering.
  std::map<int, std::pair<int, int>> rung_of;  // submission -> (rung, bound)
  for (const obs::Span& s : traced.res.stats.ranks[0].spans)
    if (s.kind == obs::SpanKind::kDegrade)
      rung_of[s.frame] = {s.step, static_cast<int>(s.aux)};
  std::set<int> served_stale;
  for (const obs::Span& s : traced.res.service_spans)
    if (s.kind == obs::SpanKind::kDegrade) served_stale.insert(s.frame);

  std::map<int, frames::CoherenceCache> caches;
  std::int64_t messages = 0, hits = 0;
  int rendered = 0;
  const std::vector<service::Submission>& subs = base.res.submissions;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const int id = static_cast<int>(i);
    if (served_stale.count(id) != 0) {
      ++tally.degraded;
      continue;
    }
    const auto rung = rung_of.count(id) ? rung_of[id] : std::pair<int, int>{};
    if (rung.first != 0) ++tally.degraded;
    frames::ViewSpec view;
    view.dataset = tcfg.dataset;
    view.volume_n = tcfg.volume_n;
    view.image_size = tcfg.image_size;
    view.yaw_deg = subs[i].yaw_deg;
    view.pitch_deg = tcfg.traffic.pitch_deg;
    const double before = L.t.path_s();
    const harness::RenderedScene rs = render_timed(
        view, tcfg.ranks, harness::PartitionKind::kBalanced1D, L.t);
    harness::CompositionConfig c = tcfg.comp;
    c.gather = true;
    c.coherence =
        &caches.try_emplace(subs[i].lead_session, tcfg.ranks).first->second;
    c.frame_id = id;
    c.seq_epoch = static_cast<std::uint32_t>(id) & 0xfffu;
    c.quality_rung = static_cast<quality::Rung>(rung.first);
    const Clock::time_point tc = Clock::now();
    const harness::CompositionRun run = harness::run_composition(c, rs.partials);
    L.t.composite_s += seconds_since(tc);
    if (traced_ms.count(id) != 0)
      cover.add(L.t.path_s() - before, traced_ms[id]);
    const img::Image ref = reference_timed(rs.partials, L.t);

    count_partials(rs, L.t);
    ++rendered;
    res.expect(image_hash(run.image) == image_hash(subs[i].image),
               "service: replayed submission " + std::to_string(id) +
                   " differs from run_service");
    const int tol =
        std::max(rung.second, rounding_tolerance(c.method, tcfg.ranks));
    res.expect(img::max_channel_diff(run.image, ref) <= tol,
               "service: submission " + std::to_string(id) +
                   " error exceeds its bound");
    messages += run.stats.total_messages();
    hits += run.stats.total_coherence_hits();
    if (first_run && rendered == 1)
      L.pool_speedup = pool_speedup(c, rs.partials, image_hash(run.image),
                                    res, "service pool");
  }
  const comm::RunStats& st = traced.res.stats;
  res.expect(messages == st.total_messages() &&
                 hits == st.total_coherence_hits(),
             "service: replay traffic differs from run_service");

  tally.subs += static_cast<std::int64_t>(subs.size());
  tally.rendered += rendered;
  tally.deliveries += static_cast<std::int64_t>(base.res.deliveries.size());
  tally.sheds += st.total_session_sheds() + st.total_session_rejects();
  tally.expired += st.total_session_expiries();
  tally.degrades += st.total_session_quality_degrades();
  tally.approx_px += st.total_approx_skipped_pixels();
  tally.hits += st.total_coherence_hits();
  tally.misses += st.total_coherence_misses();
  tally.bytes_saved += st.total_coherence_bytes_saved();
  tally.queue_wait_s += base.res.total_queue_wait;
  tally.base_wall_s += base.wall_s;
  tally.traced_wall_s += traced.wall_s;
  tally.error_bound = std::max(tally.error_bound, st.error_bound);
}

void run_service_workload(std::uint64_t seed, double seconds, bool trace,
                          Result& res) {
  if (!trace) {
    EndToEnd e;
    e.model_alias = "model_latency_ms_p50";
    e.tail_alias = "model_latency_ms_p95";
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kServiceRuns; ++k) {
        const service::ServiceConfig cfg = service_config(seed, k);
        const harness::Scene scene = harness::make_scene(
            cfg.dataset, cfg.volume_n, cfg.image_size);
        (void)service::TrafficGen(cfg.traffic).generate();
      }
      e.setup_s.push_back(seconds_since(t0));
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<double>> first;
    std::vector<double> latency_ms;
    int cycles = 0;
    while (cycles < 1 || seconds_since(t0) < seconds) {
      for (int k = 0; k < kServiceRuns; ++k) {
        const ServiceRun r = run_service_timed(service_config(seed, k));
        check_service(r, res);
        e.ops_per_s.push_back(
            static_cast<double>(r.res.deliveries.size()) / r.wall_s);
        e.op_wall_ms.insert(e.op_wall_ms.end(), r.submission_ms.begin(),
                            r.submission_ms.end());
        e.max_px_err = std::max(e.max_px_err, r.res.stats.max_pixel_error);
        if (cycles == 0) {
          first.push_back(r.signature());
          for (const service::Delivery& d : r.res.deliveries)
            latency_ms.push_back(d.latency() * 1e3);
          if (k == 0) service_counts(r, res);
        } else {
          res.expect(r.signature() == first[static_cast<std::size_t>(k)],
                     "service: cycle " + std::to_string(cycles) +
                         " differs from cycle 0");
        }
      }
      ++cycles;
    }
    e.peak_rss_mb = peak_rss_mib();
    e.model_ms = quantile(latency_ms, 0.5);
    e.model_tail_ms = quantile(latency_ms, 0.95);
    e.emit(res);
    return;
  }

  Layers L;
  Coverage cover;
  ServiceTally tally;
  for (int k = 0; k < kServiceRuns; ++k) {
    const service::ServiceConfig cfg = service_config(seed, k);
    const ServiceRun base = run_service_timed(cfg);
    check_service(base, res);
    service::ServiceConfig tcfg = cfg;
    tcfg.comp.record_spans = true;
    const ServiceRun traced = run_service_timed(tcfg);
    res.expect(traced.signature() == base.signature(),
               "service: traced run " + std::to_string(k) +
                   " differs from untraced run");
    L.spans.add(traced.res.stats);
    replay_service(tcfg, base, traced, k == 0, L, cover, tally, res);
    if (k == 0) service_counts(traced, res);
  }
  L.spans.check(res, "service");
  L.overhead_frac = tally.traced_wall_s / tally.base_wall_s - 1.0;
  L.ops = static_cast<double>(tally.rendered);
  L.compositing_frame_ms = frac(L.t.composite_s * 1e3, L.ops);
  L.coverage_frac = cover.value();
  cover.check(res, "service");
  L.measure_world_setup();

  // Counts are per service run (the mean over the cycle's runs); shares
  // pool every submission of the cycle.
  const double runs = kServiceRuns;
  const auto subs = static_cast<double>(tally.subs);
  L.coherence_hit_frac = frac(static_cast<double>(tally.hits),
                              static_cast<double>(tally.hits + tally.misses));
  L.coherence_bytes_saved = static_cast<double>(tally.bytes_saved) / runs;
  L.queue_wait_ms = frac(tally.queue_wait_s * 1e3, subs);
  L.degraded_frac = frac(static_cast<double>(tally.degraded), subs);
  L.approx_px = static_cast<double>(tally.approx_px) / runs;
  L.error_bound = tally.error_bound;
  L.submissions = subs / runs;
  L.renders_per_delivery = frac(static_cast<double>(tally.rendered),
                                static_cast<double>(tally.deliveries));
  L.sheds = static_cast<double>(tally.sheds) / runs;
  L.expired = static_cast<double>(tally.expired) / runs;
  L.degrades = static_cast<double>(tally.degrades) / runs;
  L.emit(res);
}

// ---------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|composite|service "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        trace = std::stoi(value, &used);
      } else {
        usage("unknown flag " + flag);
      }
      if (used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (workload != "sweep" && workload != "composite" && workload != "service")
    usage("unknown workload '" + workload + "'");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (!(seconds > 0.0)) usage("--seconds must be positive");

  // Debug numbers must never land in BENCHMARK.json.
  const std::string build = PERFBENCH_BUILD_TYPE;
  if (build != "Release") {
    std::cerr << "perfbench: refusing to measure a '" << build
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  img::set_blend_threads(1);
  std::cout << "perfbench: workload=" << workload << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << "\n"
            << "host: nproc=" << nproc() << " pool_workers="
            << (workload == "sweep" ? nproc() : kFineGrainedWorkers)
            << " blend_threads=" << img::blend_threads()
            << " simd=" << simd::to_string(simd::active_level())
            << " build=" << build
            << " rtc_obs=on"
            << " executor=pooled\n";

  Result res;
  if (workload == "sweep") run_sweep(seed, seconds, trace == 1, res);
  if (workload == "composite") run_composite(seed, seconds, trace == 1, res);
  if (workload == "service")
    run_service_workload(seed, seconds, trace == 1, res);
  res.print();
  return res.correct() ? 0 : 1;
}
