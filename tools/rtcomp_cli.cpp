// rtcomp — command-line front end for the library.
//
//   rtcomp info
//   rtcomp render   --dataset engine --ranks 8 --method rt_n --blocks 3
//                   [--codec trle] [--image 512] [--volume 96]
//                   [--renderer shearwarp|raycast|splat] [--mip]
//                   [--partition slab|grid|balanced] [--out out.pgm]
//                   [--net sp2-hps|paper-example]
//                   [--executor pooled|threaded] [--workers N]
//                   [--simd auto|scalar|sse2|avx2] [--blend-threads N]
//                   [--topology flat|sp2|paper|fat-tree|dragonfly|cloud]
//                   [--group-size G] [--hier-intra M] [--hier-inter M]
//                   [--trace-out trace.json] [--metrics-out metrics.txt]
//                   [--fault-seed N] [--fault-drop P] [--fault-corrupt P]
//                   [--fault-dup P] [--fault-delay P]
//                   [--fault-delay-mean S] [--fault-crash-rank R]
//                   [--fault-crash-after SENDS] [--fault-crash-at T]
//                   [--fault-link S:D:DROP[:CORRUPT]]
//                   [--fault-slow R:FACTOR] [--fault-jitter S:D:MEAN]
//                   [--retries N] [--rto S]
//                   [--on-peer-loss blank|throw|recompose]
//                   [--circuit-breaker-threshold N] [--breaker-cooldown S]
//                   [--relay] [--straggler-multiple X]
//                   [--straggler-window N] [--hedge] [--deadline S]
//                   [--quality exact|approx|progressive|stale|blank]
//                   [--max-error N] [--progressive FACTOR]
//                   [--saturation S]
//     multi-frame (camera sweep through the frame pipeline):
//                   --frames K [--sweep DEG] [--max-in-flight M]
//                   [--no-coherence] [--stream frames.pgms]
//                   [--fault-frame F]
//     render service (sessions + admission over the pipeline):
//                   --service [--sessions N] [--requests K]
//                   [--arrival-rate R] [--traffic-seed S]
//                   [--admission shed-oldest|reject-new]
//                   [--queue-cap Q] [--session-deadline S]
//                   [--quant DEG] [--yaw-step DEG]
//                   [--priority-classes C] [--max-in-flight M]
//                   [--no-coherence] [--fault-submission K]
//                   [--degrade-before-shed]
//   rtcomp schedule --ranks 3 --blocks 4 [--variant n|2n|any]
//   rtcomp predict  --ranks 32 --blocks 4 [--pixels 262144]
//                   [--ts 0.0035] [--tp 1e-7] [--to 2.5e-7]
//                   [--topology flat|sp2|paper|fat-tree|dragonfly|cloud]
//
// Flags take `--key value` or `--key=value` form. Malformed numeric
// values are a usage error naming the flag — never an unhandled
// std::stoi throw. So is a flag the command never reads in the mode
// the other flags select (a typo such as --rnaks, or --sessions
// without --service): it is rejected before any rendering starts.
//
// Exit codes: 0 ok, 2 usage error.
#include <climits>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rtc/common/flags.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/rtc.hpp"
#include "rtc/simd/dispatch.hpp"

namespace {

using namespace rtc;

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << key << "\n";
        std::exit(2);
      }
      key = key.substr(2);
      if (const std::size_t eq = key.find('='); eq != std::string::npos) {
        order_.push_back(key.substr(0, eq));
        kv_[order_.back()] = key.substr(eq + 1);
        continue;
      }
      order_.push_back(key);
      if (key == "mip" || key == "no-coherence" || key == "relay" ||
          key == "hedge" || key == "service" ||
          key == "degrade-before-shed") {
        kv_[key] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        std::cerr << "missing value for --" << key << "\n";
        std::exit(2);
      }
      kv_[key] = argv[++i];
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = find(key);
    if (it == kv_.end()) return fallback;
    const auto v = flags::parse_int(it->second);
    if (!v || *v < INT_MIN || *v > INT_MAX) {
      std::cerr << "bad value for --" << key << ": '" << it->second
                << "' (expected an integer)\n";
      std::exit(2);
    }
    return static_cast<int>(*v);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = find(key);
    if (it == kv_.end()) return fallback;
    const auto v = flags::parse_double(it->second);
    if (!v) {
      std::cerr << "bad value for --" << key << ": '" << it->second
                << "' (expected a number)\n";
      std::exit(2);
    }
    return *v;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != kv_.end();
  }
  /// A flag whose value must be one of `accepted`; the first is the
  /// default. Any other value exits 2 naming the flag and the choices.
  [[nodiscard]] std::string get_choice(
      const std::string& key,
      std::initializer_list<const char*> accepted) const {
    const std::string value = get(key, *accepted.begin());
    for (const char* name : accepted)
      if (value == name) return value;
    std::cerr << "unknown --" << key << ": " << value << " (expected ";
    std::size_t i = 0;
    for (const char* name : accepted) {
      if (i > 0) std::cerr << (i + 1 == accepted.size() ? " or " : ", ");
      std::cerr << name;
      ++i;
    }
    std::cerr << ")\n";
    std::exit(2);
  }

  /// Exits 2 naming the first flag, in command-line order, that no
  /// get/has call has asked for: a command calls this once it has read
  /// every flag its mode uses, before doing any work.
  void require_all_read() const {
    for (const std::string& key : order_) {
      if (read_.count(key) == 0) {
        std::cerr << "unknown or inapplicable flag: --" << key << "\n";
        std::exit(2);
      }
    }
  }

 private:
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return kv_.find(key);
  }

  std::map<std::string, std::string> kv_;
  std::vector<std::string> order_;      ///< keys as given on the line
  mutable std::set<std::string> read_;  ///< keys some get/has asked for
};

/// Accepted --renderer and --net values; the first is the default.
constexpr std::initializer_list<const char*> kRenderers = {
    "shearwarp", "raycast", "splat"};
constexpr std::initializer_list<const char*> kNets = {"sp2-hps",
                                                      "paper-example"};

int cmd_info(const Args& a) {
  a.require_all_read();
  std::cout << "rtcomp — rotate-tiling image composition "
               "(reproduction of Lin/Yang/Chung, IPPS 2001)\n\n";
  std::cout << "composition methods:";
  for (const std::string& m : compositing::compositor_names())
    std::cout << " " << m;
  std::cout << "\ncodecs:              raw rle trle bbox bbox2d\n"
            << "datasets (phantoms): engine brain head\n"
            << "renderers:           shearwarp raycast splat\n"
            << "partitions:          slab grid balanced\n"
            << "network presets:     sp2-hps (default), paper-example\n"
            << "topology presets:    flat sp2 paper fat-tree dragonfly "
               "cloud\n"
            << "executors:           pooled (default; fibers, scales to "
               "P=4096) threaded\n";
  return 0;
}

/// Scaling knobs shared by the single-shot and multi-frame render
/// paths: rank executor, network topology preset, and the "hier"
/// method's two-level schedule (docs/scaling.md). Returns 0, or 2 on
/// a usage error.
int parse_scaling_flags(const Args& a, harness::CompositionConfig& cfg) {
  if (a.has("executor")) {
    const std::string name = a.get("executor", "");
    const auto kind = comm::parse_executor_kind(name);
    if (!kind) {
      std::cerr << "unknown --executor: " << name
                << " (expected pooled or threaded)\n";
      return 2;
    }
    cfg.executor.kind = *kind;
  }
  cfg.executor.workers = a.get_int("workers", 0);
  if (cfg.executor.workers < 0) {
    std::cerr << "bad value for --workers: want >= 0 (0 = one per core)\n";
    return 2;
  }
  if (a.has("topology")) {
    const std::string name = a.get("topology", "");
    if (!comm::topology_preset(name.c_str(), &cfg.net)) {
      std::cerr << "unknown --topology: " << name
                << " (expected flat, sp2, paper, fat-tree, dragonfly or "
                   "cloud)\n";
      return 2;
    }
  }
  cfg.group_size = a.get_int("group-size", 0);
  if (cfg.group_size < 0) {
    std::cerr << "bad value for --group-size: want >= 0 "
                 "(0 = ceil(sqrt(P)))\n";
    return 2;
  }
  cfg.hier_intra = a.get("hier-intra", cfg.hier_intra);
  cfg.hier_inter = a.get("hier-inter", cfg.hier_inter);
  if (a.has("simd")) {
    // Wall-clock-only knob: every dispatch level produces the same
    // image and the same virtual-time numbers. A level above what the
    // CPU supports falls back with a stderr note, never a SIGILL.
    const std::string name = a.get("simd", "");
    if (!simd::request_level(name)) {
      std::cerr << "unknown --simd: " << name
                << " (expected auto, scalar, sse2 or avx2)\n";
      return 2;
    }
  }
  if (a.has("blend-threads")) {
    const int n = a.get_int("blend-threads", 1);
    if (n < 1) {
      std::cerr << "bad value for --blend-threads: want >= 1\n";
      return 2;
    }
    img::set_blend_threads(n);
  }
  return 0;
}

/// Fault-injection + resilience flags shared by the single-shot and
/// multi-frame render paths (docs/fault_model.md). The defaults leave
/// the plan disabled, so a plain render stays on the bit-identical
/// zero-fault fast path. Returns 0, or 2 on a usage error.
int parse_fault_flags(const Args& a, harness::CompositionConfig& cfg) {
  cfg.fault.seed = static_cast<std::uint64_t>(a.get_int("fault-seed", 1));
  cfg.fault.drop = a.get_double("fault-drop", 0.0);
  cfg.fault.corrupt = a.get_double("fault-corrupt", 0.0);
  cfg.fault.duplicate = a.get_double("fault-dup", 0.0);
  cfg.fault.delay = a.get_double("fault-delay", 0.0);
  cfg.fault.delay_mean = a.get_double("fault-delay-mean", 0.001);
  if (a.has("fault-crash-rank")) {
    comm::FaultPlan::Crash crash;
    crash.rank = a.get_int("fault-crash-rank", -1);
    crash.after_sends = a.get_int("fault-crash-after", -1);
    if (a.has("fault-crash-at"))
      crash.at_time = a.get_double("fault-crash-at", 0.0);
    if (crash.after_sends < 0 && !a.has("fault-crash-at"))
      crash.after_sends = 0;  // bare --fault-crash-rank: die at 1st send
    cfg.fault.crashes.push_back(crash);
  }
  if (a.has("fault-link")) {
    // S:D:DROP[:CORRUPT] — a per-link fault adder on the directed link
    // S→D (the chronically-bad-cable scenario the circuit breaker
    // targets).
    const std::string spec = a.get("fault-link", "");
    comm::FaultPlan::LinkFault lf;
    char tail = '\0';
    bool ok = std::sscanf(spec.c_str(), "%d:%d:%lf:%lf%c", &lf.src, &lf.dst,
                          &lf.drop, &lf.corrupt, &tail) == 4 &&
              tail == '\0';
    if (!ok) {
      lf.corrupt = 0.0;
      tail = '\0';
      ok = std::sscanf(spec.c_str(), "%d:%d:%lf%c", &lf.src, &lf.dst,
                       &lf.drop, &tail) == 3 &&
           tail == '\0';
    }
    if (!ok) {
      std::cerr << "bad --fault-link (want S:D:DROP[:CORRUPT]): " << spec
                << "\n";
      return 2;
    }
    cfg.fault.links.push_back(lf);
  }
  if (a.has("fault-slow")) {
    // R:FACTOR — rank R's local compute charges run FACTOR× slower (the
    // chronically degraded-node scenario the straggler detector flags).
    const std::string spec = a.get("fault-slow", "");
    comm::FaultPlan::Slow sl;
    char tail = '\0';
    const bool ok = std::sscanf(spec.c_str(), "%d:%lf%c", &sl.rank,
                                &sl.factor, &tail) == 2 &&
                    tail == '\0';
    if (!ok || sl.factor < 1.0) {
      std::cerr << "bad --fault-slow (want R:FACTOR, FACTOR >= 1): " << spec
                << "\n";
      return 2;
    }
    cfg.fault.slows.push_back(sl);
  }
  if (a.has("fault-jitter")) {
    // S:D:MEAN — every message on the directed link S→D arrives a
    // seeded uniform [MEAN/2, 3*MEAN/2) virtual seconds late.
    const std::string spec = a.get("fault-jitter", "");
    comm::FaultPlan::Jitter jt;
    char tail = '\0';
    const bool ok = std::sscanf(spec.c_str(), "%d:%d:%lf%c", &jt.src,
                                &jt.dst, &jt.mean, &tail) == 3 &&
                    tail == '\0';
    if (!ok || jt.mean < 0.0) {
      std::cerr << "bad --fault-jitter (want S:D:MEAN): " << spec << "\n";
      return 2;
    }
    cfg.fault.jitters.push_back(jt);
  }
  cfg.resilience.retries = a.get_int("retries", cfg.resilience.retries);
  cfg.resilience.timeout = a.get_double("rto", cfg.resilience.timeout);
  cfg.resilience.breaker_threshold =
      a.get_int("circuit-breaker-threshold", 0);
  cfg.resilience.breaker_cooldown =
      a.get_double("breaker-cooldown", cfg.resilience.breaker_cooldown);
  cfg.resilience.relay = a.has("relay");
  cfg.resilience.straggler_multiple = a.get_double("straggler-multiple", 0.0);
  cfg.resilience.straggler_window =
      a.get_int("straggler-window", cfg.resilience.straggler_window);
  cfg.resilience.hedge = a.has("hedge");
  cfg.deadline = a.get_double("deadline", 0.0);
  if (cfg.deadline < 0.0) {
    std::cerr << "bad --deadline (want seconds >= 0)\n";
    return 2;
  }
  const std::string on_loss =
      a.get_choice("on-peer-loss", {"blank", "throw", "recompose"});
  cfg.resilience.on_peer_loss =
      on_loss == "throw"
          ? comm::ResiliencePolicy::PeerLoss::kThrow
          : (on_loss == "recompose"
                 ? comm::ResiliencePolicy::PeerLoss::kRecompose
                 : comm::ResiliencePolicy::PeerLoss::kBlank);
  return 0;
}

/// Quality-ladder flags shared by the single-shot, multi-frame and
/// service render paths (docs/quality.md). Defaults keep the ladder
/// off: without --quality the composition runs the exact rung only and
/// every output stays byte-identical. Returns 0, or 2 on a usage
/// error.
int parse_quality_flags(const Args& a, harness::CompositionConfig& cfg) {
  if (a.has("quality")) {
    const std::string name = a.get("quality", "");
    const auto rung = quality::parse_rung(name);
    if (!rung) {
      std::cerr << "unknown --quality: " << name
                << " (expected exact, approx, progressive, stale or "
                   "blank)\n";
      return 2;
    }
    cfg.quality.max_rung = *rung;
  }
  if (a.has("max-error")) {
    const int e = a.get_int("max-error", 255);
    if (e < 0 || e > 255) {
      std::cerr << "bad value for --max-error: want 0..255\n";
      return 2;
    }
    cfg.quality.max_error = e;
  }
  if (a.has("progressive")) {
    const int f = a.get_int("progressive", 4);
    if (f < 2) {
      std::cerr << "bad value for --progressive: want a downsample "
                   "factor >= 2\n";
      return 2;
    }
    cfg.quality.coarse_factor = f;
  }
  if (a.has("saturation")) {
    const int s = a.get_int("saturation", 240);
    if (s < 128 || s > 255) {
      std::cerr << "bad value for --saturation: want 128..255\n";
      return 2;
    }
    cfg.quality.saturation = s;
  }
  cfg.quality.degrade_before_shed = a.has("degrade-before-shed");
  return 0;
}

/// --service: drive the render-service front end (service::run_service)
/// — N sessions of seeded synthetic traffic with admission control and
/// request batching — instead of one sweep or single shot.
int cmd_render_service(const Args& a) {
  service::ServiceConfig sc;
  sc.dataset = a.get("dataset", "engine");
  sc.ranks = a.get_int("ranks", 8);
  sc.volume_n = a.get_int("volume", 96);
  sc.image_size = a.get_int("image", 512);
  sc.renderer = a.get_choice("renderer", kRenderers);
  sc.max_in_flight = a.get_int("max-in-flight", 2);
  if (sc.max_in_flight < 1) {
    std::cerr << "bad value for --max-in-flight: want >= 1\n";
    return 2;
  }
  sc.coherence = !a.has("no-coherence");
  sc.fault_submission = a.get_int("fault-submission", -1);

  sc.traffic.sessions = a.get_int("sessions", 8);
  if (sc.traffic.sessions < 1) {
    std::cerr << "bad value for --sessions: want >= 1\n";
    return 2;
  }
  sc.traffic.requests_per_session = a.get_int("requests", 16);
  if (sc.traffic.requests_per_session < 1) {
    std::cerr << "bad value for --requests: want >= 1\n";
    return 2;
  }
  sc.traffic.arrival_rate = a.get_double("arrival-rate", 50.0);
  if (sc.traffic.arrival_rate <= 0.0) {
    std::cerr << "bad value for --arrival-rate: want > 0 requests/s\n";
    return 2;
  }
  sc.traffic.seed =
      static_cast<std::uint64_t>(a.get_int("traffic-seed", 1));
  sc.traffic.yaw0_deg = a.get_double("yaw", 0.0);
  sc.traffic.yaw_step_deg = a.get_double("yaw-step", 5.0);
  sc.traffic.pitch_deg = a.get_double("pitch", 20.0);
  sc.traffic.priority_classes = a.get_int("priority-classes", 1);
  if (sc.traffic.priority_classes < 1) {
    std::cerr << "bad value for --priority-classes: want >= 1\n";
    return 2;
  }

  sc.admission = service::parse_admission_policy(
      a.get_choice("admission", {"shed-oldest", "reject-new"}));
  sc.queue_cap = a.get_int("queue-cap", 8);
  if (sc.queue_cap < 1) {
    std::cerr << "bad value for --queue-cap: want >= 1\n";
    return 2;
  }
  sc.session_deadline = a.get_double("session-deadline", 0.0);
  if (sc.session_deadline < 0.0) {
    std::cerr << "bad --session-deadline (want seconds >= 0)\n";
    return 2;
  }
  sc.quant_deg = a.get_double("quant", 1.0);

  sc.comp.method = a.get("method", "rt_n");
  sc.comp.initial_blocks = a.get_int("blocks", 3);
  sc.comp.codec = a.get("codec", "");
  const std::string trace_out = a.get("trace-out", "");
  const std::string metrics_out = a.get("metrics-out", "");
  sc.comp.record_spans = a.has("trace-out") || a.has("metrics-out");
  if (a.get_choice("net", kNets) == "paper-example")
    sc.comp.net = comm::paper_example_model();
  if (const int rc = parse_scaling_flags(a, sc.comp); rc != 0) return rc;
  if (const int rc = parse_fault_flags(a, sc.comp); rc != 0) return rc;
  if (const int rc = parse_quality_flags(a, sc.comp); rc != 0) return rc;
  if (sc.comp.quality.degrade_before_shed && !sc.comp.quality.engaged()) {
    std::cerr << "--degrade-before-shed needs a quality ladder: pass "
                 "--quality approx|progressive|stale|blank\n";
    return 2;
  }
  a.require_all_read();

  const service::ServiceResult res = service::run_service(sc);
  std::cout << "render service over '" << sc.dataset << "', " << sc.ranks
            << " ranks, " << sc.renderer << " renderer, " << sc.comp.method
            << "/" << (sc.comp.codec.empty() ? "raw" : sc.comp.codec)
            << (sc.coherence ? "" : ", coherence off") << "\n"
            << "traffic: " << sc.traffic.sessions << " session(s) x "
            << sc.traffic.requests_per_session << " request(s) @ "
            << sc.traffic.arrival_rate << "/s, seed " << sc.traffic.seed
            << "\n\n";
  service::print_service(std::cout, sc, res);
  if (sc.comp.fault.enabled())
    std::cout << "faults: " << harness::fault_summary(res.stats) << "\n";

  if (a.has("trace-out")) {
    // Per-rank tracks carry every submission's spans (shifted onto the
    // service timeline); one extra track past the last rank carries
    // the service-level admit/shed/batch instants and the
    // render/queue/composite intervals.
    comm::RunStats traced = res.stats;
    comm::RankStats service_track;
    service_track.spans = res.service_spans;
    traced.ranks.push_back(std::move(service_track));
    harness::write_perfetto_trace(traced, trace_out);
    std::cout << "wrote " << trace_out << "\n";
  }
  if (a.has("metrics-out")) {
    harness::write_metrics_file(res.stats, metrics_out);
    std::cout << "wrote " << metrics_out << "\n";
  }
  return 0;
}

/// --frames K: drive a camera sweep through the frame pipeline
/// (frames::run_sequence) instead of one single-shot composition.
int cmd_render_frames(const Args& a) {
  frames::PipelineConfig pc;
  pc.dataset = a.get("dataset", "engine");
  pc.ranks = a.get_int("ranks", 8);
  pc.volume_n = a.get_int("volume", 96);
  pc.image_size = a.get_int("image", 512);
  pc.frames = a.get_int("frames", 8);
  pc.yaw0_deg = a.get_double("yaw", 0.0);
  pc.sweep_deg = a.get_double("sweep", 360.0);
  pc.pitch_deg = a.get_double("pitch", 20.0);
  pc.renderer = a.get_choice("renderer", kRenderers);
  pc.max_in_flight = a.get_int("max-in-flight", 2);
  pc.coherence = !a.has("no-coherence");
  pc.fault_frame = a.get_int("fault-frame", -1);
  pc.comp.method = a.get("method", "rt_n");
  pc.comp.initial_blocks = a.get_int("blocks", 3);
  pc.comp.codec = a.get("codec", "");
  pc.comp.gather = true;
  if (a.get_choice("net", kNets) == "paper-example")
    pc.comp.net = comm::paper_example_model();
  if (const int rc = parse_scaling_flags(a, pc.comp); rc != 0) return rc;
  if (const int rc = parse_fault_flags(a, pc.comp); rc != 0) return rc;
  if (const int rc = parse_quality_flags(a, pc.comp); rc != 0) return rc;
  if (pc.comp.quality.degrade_before_shed) {
    std::cerr << "--degrade-before-shed needs --service\n";
    return 2;
  }
  pc.deadline = pc.comp.deadline;
  const std::string stream_path = a.get("stream", "");
  a.require_all_read();

  std::ofstream stream;
  std::unique_ptr<frames::PgmStreamSink> sink;
  if (a.has("stream")) {
    stream.open(stream_path, std::ios::binary);
    if (!stream) {
      std::cerr << "cannot open --stream file: " << stream_path << "\n";
      return 2;
    }
    sink = std::make_unique<frames::PgmStreamSink>(stream);
    pc.sink = sink.get();
  }

  const frames::SequenceResult seq = frames::run_sequence(pc);
  std::cout << "sweep of '" << pc.dataset << "', " << pc.ranks
            << " ranks, " << pc.renderer << " renderer, "
            << pc.comp.method << "/"
            << (pc.comp.codec.empty() ? "raw" : pc.comp.codec)
            << (pc.coherence ? "" : ", coherence off") << "\n\n";
  frames::print_sequence(std::cout, pc, seq);
  if (pc.fault_frame >= 0 &&
      pc.fault_frame < static_cast<int>(seq.frames.size()))
    std::cout << "frame " << pc.fault_frame << " faults:  "
              << harness::fault_summary(
                     seq.frames[static_cast<std::size_t>(pc.fault_frame)]
                         .run.stats)
              << "\n";
  if (sink != nullptr)
    std::cout << "wrote " << stream_path << " (" << sink->frames_written()
              << " PGM frames)\n";
  return 0;
}

int cmd_render(const Args& a) {
  if (a.has("service")) return cmd_render_service(a);
  if (a.get_int("frames", 1) > 1) return cmd_render_frames(a);
  const std::string dataset = a.get("dataset", "engine");
  const int ranks = a.get_int("ranks", 8);
  const std::string method = a.get("method", "rt_n");
  const int blocks = a.get_int("blocks", 3);
  const std::string renderer = a.get_choice("renderer", kRenderers);
  const std::string partition =
      a.get_choice("partition", {"slab", "grid", "balanced"});
  const bool mip = a.has("mip");
  const int volume_n = a.get_int("volume", 96);
  const int image_size = a.get_int("image", 512);
  const double yaw = a.get_double("yaw", 30.0);
  const double pitch = a.get_double("pitch", 20.0);
  const std::string out = a.get("out", "");
  const std::string trace_out = a.get("trace-out", "");
  const std::string metrics_out = a.get("metrics-out", "");

  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.codec = a.get("codec", "");
  cfg.blend = mip ? img::BlendMode::kMax : img::BlendMode::kOver;
  cfg.gather = true;
  cfg.record_spans = a.has("trace-out") || a.has("metrics-out");
  if (a.get_choice("net", kNets) == "paper-example")
    cfg.net = comm::paper_example_model();

  if (const int rc = parse_scaling_flags(a, cfg); rc != 0) return rc;
  if (const int rc = parse_fault_flags(a, cfg); rc != 0) return rc;
  if (const int rc = parse_quality_flags(a, cfg); rc != 0) return rc;
  if (cfg.quality.max_rung >= quality::Rung::kStale) {
    std::cerr << "--quality " << quality::rung_name(cfg.quality.max_rung)
              << " needs --frames or --service (stale and blank are "
                 "frame-level rungs)\n";
    return 2;
  }
  if (cfg.quality.degrade_before_shed) {
    std::cerr << "--degrade-before-shed needs --service\n";
    return 2;
  }
  // Single shot has no pressure history: execute the requested rung
  // directly (the error contract may still demote it toward exact).
  cfg.quality_rung = cfg.quality.max_rung;
  a.require_all_read();

  harness::Scene scene =
      harness::make_scene(dataset, volume_n, image_size, yaw, pitch);

  // Partition + render (by hand so renderer/mode are selectable).
  const render::Vec3 d = scene.camera.direction();
  const int axis = render::principal_axis(d);
  std::vector<vol::Brick> bricks;
  if (partition == "grid") {
    bricks = part::grid_2d(scene.volume.bounds(), ranks, (axis + 1) % 3,
                           (axis + 2) % 3);
  } else if (partition == "balanced") {
    bricks = part::balanced_slab_1d(scene.volume, scene.tf, ranks, axis);
  } else {
    bricks = part::slab_1d(scene.volume.bounds(), ranks, axis);
  }
  const double dir[3] = {d.x, d.y, d.z};
  const auto order = part::visibility_order(bricks, dir);
  const render::RenderMode rmode =
      mip ? render::RenderMode::kMip : render::RenderMode::kComposite;
  std::vector<img::Image> partials;
  for (int r = 0; r < ranks; ++r) {
    const vol::Brick& brick =
        bricks[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])];
    if (renderer == "raycast") {
      partials.push_back(render::render_raycast(scene.volume, scene.tf,
                                                brick, scene.camera, rmode));
    } else if (renderer == "splat") {
      partials.push_back(render::render_splat(scene.volume, scene.tf,
                                              brick, scene.camera, rmode));
    } else {
      partials.push_back(render::render_shearwarp(
          scene.volume, scene.tf, brick, scene.camera, rmode));
    }
  }

  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);

  std::cout << "dataset=" << dataset << " ranks=" << ranks
            << " method=" << method << " blocks=" << blocks
            << " codec=" << (cfg.codec.empty() ? "raw" : cfg.codec)
            << (mip ? " (MIP)" : "") << "\n"
            << "composition time: " << run.time << " s (virtual)\n"
            << "wire traffic:     "
            << static_cast<double>(run.stats.total_bytes_sent()) / 1e6
            << " MB in " << run.stats.total_messages() << " messages\n";
  if (cfg.fault.enabled()) {
    std::cout << "faults:           "
              << harness::fault_summary(run.stats) << "\n";
    if (run.degraded)
      std::cout << "degraded result:  " << run.lost_pixels
                << " pixels substituted blank\n";
  }
  // Quality line only when a rung below exact executed, so plain runs
  // keep the legacy output byte-for-byte.
  if (run.stats.quality_rung != 0) {
    std::cout << "quality:          "
              << quality::rung_name(
                     static_cast<quality::Rung>(run.stats.quality_rung))
              << " rung, bound " << run.stats.error_bound
              << ", measured err " << run.stats.max_pixel_error << "\n";
    if (run.first_light > 0.0)
      std::cout << "first light:      " << run.first_light
                << " s (virtual)\n";
  }

  if (!out.empty()) {
    img::write_pgm(run.image, out);
    std::cout << "wrote " << out << "\n";
  }
  if (a.has("trace-out")) {
    harness::write_perfetto_trace(run.stats, trace_out);
    std::cout << "wrote " << trace_out << "\n";
  }
  if (a.has("metrics-out")) {
    harness::write_metrics_file(run.stats, metrics_out);
    std::cout << "wrote " << metrics_out << "\n";
  }
  return 0;
}

int cmd_schedule(const Args& a) {
  const int ranks = a.get_int("ranks", 3);
  const int blocks = a.get_int("blocks", 4);
  const std::string variant = a.get("variant", "any");
  a.require_all_read();
  core::RtVariant v = core::RtVariant::kGeneralized;
  if (variant == "n") {
    v = core::RtVariant::kNrt;
  } else if (variant == "2n") {
    v = core::RtVariant::kTwoNrt;
  } else if (variant != "any") {
    std::cerr << "unknown --variant: " << variant
              << " (expected n|2n|any)\n";
    return 2;
  }
  const core::Schedule s = core::build_rt_schedule(ranks, blocks, v);
  std::cout << core::to_string(v) << ", P=" << ranks << ", " << blocks
            << " initial blocks, " << s.steps.size() << " steps\n";
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    std::cout << "step " << (k + 1) << ":\n";
    for (const core::Merge& m : s.steps[k].merges)
      std::cout << "  P" << m.sender << " -> P" << m.receiver
                << "  block " << m.block << "  (sender "
                << (m.sender_front ? "front" : "back") << ")\n";
  }
  std::cout << "final owners:";
  for (const int o : s.final_owner) std::cout << " " << o;
  std::cout << "\n";
  return 0;
}

int cmd_predict(const Args& a) {
  const int ranks = a.get_int("ranks", 32);
  const int blocks = a.get_int("blocks", 4);
  comm::NetworkModel net = comm::sp2_hps_model();
  if (a.has("topology") &&
      !comm::topology_preset(a.get("topology", "").c_str(), &net)) {
    std::cerr << "unknown --topology: " << a.get("topology", "")
              << " (expected flat, sp2, paper, fat-tree, dragonfly or "
                 "cloud)\n";
    return 2;
  }
  net.ts = a.get_double("ts", net.ts);
  net.tp_byte = a.get_double("tp", net.tp_byte);
  net.to_pixel = a.get_double("to", net.to_pixel);
  const auto pixels =
      static_cast<std::int64_t>(a.get_int("pixels", 512 * 512));
  a.require_all_read();

  const core::Schedule s = core::build_rt_schedule(
      ranks, blocks, core::RtVariant::kGeneralized);
  const core::Prediction p = core::predict_time(s, pixels, 2, net);
  std::cout << "RT, P=" << ranks << ", " << blocks
            << " blocks, A=" << pixels << " px\n"
            << "predicted composition time: " << p.makespan << " s\n"
            << "total traffic: "
            << static_cast<double>(p.total_bytes) / 1e6 << " MB in "
            << p.total_messages << " messages\n";
  for (std::size_t k = 0; k < p.steps.size(); ++k)
    std::cout << "  step " << (k + 1)
              << ": ends " << p.steps[k].end_time << " s, max "
              << p.steps[k].max_rank_sends << " sends/rank\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: rtcomp <info|render|schedule|predict> "
                 "[--key value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (cmd == "info") return cmd_info(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "schedule") return cmd_schedule(args);
    if (cmd == "predict") return cmd_predict(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}
