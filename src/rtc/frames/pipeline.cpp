#include "rtc/frames/pipeline.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "rtc/common/check.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"

namespace rtc::frames {

harness::RenderedScene render_view(const ViewSpec& view, int ranks,
                                   int& axis_out) {
  RTC_CHECK_MSG(view.renderer == "shearwarp" || view.renderer == "raycast" ||
                    view.renderer == "splat",
                "unknown renderer '" + view.renderer +
                    "' (expected shearwarp, raycast or splat)");
  const harness::Scene scene =
      harness::make_scene(view.dataset, view.volume_n, view.image_size,
                          view.yaw_deg, view.pitch_deg);
  const render::Vec3 d = scene.camera.direction();
  axis_out = render::principal_axis(d);
  const auto bricks = part::balanced_slab_1d(scene.volume, scene.tf,
                                             ranks, axis_out);
  const double dir[3] = {d.x, d.y, d.z};
  const auto order = part::visibility_order(bricks, dir);

  harness::RenderedScene rs;
  for (int r = 0; r < ranks; ++r) {
    const vol::Brick& brick =
        bricks[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])];
    rs.bricks.push_back(brick);
    rs.solid_voxels.push_back(
        part::solid_voxels(scene.volume, scene.tf, brick));
    rs.total_voxels.push_back(brick.voxels());
    if (view.renderer == "raycast") {
      rs.partials.push_back(render::render_raycast(scene.volume, scene.tf,
                                                   brick, scene.camera));
    } else if (view.renderer == "splat") {
      rs.partials.push_back(render::render_splat(scene.volume, scene.tf,
                                                 brick, scene.camera));
    } else {
      rs.partials.push_back(render::render_shearwarp(
          scene.volume, scene.tf, brick, scene.camera));
    }
  }
  return rs;
}

namespace {

/// The sweep's per-frame view: everything from the config except the
/// frame-dependent yaw.
ViewSpec sweep_view(const PipelineConfig& cfg, double yaw_deg) {
  ViewSpec v;
  v.dataset = cfg.dataset;
  v.volume_n = cfg.volume_n;
  v.image_size = cfg.image_size;
  v.yaw_deg = yaw_deg;
  v.pitch_deg = cfg.pitch_deg;
  v.renderer = cfg.renderer;
  return v;
}

/// One pipeline-level span (frame-stamped, virtual clock only).
obs::Span pipeline_span(obs::SpanKind kind, int frame, double begin,
                        double end) {
  obs::Span s;
  s.kind = kind;
  s.v_begin = begin;
  s.v_end = end;
  s.frame = frame;
  return s;
}

}  // namespace

SequenceResult run_sequence(const PipelineConfig& cfg) {
  RTC_CHECK_MSG(cfg.frames >= 1, "need at least one frame");
  RTC_CHECK_MSG(cfg.ranks >= 1, "need at least one rank");

  CoherenceCache cache(cfg.ranks);
  // Receiver-side staleness store, the deadline's substitution source;
  // like the coherence cache it persists across the per-frame Worlds.
  comm::StaleStore stale(cfg.ranks);
  FrameScheduler sched(cfg.max_in_flight);
  SequenceResult out;
  out.frames.reserve(static_cast<std::size_t>(cfg.frames));

  // Self-healing across frames: under kRecompose a rank that crashes
  // at frame k stays dead for the rest of the sequence — later frames
  // re-partition the volume over the survivors, so only frame k itself
  // misses the dead rank's sub-volume. Every other policy keeps the
  // legacy per-frame isolation (each frame's World revives all ranks).
  const bool self_heal =
      cfg.comp.resilience.on_peer_loss ==
      comm::ResiliencePolicy::PeerLoss::kRecompose;
  int ranks_eff = cfg.ranks;
  std::string method_eff = cfg.comp.method;

  // Quality ladder: one controller for the whole sequence, stepped by
  // the previous frame's pressure (deadline misses, stragglers, peer
  // loss). With the default policy (max_rung == exact) everything below
  // is a no-op and the sequence is byte-identical to older builds.
  quality::QualityController qc(cfg.comp.quality);
  quality::PressureSignals pressure;
  // Last successfully composited frame, the kStale rung's source.
  img::Image last_good;

  for (int f = 0; f < cfg.frames; ++f) {
    const double yaw =
        cfg.yaw0_deg + cfg.sweep_deg * f / cfg.frames;
    FrameResult fr;
    fr.yaw_deg = yaw;
    const harness::RenderedScene rs =
        render_view(sweep_view(cfg, yaw), ranks_eff, fr.axis);
    fr.render_time = harness::render_stage_time(rs);

    // Pick this frame's rung and re-enforce the error contract against
    // the actual partials (the progressive bound needs them).
    const quality::RungChoice rung = quality::enforce_contract(
        qc.choose(pressure), cfg.comp.quality, rs.partials);

    if (rung.rung >= quality::Rung::kStale) {
      // Stale/blank rungs skip composition entirely: the frame is
      // served from the last composited image (or blank when there is
      // none yet / the rung is blank) at zero composite cost. The
      // unified error accounting still measures the delivered image
      // against this frame's exact composite.
      const bool serve_stale = rung.rung == quality::Rung::kStale &&
                               last_good.pixel_count() > 0;
      fr.run.image = serve_stale
                         ? last_good
                         : img::Image(cfg.image_size, cfg.image_size);
      fr.run.stats.ranks.resize(static_cast<std::size_t>(ranks_eff));
      fr.run.stats.quality_rung = static_cast<int>(rung.rung);
      fr.run.stats.error_bound = rung.bound;
      const img::Image ref =
          img::composite_reference(rs.partials, cfg.comp.blend);
      fr.run.stats.max_pixel_error =
          img::max_channel_diff(fr.run.image, ref);
      fr.run.degraded = true;
      if (cfg.sink != nullptr) {
        cfg.sink->begin_frame(f, cfg.image_size, cfg.image_size);
        cfg.sink->deliver_tile(f,
                               img::PixelSpan{0, fr.run.image.pixel_count()},
                               fr.run.image.pixels());
        cfg.sink->end_frame(f);
      }
      fr.composite_time = 0.0;
      fr.timing = sched.admit(fr.render_time, fr.composite_time);
      out.quality_frames += 1;
      out.quality_floor =
          std::max(out.quality_floor, static_cast<int>(rung.rung));
      out.error_bound = std::max(out.error_bound, rung.bound);
      if (fr.run.stats.max_pixel_error > out.max_pixel_error)
        out.max_pixel_error = fr.run.stats.max_pixel_error;
      const FrameTiming& ts = fr.timing;
      out.pipeline_spans.push_back(pipeline_span(
          obs::SpanKind::kRender, f, ts.render_start, ts.render_end));
      out.pipeline_spans.push_back(pipeline_span(
          obs::SpanKind::kCompute, f, ts.composite_start,
          ts.composite_end));
      out.frames.push_back(std::move(fr));
      // A served-stale frame exerts no pressure of its own; the ladder
      // recovers one rung next frame unless new pressure appears.
      pressure = quality::PressureSignals{};
      continue;
    }

    harness::CompositionConfig c = cfg.comp;
    c.quality_rung = rung.rung;
    c.method = method_eff;
    c.coherence = cfg.coherence ? &cache : nullptr;
    c.sink = cfg.sink;
    c.frame_id = f;
    // Per-frame seq epoch: frame f's wire sequence numbers live in
    // their own window, so a stale duplicate of frame f-1 can never
    // alias into frame f (epoch_reset_test pins the disjointness).
    c.seq_epoch = static_cast<std::uint32_t>(f);
    if (cfg.sink != nullptr) c.gather = true;
    c.deadline = cfg.deadline;
    c.stale = cfg.deadline > 0.0 ? &stale : nullptr;
    // Fault isolation: the injected wire/crash schedule applies to
    // exactly one frame's World; every other frame runs free of those.
    // Fail-slow faults are chronic (a degraded node, not an event), so
    // slowdowns and jitter — and the seed their coins hang off —
    // survive the reset and apply on every frame.
    if (f != cfg.fault_frame) {
      comm::FaultPlan chronic;
      chronic.seed = c.fault.seed;
      chronic.slows = c.fault.slows;
      chronic.jitters = c.fault.jitters;
      c.fault = std::move(chronic);
    }

    if (cfg.sink != nullptr)
      cfg.sink->begin_frame(f, cfg.image_size, cfg.image_size);
    fr.run = harness::run_composition(c, rs.partials);
    if (cfg.sink != nullptr) cfg.sink->end_frame(f);

    // Under a deadline the frame is *delivered* when the gather root
    // finishes — the straggler's own clock legitimately runs past the
    // deadline, but the pipeline advances on delivery.
    fr.composite_time =
        cfg.deadline > 0.0 ? fr.run.delivery_time : fr.run.time;
    fr.timing = sched.admit(fr.render_time, fr.composite_time);

    out.coherence_hits += fr.run.stats.total_coherence_hits();
    out.coherence_misses += fr.run.stats.total_coherence_misses();
    out.coherence_bytes_saved += fr.run.stats.total_coherence_bytes_saved();

    out.deadline_misses += fr.run.stats.total_deadline_misses();
    out.stale_tiles += fr.run.stats.total_stale_tiles();
    out.stale_pixels += fr.run.stats.total_stale_pixels();
    if (fr.run.stats.max_pixel_error > out.max_pixel_error)
      out.max_pixel_error = fr.run.stats.max_pixel_error;

    if (fr.run.stats.quality_rung != 0) {
      out.quality_frames += 1;
      out.quality_floor =
          std::max(out.quality_floor, fr.run.stats.quality_rung);
      out.error_bound =
          std::max(out.error_bound, fr.run.stats.error_bound);
    }
    out.approx_pixels += fr.run.stats.total_approx_skipped_pixels();
    out.coarse_pixels += fr.run.stats.coarse_pixels;
    if (fr.run.image.pixel_count() > 0) last_good = fr.run.image;

    // Next frame's pressure comes from what this frame experienced.
    pressure = quality::PressureSignals{};
    pressure.deadline_missed =
        fr.run.stats.total_deadline_misses() > 0 ||
        (cfg.deadline > 0.0 && fr.composite_time > cfg.deadline);
    pressure.stragglers = fr.run.stats.total_stragglers_flagged() > 0;
    pressure.peer_loss = !fr.run.stats.dead_ranks().empty() ||
                         fr.run.stats.total_lost_pixels() > 0;

    out.recomposes += fr.run.stats.total_recomposes();
    if (fr.run.stats.max_membership_epoch() > out.max_epoch)
      out.max_epoch = fr.run.stats.max_membership_epoch();
    if (self_heal) {
      const std::vector<int> dead = fr.run.stats.dead_ranks();
      if (!dead.empty()) {
        ranks_eff -= static_cast<int>(dead.size());
        RTC_CHECK_MSG(ranks_eff >= 1,
                      "every rank died; nothing left to render");
        out.ranks_lost += static_cast<int>(dead.size());
        // The cache is sized to the rank count and keyed by (rank,
        // block); the survivor renumbering invalidates both, so start
        // cold at the new size — correctness never depends on cache
        // state, only traffic does.
        cache = CoherenceCache(ranks_eff);
        // Same argument receiver-side: the renumbering re-keys every
        // (src, tag, occurrence) slot, so stale content from the old
        // numbering must never substitute into the new one.
        stale = comm::StaleStore(ranks_eff);
        // Later frames run ungrouped at the survivor count, so a
        // method whose applicability rule breaks there falls back to
        // its any-P sibling — the same one the in-frame grouped
        // recomposition runs.
        method_eff = core::any_p_method(method_eff, ranks_eff);
      }
    }

    const FrameTiming& t = fr.timing;
    out.pipeline_spans.push_back(pipeline_span(
        obs::SpanKind::kRender, f, t.render_start, t.render_end));
    if (t.queue_wait() > 0.0)
      out.pipeline_spans.push_back(pipeline_span(
          obs::SpanKind::kQueueWait, f, t.render_end, t.composite_start));
    out.pipeline_spans.push_back(pipeline_span(
        obs::SpanKind::kCompute, f, t.composite_start, t.composite_end));

    out.frames.push_back(std::move(fr));
  }

  out.makespan = sched.makespan();
  out.total_queue_wait = sched.total_queue_wait();
  return out;
}

void print_sequence(std::ostream& os, const PipelineConfig& cfg,
                    const SequenceResult& seq) {
  harness::Table t({"frame", "yaw", "axis", "render [s]", "comp [s]",
                    "queue [s]", "done @", "coh hits", "status"});
  for (const FrameResult& f : seq.frames) {
    t.add_row({std::to_string(f.timing.frame),
               harness::Table::num(f.yaw_deg, 0),
               std::string(1, "xyz"[f.axis]),
               harness::Table::num(f.render_time, 4),
               harness::Table::num(f.composite_time, 4),
               harness::Table::num(f.timing.queue_wait(), 4),
               harness::Table::num(f.timing.composite_end, 4),
               std::to_string(f.run.stats.total_coherence_hits()),
               f.run.degraded ? "degraded" : "ok"});
  }
  t.print(os);
  os << "\npipeline: depth " << cfg.max_in_flight << ", makespan "
     << harness::Table::num(seq.makespan, 4) << " s vs "
     << harness::Table::num(seq.sequential_time(), 4)
     << " s sequential (queue wait "
     << harness::Table::num(seq.total_queue_wait, 4) << " s)\n"
     << "modeled rate: " << harness::Table::num(seq.frames_per_second(), 2)
     << " frames/s\n"
     << "coherence: " << seq.coherence_hits << " hits / "
     << seq.coherence_misses << " misses ("
     << harness::Table::num(100.0 * seq.hit_rate(), 1) << "% hit rate), "
     << seq.coherence_bytes_saved << " encoded bytes not resent\n";
  if (seq.ranks_lost > 0 || seq.recomposes > 0)
    os << "recovery: " << seq.ranks_lost << " rank(s) lost, "
       << seq.recomposes << " recomposition pass(es), membership epoch "
       << seq.max_epoch << "\n";
  if (seq.deadline_misses > 0 || seq.stale_tiles > 0)
    os << "deadline: " << seq.deadline_misses << " miss(es), "
       << seq.stale_tiles << " stale tile(s) / " << seq.stale_pixels
       << " px substituted, max pixel error " << seq.max_pixel_error
       << "\n";
  if (seq.quality_frames > 0) {
    os << "quality: " << seq.quality_frames << " frame(s) below exact, "
       << "floor "
       << quality::rung_name(
              static_cast<quality::Rung>(seq.quality_floor))
       << ", worst bound " << seq.error_bound << ", measured max error "
       << seq.max_pixel_error;
    if (seq.approx_pixels > 0)
      os << ", " << seq.approx_pixels << " blend(s) skipped";
    if (seq.coarse_pixels > 0)
      os << ", " << seq.coarse_pixels << " coarse px delivered";
    os << "\n";
  }
}

}  // namespace rtc::frames
