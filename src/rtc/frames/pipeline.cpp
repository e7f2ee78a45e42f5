#include "rtc/frames/pipeline.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "rtc/common/check.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/core/schedule.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/render/renderer.hpp"

namespace rtc::frames {

harness::RenderedScene render_view(const ViewSpec& view, int ranks,
                                   int& axis_out) {
  // An unknown renderer fails here, before the scene is built.
  static_cast<void>(render::brick_renderer(view.renderer));
  const harness::Scene scene =
      harness::make_scene(view.dataset, view.volume_n, view.image_size,
                          view.yaw_deg, view.pitch_deg);
  harness::RenderedScene rs = harness::render_scene(
      scene, ranks, harness::PartitionKind::kBalanced1D, view.renderer);
  axis_out = render::principal_axis(scene.camera.direction());
  return rs;
}

obs::Span frame_span(obs::SpanKind kind, int frame, double begin,
                     double end) {
  obs::Span s;
  s.kind = kind;
  s.v_begin = begin;
  s.v_end = end;
  s.frame = frame;
  return s;
}

quality::Rung FrameStep::frame_rung(quality::Rung proposed) const {
  const quality::QualityPolicy& pol = comp_.quality;
  const quality::Rung r = std::min(proposed, pol.max_rung);
  if (r >= quality::Rung::kStale &&
      quality::rung_error_bound(r, pol, {}) <= pol.max_error)
    return r;
  return std::min(r, quality::Rung::kProgressive);
}

harness::CompositionConfig FrameStep::config(int frame, quality::Rung rung,
                                             CoherenceCache* coherence,
                                             comm::StaleStore* stale) const {
  harness::CompositionConfig c = comp_;
  c.frame_id = frame;
  // Frame f's wire sequence numbers live in their own epoch window, so
  // a stale duplicate of frame f-1 can never alias into frame f
  // (epoch_reset_test pins the disjointness). The epoch has
  // 32 - kSeqEpochBits bits; wrapping keeps temporally adjacent
  // frames' windows disjoint, which is all the dedup window needs.
  constexpr std::uint32_t kEpochMask =
      (std::uint32_t{1} << (32 - comm::World::kSeqEpochBits)) - 1;
  c.seq_epoch = static_cast<std::uint32_t>(frame) & kEpochMask;
  c.quality_rung = rung;
  c.coherence = coherence;
  c.stale = c.deadline > 0.0 ? stale : nullptr;
  if (frame != fault_frame_) c.fault = comp_.fault.chronic();
  return c;
}

FrameTiming FrameStep::admit(double render_time, double composite_time,
                             double earliest_start,
                             std::vector<obs::Span>* spans) {
  const FrameTiming t =
      sched_.admit(render_time, composite_time, earliest_start);
  if (spans != nullptr) {
    spans->push_back(frame_span(obs::SpanKind::kRender, t.frame,
                                t.render_start, t.render_end));
    if (t.queue_wait() > 0.0)
      spans->push_back(frame_span(obs::SpanKind::kQueueWait, t.frame,
                                  t.render_end, t.composite_start));
    spans->push_back(frame_span(obs::SpanKind::kCompute, t.frame,
                                t.composite_start, t.composite_end));
  }
  return t;
}

bool FrameStep::drop_dead(const comm::RunStats& stats) {
  if (comp_.resilience.on_peer_loss !=
      comm::ResiliencePolicy::PeerLoss::kRecompose)
    return false;
  const int dead = static_cast<int>(stats.dead_ranks().size());
  if (dead == 0) return false;
  ranks_ -= dead;
  RTC_CHECK_MSG(ranks_ >= 1, "every rank died; nothing left to render");
  ranks_lost_ += dead;
  comp_.method = core::any_p_method(comp_.method, ranks_);
  return true;
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

}  // namespace

SequenceResult run_sequence(const PipelineConfig& cfg) {
  RTC_CHECK_MSG(cfg.frames >= 1, "need at least one frame");
  RTC_CHECK_MSG(cfg.ranks >= 1, "need at least one rank");

  harness::CompositionConfig comp = cfg.comp;
  comp.sink = cfg.sink;
  if (cfg.sink != nullptr) comp.gather = true;
  comp.deadline = cfg.deadline;
  FrameStep step(std::move(comp), cfg.ranks, cfg.fault_frame,
                 cfg.max_in_flight);
  CoherenceCache cache(cfg.ranks);
  // Receiver-side staleness store, the deadline's substitution source;
  // like the coherence cache it persists across the per-frame Worlds.
  comm::StaleStore stale(cfg.ranks);
  SequenceResult out;
  out.frames.reserve(static_cast<std::size_t>(cfg.frames));

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
        render_view(sweep_view(cfg, yaw), step.ranks(), fr.axis);
    fr.render_time = harness::render_stage_time(rs);

    const quality::Rung rung = step.frame_rung(qc.choose(pressure));
    if (rung >= quality::Rung::kStale) {
      // Stale/blank rungs skip composition entirely: the frame is
      // served from the last composited image (or blank when there is
      // none yet / the rung is blank) at zero composite cost. The
      // unified error accounting still measures the delivered image
      // against this frame's exact composite.
      const bool serve_stale = rung == quality::Rung::kStale &&
                               last_good.pixel_count() > 0;
      fr.run.image = serve_stale
                         ? last_good
                         : img::Image(cfg.image_size, cfg.image_size);
      fr.run.stats.ranks.resize(static_cast<std::size_t>(step.ranks()));
      fr.run.stats.quality_rung = static_cast<int>(rung);
      fr.run.stats.error_bound =
          quality::rung_error_bound(rung, cfg.comp.quality, {});
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
      fr.timing = step.admit(fr.render_time, 0.0, 0.0, nullptr);
      out.quality_frames += 1;
      out.quality_floor =
          std::max(out.quality_floor, static_cast<int>(rung));
      out.error_bound =
          std::max(out.error_bound, fr.run.stats.error_bound);
      if (fr.run.stats.max_pixel_error > out.max_pixel_error)
        out.max_pixel_error = fr.run.stats.max_pixel_error;
      const FrameTiming& ts = fr.timing;
      out.pipeline_spans.push_back(frame_span(
          obs::SpanKind::kRender, f, ts.render_start, ts.render_end));
      out.pipeline_spans.push_back(frame_span(
          obs::SpanKind::kCompute, f, ts.composite_start,
          ts.composite_end));
      out.frames.push_back(std::move(fr));
      // A served-stale frame exerts no pressure of its own; the ladder
      // recovers one rung next frame unless new pressure appears.
      pressure = quality::PressureSignals{};
      continue;
    }

    if (cfg.sink != nullptr)
      cfg.sink->begin_frame(f, cfg.image_size, cfg.image_size);
    fr.run = harness::run_composition(
        step.config(f, rung, cfg.coherence ? &cache : nullptr, &stale),
        rs.partials);
    if (cfg.sink != nullptr) cfg.sink->end_frame(f);
    fr.composite_time = step.composite_time(fr.run);
    fr.timing = step.admit(fr.render_time, fr.composite_time, 0.0,
                           &out.pipeline_spans);

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
    if (step.drop_dead(fr.run.stats)) {
      // The survivor renumbering re-keys every cache and stale slot, so
      // both restart cold at the new size: correctness never depends on
      // their state, only traffic does.
      cache = CoherenceCache(step.ranks());
      stale = comm::StaleStore(step.ranks());
    }
    out.frames.push_back(std::move(fr));
  }

  out.ranks_lost = step.ranks_lost();
  out.makespan = step.scheduler().makespan();
  out.total_queue_wait = step.scheduler().total_queue_wait();
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
