#include "rtc/harness/experiment.hpp"

#include "rtc/common/check.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/compositing/compositor.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/frames/tile_sink.hpp"

namespace rtc::harness {

CompositionRun run_composition(const CompositionConfig& config,
                               const std::vector<img::Image>& partials) {
  RTC_CHECK_MSG(!partials.empty(), "need at least one partial image");
  const int p = static_cast<int>(partials.size());

  const std::unique_ptr<compositing::Compositor> method =
      compositing::make_compositor(config.method);
  std::unique_ptr<compress::Codec> codec;
  if (!config.codec.empty() && config.codec != "raw")
    codec = compress::make_codec(config.codec);

  // Quality ladder: enforce the error contract before anything runs —
  // a rung whose a-priori bound exceeds max_error falls back toward
  // exact. Stale/blank rungs never reach this driver (they skip
  // composition entirely in the frames/service layers).
  RTC_CHECK_MSG(config.quality_rung <= quality::Rung::kProgressive,
                "run_composition executes exact/approx/progressive only; "
                "stale and blank are frame/service-level rungs");
  if (config.quality_rung == quality::Rung::kApprox ||
      config.quality.max_rung >= quality::Rung::kApprox) {
    RTC_CHECK_MSG(
        config.quality.saturation >= 128 && config.quality.saturation <= 255,
        "approx saturation must be in [128, 255] for the error bound");
  }
  const quality::RungChoice choice =
      quality::enforce_contract(config.quality_rung, config.quality, partials);

  compositing::Options opt;
  opt.initial_blocks = config.initial_blocks;
  opt.codec = codec.get();
  opt.gather = config.gather;
  opt.root = 0;
  opt.aggregate_messages = config.aggregate_messages;
  opt.blend = config.blend;
  opt.resilience = config.resilience;
  opt.coherence = config.coherence;
  opt.sink = config.sink;
  opt.frame_id = config.frame_id < 0 ? 0 : config.frame_id;
  opt.group_size = config.group_size;
  opt.hier_intra = config.hier_intra;
  opt.hier_inter = config.hier_inter;
  if (choice.rung == quality::Rung::kApprox)
    opt.approx_saturation = config.quality.saturation;

  // Progressive rung: box-downsampled partials for the coarse pass.
  // Host-side prep, modeled as the renderer handing over a mip level.
  std::vector<img::Image> coarse;
  const int coarse_factor = config.quality.coarse_factor;
  if (choice.rung == quality::Rung::kProgressive) {
    coarse.reserve(static_cast<std::size_t>(p));
    for (const img::Image& part : partials)
      coarse.push_back(img::downsample(part, coarse_factor));
  }

  comm::World world(p, config.net);
  world.set_executor(config.executor);
  world.set_trace(
      {config.record_spans, config.trace_capacity, config.frame_id});
  world.set_seq_epoch(config.seq_epoch);
  world.set_fault_plan(config.fault);
  world.set_resilience(config.resilience);
  if (config.deadline > 0.0) {
    RTC_CHECK_MSG(config.resilience.degrade_on_loss(),
                  "a frame deadline requires a degrading peer-loss policy "
                  "(kBlank or kRecompose)");
    world.set_deadline(config.deadline);
  }
  world.set_stale(config.stale);
  std::vector<img::Image> results(static_cast<std::size_t>(p));
  // Progressive bookkeeping, written only by the rank that holds the
  // gathered image (the root) or per-rank — race-free either way.
  double first_light = 0.0;
  std::vector<char> refine_flags(static_cast<std::size_t>(p), 1);
  const int full_w = partials[0].width();
  const int full_h = partials[0].height();
  const comm::RunResult rr = world.run([&](comm::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    if (choice.rung != quality::Rung::kExact && comm.rank() == 0) {
      comm.note_span(obs::SpanKind::kDegrade,
                     static_cast<int>(choice.rung), 0, choice.bound);
    }
    if (choice.rung != quality::Rung::kProgressive) {
      results[r] = method->run(comm, partials[r], opt);
      return;
    }
    // Progressive: coarse collective first. The coarse pass delivers
    // the whole upsampled frame at the root (first light), then a
    // barrier syncs every clock to the global max so all ranks make
    // the same refine-or-stop decision deterministically.
    compositing::Options copt = opt;
    copt.sink = nullptr;  // first light is delivered whole, below
    img::Image c = method->run(comm, coarse[r], copt);
    img::Image up;
    if (c.pixel_count() > 0) {
      up = img::upsample(c, coarse_factor, full_w, full_h);
      if (opt.sink != nullptr) {
        opt.sink->deliver_tile(opt.frame_id,
                               img::PixelSpan{0, up.pixel_count()},
                               up.pixels());
      }
      first_light = comm.now();
    }
    comm.barrier();
    const bool refine =
        config.deadline <= 0.0 || comm.now() < config.deadline;
    refine_flags[r] = refine ? 1 : 0;
    if (refine) {
      results[r] = method->run(comm, partials[r], opt);
    } else if (up.pixel_count() > 0) {
      results[r] = std::move(up);
    }
  });

  CompositionRun out;
  out.stats = rr.stats;
  out.time = rr.makespan();
  // Under kRecompose the survivors renumber themselves, so the gather
  // root (virtual rank 0) is the lowest *surviving* physical rank — if
  // rank 0 crashed, that's where the image landed.
  std::size_t root = 0;
  if (config.resilience.on_peer_loss ==
      comm::ResiliencePolicy::PeerLoss::kRecompose) {
    while (root + 1 < results.size() &&
           rr.stats.ranks[root].crashed)
      ++root;
  }
  out.image = std::move(results[root]);
  out.delivery_time = rr.stats.ranks[root].clock;
  out.first_light = first_light;
  out.stats.quality_rung = static_cast<int>(choice.rung);
  out.stats.error_bound = choice.bound;
  if (choice.rung == quality::Rung::kProgressive) {
    // The barrier synced every clock, so all ranks agreed; the root's
    // flag is the run's.
    out.refined = refine_flags[root] != 0;
    if (!out.refined) out.stats.coarse_pixels = out.image.pixel_count();
  }
  out.degraded = out.stats.degraded();
  out.lost_pixels = out.stats.total_lost_pixels();
  if (config.gather && out.image.pixel_count() > 0 &&
      (out.stats.total_stale_pixels() > 0 ||
       out.stats.total_deadline_misses() > 0 ||
       choice.rung != quality::Rung::kExact)) {
    // Unified measured-error accounting: staleness and the quality
    // rungs all compare the delivered output against the exact
    // composite of every surviving rank's partial.
    // Front-to-back in rank order, matching the compositors' fold.
    img::Image ref(out.image.width(), out.image.height());
    const img::PixelSpan full{0, ref.pixel_count()};
    for (int r = 0; r < p; ++r) {
      if (out.stats.ranks[static_cast<std::size_t>(r)].crashed) continue;
      // Root-side whole-image fold: tile-parallel (byte-identical to
      // the sequential blend at any blend_threads() count).
      img::blend_in_place_tiled(
          ref.view(full), partials[static_cast<std::size_t>(r)].view(full),
          config.blend, /*src_front=*/false);
    }
    out.stats.max_pixel_error = img::max_channel_diff(out.image, ref);
  }
  return out;
}

std::string fault_summary(const comm::RunStats& stats) {
  std::string s = "retx=" + std::to_string(stats.total_retransmits()) +
                  " crc=" + std::to_string(stats.total_crc_failures()) +
                  " drops=" + std::to_string(stats.total_drops_detected()) +
                  " dups=" +
                  std::to_string(stats.total_duplicates_discarded());
  // Fail-slow tokens ride the same only-when-nonzero rule as the
  // recovery-layer ones below.
  if (stats.total_delays_injected() > 0)
    s += " delays=" + std::to_string(stats.total_delays_injected());
  if (stats.total_jitter_delays() > 0)
    s += " jitter=" + std::to_string(stats.total_jitter_delays());
  s += " lost_msgs=" + std::to_string(stats.total_lost_messages()) +
       " lost_px=" + std::to_string(stats.total_lost_pixels()) +
       " dead=[";
  const std::vector<int> dead = stats.dead_ranks();
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(dead[i]);
  }
  s += "]";
  // Recovery-layer counters only appear when the layer actually fired,
  // so zero-fault summaries stay byte-identical to the legacy format.
  if (stats.max_membership_epoch() > 0 || stats.total_recomposes() > 0)
    s += " epoch=" + std::to_string(stats.max_membership_epoch()) +
         " recomposed=" + std::to_string(stats.total_recomposes());
  if (stats.total_relayed_messages() > 0 || stats.total_breaker_trips() > 0)
    s += " relayed=" + std::to_string(stats.total_relayed_messages()) +
         " trips=" + std::to_string(stats.total_breaker_trips());
  if (stats.total_stragglers_flagged() > 0 ||
      stats.total_hedged_sends() > 0)
    s += " stragglers=" + std::to_string(stats.total_stragglers_flagged()) +
         " hedged=" + std::to_string(stats.total_hedged_sends()) +
         " wins=" + std::to_string(stats.total_hedge_wins());
  if (stats.total_deadline_misses() > 0 || stats.total_stale_tiles() > 0)
    s += " deadline_miss=" + std::to_string(stats.total_deadline_misses()) +
         " stale=" + std::to_string(stats.total_stale_tiles()) +
         " stale_px=" + std::to_string(stats.total_stale_pixels()) +
         " max_px_err=" + std::to_string(stats.max_pixel_error);
  // Quality-ladder group: only when a rung below exact executed, so
  // exact runs keep the legacy format byte-for-byte.
  if (stats.quality_rung != 0) {
    s += " quality=" +
         std::string(quality::rung_name(
             static_cast<quality::Rung>(stats.quality_rung))) +
         " bound=" + std::to_string(stats.error_bound) +
         " err=" + std::to_string(stats.max_pixel_error);
    if (stats.total_approx_skipped_pixels() > 0)
      s += " approx_px=" +
           std::to_string(stats.total_approx_skipped_pixels());
    if (stats.coarse_pixels > 0)
      s += " coarse_px=" + std::to_string(stats.coarse_pixels);
  }
  s += stats.degraded() ? " degraded" : " ok";
  return s;
}

}  // namespace rtc::harness
