// The wire helpers: fragments, aggregated blocks, span gather, the one
// receive rule every compositor shares, and the traffic bookkeeping
// they produce.
#include "rtc/compositing/wire.hpp"

#include <gtest/gtest.h>

#include "rtc/comm/stale.hpp"
#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"
#include "testutil.hpp"

namespace rtc::compositing {
namespace {

TEST(Wire, FragmentRoundTrip) {
  // A gather fragment as gather_fragments packs it:
  // [u32 depth][u64 index][raw pixels].
  const img::Image im = test::random_image(8, 4, 9);
  std::vector<std::byte> bytes;
  wire::WireWriter w(bytes);
  w.u32(3);
  w.u64(17);
  img::serialize_pixels_into(im.pixels(), bytes);
  const Fragment f = unpack_fragment(bytes);
  EXPECT_EQ(f.depth, 3);
  EXPECT_EQ(f.index, 17);
  ASSERT_EQ(f.pixels.size(), static_cast<std::size_t>(im.pixel_count()));
  for (std::int64_t i = 0; i < im.pixel_count(); ++i)
    EXPECT_EQ(f.pixels[static_cast<std::size_t>(i)],
              im.pixels()[static_cast<std::size_t>(i)]);
}

TEST(Wire, TruncatedFragmentThrows) {
  std::vector<std::byte> tiny(5);
  EXPECT_THROW((void)unpack_fragment(tiny), ContractError);
}

TEST(Wire, AppendedBlocksFrameAndDecodeThroughCodec) {
  const img::Image im = test::banded_image(16, 8, 2);
  const auto codec = compress::make_trle_codec();
  const compress::BlockGeometry geom{16, 0};

  comm::World world(2, comm::NetworkModel{});
  world.run([&](comm::Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> payload;
      append_block(c, /*tag=*/0, payload, im.pixels(), geom, codec.get());
      append_block(c, /*tag=*/0, payload, im.pixels(), geom, nullptr);
      c.send(1, 0, std::move(payload));
    } else {
      const std::vector<std::byte> payload = c.recv(0, 0);
      wire::WireReader rest(payload);
      std::vector<img::GrayA8> a(
          static_cast<std::size_t>(im.pixel_count()));
      std::vector<img::GrayA8> b(a.size());
      decode_block(c, /*tag=*/0, rest.length_prefixed("block"), a, geom,
                   codec.get());
      decode_block(c, /*tag=*/0, rest.length_prefixed("block"), b, geom,
                   nullptr);
      EXPECT_TRUE(rest.empty());
      for (std::int64_t i = 0; i < im.pixel_count(); ++i) {
        EXPECT_EQ(a[static_cast<std::size_t>(i)],
                  im.pixels()[static_cast<std::size_t>(i)]);
        EXPECT_EQ(b[static_cast<std::size_t>(i)],
                  im.pixels()[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(Wire, GatherSpansAssemblesDisjointPieces) {
  const int p = 4, w = 8, h = 4;
  comm::World world(p, comm::NetworkModel{});
  std::vector<img::Image> results(static_cast<std::size_t>(p));
  world.run([&](comm::Comm& c) {
    const std::int64_t n = std::int64_t{w} * h;
    const img::PixelSpan mine{c.rank() * n / p,
                              (c.rank() + 1) * n / p};
    // Each rank holds only its own piece.
    const std::vector<img::GrayA8> piece(
        static_cast<std::size_t>(mine.size()),
        img::GrayA8{static_cast<std::uint8_t>(c.rank() + 1), 255});
    results[static_cast<std::size_t>(c.rank())] =
        gather_spans(c, mine, piece, /*root=*/2, w, h);
  });
  for (int r = 0; r < p; ++r) {
    if (r != 2) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)].pixel_count(), 0);
      continue;
    }
    const img::Image& got = results[2];
    for (std::int64_t i = 0; i < got.pixel_count(); ++i) {
      const auto owner = static_cast<std::uint8_t>(i * p / got.pixel_count() + 1);
      EXPECT_EQ(got.pixels()[static_cast<std::size_t>(i)].v, owner);
    }
  }
}

TEST(Wire, PooledBuffersRecycleInSteadyState) {
  // Symmetric block exchange must converge to zero allocations per
  // round: after a warm-up round the pool serves every acquire (the
  // frame on send, the payload copy on recv, the encode buffer).
  const img::Image im = test::banded_image(16, 8, 4);
  const auto codec = compress::make_trle_codec();
  const compress::BlockGeometry geom{16, 0};
  constexpr int kRounds = 8;

  comm::World world(2, comm::NetworkModel{});
  std::size_t hits[2] = {0, 0};
  std::size_t misses[2] = {0, 0};
  world.run([&](comm::Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<img::GrayA8> out(
        static_cast<std::size_t>(im.pixel_count()));
    const CarriedBlock carried[] = {{0, im.pixel_count()}};
    for (int round = 0; round < kRounds; ++round) {
      send_block(c, peer, round, im.pixels(), geom, codec.get());
      recv_blocks(c, peer, round, comm::ResiliencePolicy{}, carried,
                  [&](std::span<const std::byte> bytes, std::size_t&) {
                    decode_block(c, round, bytes, out, geom, codec.get());
                  });
    }
    hits[c.rank()] = c.pool().hits();
    misses[c.rank()] = c.pool().misses();
  });
  for (int r = 0; r < 2; ++r) {
    // Warm-up can miss; steady-state rounds must all hit. Each round
    // performs three acquires per rank, so demand at least the last
    // kRounds - 2 rounds' worth of hits.
    EXPECT_GE(hits[r], static_cast<std::size_t>(3 * (kRounds - 2)))
        << "rank " << r;
    EXPECT_LE(misses[r], static_cast<std::size_t>(3 * 2)) << "rank " << r;
  }
}

TEST(Wire, OneReceiveRuleAtEverySite) {
  // recv_blocks decides what a substituted payload does to the blocks
  // it carries, for every compositor: a block decoded from it counts
  // stale, and a block whose bytes fail validation counts as a loss and
  // never as stale. Frame 0 fills the staleness store with TRLE
  // payloads. Frames 1 and 2 run with every message past the deadline,
  // so every receive substitutes frame 0's bytes: frame 1 decodes them
  // as TRLE, frame 2 as raw, which rejects them.
  struct Site {
    const char* method;
    int blocks;
    bool aggregate;
  };
  const Site sites[] = {{"rt_n", 3, false},  {"rt_n", 3, true},
                        {"radix", 4, false}, {"pp", 1, false},
                        {"pp_exact", 1, false}};
  const int p = 4;
  std::vector<img::Image> partials;
  for (int r = 0; r < p; ++r)
    partials.push_back(
        test::banded_image(24, 16, 30u + static_cast<std::uint32_t>(r)));
  for (const Site& site : sites) {
    SCOPED_TRACE(std::string(site.method) +
                 (site.aggregate ? " aggregated" : ""));
    comm::StaleStore store(p);
    harness::CompositionConfig cfg;
    cfg.method = site.method;
    cfg.initial_blocks = site.blocks;
    cfg.aggregate_messages = site.aggregate;
    cfg.codec = "trle";
    cfg.resilience.on_peer_loss = comm::ResiliencePolicy::PeerLoss::kBlank;
    cfg.stale = &store;
    cfg.deadline = 1e9;  // nothing is late; every payload is stored
    const harness::CompositionRun fill =
        harness::run_composition(cfg, partials);
    ASSERT_EQ(fill.stats.total_deadline_misses(), 0);

    cfg.deadline = 1e-4;
    cfg.fault.seed = 7;
    for (int src = 0; src < p; ++src)
      for (int dst = 0; dst < p; ++dst)
        if (src != dst) cfg.fault.jitters.push_back({src, dst, 10.0});
    const harness::CompositionRun decoded =
        harness::run_composition(cfg, partials);
    EXPECT_GT(decoded.stats.total_stale_tiles(), 0);
    EXPECT_TRUE(decoded.stats.all_lost_blocks().empty());
    EXPECT_EQ(decoded.stats.total(&comm::RankCounters::lost_pixels), 0);

    cfg.codec = "raw";
    const harness::CompositionRun rejected =
        harness::run_composition(cfg, partials);
    EXPECT_EQ(rejected.stats.total_deadline_misses(),
              decoded.stats.total_deadline_misses());
    EXPECT_EQ(rejected.stats.total_stale_tiles(), 0);
    EXPECT_EQ(static_cast<std::int64_t>(
                  rejected.stats.all_lost_blocks().size()),
              decoded.stats.total_stale_tiles());
    EXPECT_EQ(rejected.stats.total(&comm::RankCounters::lost_pixels),
              decoded.stats.total_stale_pixels());
  }
}

TEST(Stats, MarkEndTracksLatestCheckpoint) {
  comm::World world(2, comm::NetworkModel{});
  const comm::RunResult r = world.run([](comm::Comm& c) {
    c.compute(c.rank() == 0 ? 1.0 : 2.0);
    c.mark(7);
  });
  EXPECT_DOUBLE_EQ(r.stats.mark_end(7), 2.0);
  EXPECT_DOUBLE_EQ(r.stats.mark_end(8), -1.0);
}

TEST(NetworkModel, Arithmetic) {
  comm::NetworkModel m;
  m.ts = 2.0;
  m.tp_byte = 0.5;
  m.to_pixel = 0.25;
  EXPECT_DOUBLE_EQ(m.wire_time(10), 5.0);
  EXPECT_DOUBLE_EQ(m.message_time(10), 7.0);
  EXPECT_DOUBLE_EQ(m.over_time(8), 2.0);
}

}  // namespace
}  // namespace rtc::compositing
