// The wire helpers: fragments, aggregated blocks, span gather, and the
// traffic bookkeeping they produce.
#include "rtc/compositing/wire.hpp"

#include <gtest/gtest.h>

#include "rtc/common/check.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::compositing {
namespace {

TEST(Wire, FragmentRoundTrip) {
  const img::Image im = test::random_image(8, 4, 9);
  const std::vector<std::byte> bytes =
      pack_fragment(3, 17, im.pixels());
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

TEST(Wire, AppendTakeBlocksThroughCodec) {
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
      std::span<const std::byte> rest(payload);
      std::vector<img::GrayA8> a(
          static_cast<std::size_t>(im.pixel_count()));
      std::vector<img::GrayA8> b(a.size());
      take_block(c, /*tag=*/0, rest, a, geom, codec.get());
      take_block(c, /*tag=*/0, rest, b, geom, nullptr);
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
    for (int round = 0; round < kRounds; ++round) {
      send_block(c, peer, round, im.pixels(), geom, codec.get());
      recv_block(c, peer, round, out, geom, codec.get());
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
