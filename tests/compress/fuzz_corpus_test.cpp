// Malformed-input corpus for every wire deserializer.
//
// Each corpus entry is a *valid* encoding; a deterministic mutation
// driver (bit flips via the fault-injection engine, truncations,
// extensions, byte stomps, and pure-garbage buffers) then derives
// hostile variants. The contract under test: every decoder either
// succeeds or throws a typed wire::DecodeError — it never crashes,
// hangs, throws anything else, or (under ASan, see
// scripts/check_asan_corpus.sh) touches memory out of bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtc/color/render.hpp"
#include "rtc/comm/fault.hpp"
#include "rtc/comm/frame.hpp"
#include "rtc/comm/membership.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"
#include "rtc/image/tiling.hpp"
#include "testutil.hpp"

namespace rtc {
namespace {

/// Deterministic 64-bit LCG (Knuth MMIX constants) — keeps every
/// mutation reproducible from a single seed.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Applies mutation number `k` of a fixed schedule to `bytes`.
std::vector<std::byte> mutate(const std::vector<std::byte>& bytes, int k,
                              std::uint64_t seed) {
  Lcg rng(seed +
          static_cast<std::uint64_t>(k) *
              std::uint64_t{0x9e3779b97f4a7c15});
  std::vector<std::byte> out = bytes;
  const int family = k % 4;
  if (family == 0) {
    // Single bit flip through the PR-1 corruption injector.
    comm::FaultInjector::flip_bit(out, rng.next());
  } else if (family == 1) {
    // Truncate to a random prefix (possibly empty).
    out.resize(static_cast<std::size_t>(rng.below(out.size() + 1)));
  } else if (family == 2) {
    // Extend with garbage bytes.
    const std::size_t extra = 1 + static_cast<std::size_t>(rng.below(64));
    for (std::size_t i = 0; i < extra; ++i)
      out.push_back(static_cast<std::byte>(rng.below(256)));
  } else {
    // Stomp a random run of bytes (lengths and counts off the wire).
    if (!out.empty()) {
      const std::size_t at = static_cast<std::size_t>(rng.below(out.size()));
      const std::size_t n =
          std::min(out.size() - at, 1 + static_cast<std::size_t>(rng.below(9)));
      for (std::size_t i = 0; i < n; ++i)
        out[at + i] = static_cast<std::byte>(rng.below(256));
    }
  }
  return out;
}

/// Pure-garbage buffer of length `n`.
std::vector<std::byte> garbage(std::size_t n, std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

constexpr int kMutantsPerEntry = 64;

/// Runs `decode(mutant)` for every scheduled mutant plus garbage
/// buffers; passes iff each call returns normally or throws DecodeError.
template <typename Fn>
void expect_rejects_cleanly(const std::vector<std::byte>& valid,
                            std::uint64_t seed, Fn&& decode) {
  auto drive = [&](const std::vector<std::byte>& mutant, int k) {
    try {
      decode(mutant);
    } catch (const wire::DecodeError&) {
      // Typed rejection: exactly the contract.
    } catch (const std::exception& e) {
      FAIL() << "mutant " << k << " escaped as untyped exception: "
             << e.what();
    }
  };
  for (int k = 0; k < kMutantsPerEntry; ++k)
    drive(mutate(valid, k, seed), k);
  for (std::size_t n : {0u, 1u, 3u, 8u, 13u, 64u, 1024u})
    drive(garbage(n, seed ^ n), -static_cast<int>(n));
}

struct Geometry {
  int width;
  std::int64_t begin;
  std::int64_t len;
  double blank;
};

const Geometry kGrid[] = {
    {16, 0, 256, 0.5},  {17, 5, 1000, 0.5}, {64, 33, 7, 0.0},
    {16, 1, 255, 0.95}, {17, 0, 0, 0.5},    {64, 63, 129, 1.0},
};

TEST(FuzzCorpus, CodecDecodersRejectMutants) {
  std::uint64_t seed = 0x5eed0001;
  for (const char* name : {"raw", "rle", "trle", "bbox", "bbox2d"}) {
    const std::unique_ptr<compress::Codec> codec =
        compress::make_codec(name);
    for (const Geometry& g : kGrid) {
      const int height =
          static_cast<int>((g.begin + g.len + g.width - 1) / g.width) + 2;
      const img::Image parent = test::random_image(
          g.width, height, static_cast<std::uint32_t>(seed), g.blank);
      const img::PixelSpan span{g.begin, g.begin + g.len};
      const compress::BlockGeometry geom{g.width, g.begin};
      const std::vector<std::byte> valid =
          codec->encode(parent.view(span), geom);

      std::vector<img::GrayA8> out(static_cast<std::size_t>(g.len));
      expect_rejects_cleanly(valid, seed++, [&](const auto& m) {
        codec->decode(m, out, geom);
      });
      std::vector<img::GrayA8> dst(static_cast<std::size_t>(g.len),
                                   img::GrayA8{7, 200});
      std::vector<img::GrayA8> scratch;
      expect_rejects_cleanly(valid, seed++, [&](const auto& m) {
        codec->decode_blend(m, dst, geom, img::BlendMode::kOver,
                            /*src_front=*/false, scratch);
      });
    }
  }
}

TEST(FuzzCorpus, ColorTrleDecoderRejectsMutants) {
  const int w = 32, h = 8;
  std::vector<color::RgbA8> px(static_cast<std::size_t>(w) * h);
  Lcg rng(0xc0102);
  for (auto& p : px) {
    if (rng.below(2) == 0) {
      p = color::kBlank;
    } else {
      p.a = static_cast<std::uint8_t>(1 + rng.below(255));
      p.r = static_cast<std::uint8_t>(rng.below(p.a + 1u));
      p.g = static_cast<std::uint8_t>(rng.below(p.a + 1u));
      p.b = static_cast<std::uint8_t>(rng.below(p.a + 1u));
    }
  }
  const std::vector<std::byte> valid = color::trle_encode_color(px, w, 0);
  std::vector<color::RgbA8> out(px.size());
  expect_rejects_cleanly(valid, 0x5eed0100, [&](const auto& m) {
    color::trle_decode_color(m, out, w, 0);
  });
}

TEST(FuzzCorpus, RawPixelDeserializerRejectsMutants) {
  const img::Image im = test::random_image(16, 16, 11, 0.3);
  const std::vector<std::byte> valid = img::serialize_pixels(im.pixels());
  std::vector<img::GrayA8> out(
      static_cast<std::size_t>(im.pixel_count()));
  expect_rejects_cleanly(valid, 0x5eed0200, [&](const auto& m) {
    img::deserialize_pixels(m, out);
  });
}

TEST(FuzzCorpus, FragmentScatterRejectsMutants) {
  // A valid two-fragment gather payload against a 64x64 image tiled
  // into blocks; mutants may shift depth/index/length fields to
  // arbitrary values — all must be range-checked before any view().
  img::Image local = test::banded_image(64, 64, 5);
  const img::Tiling tiling(local.pixel_count(), 2);
  std::vector<std::byte> valid;
  {
    wire::WireWriter w(valid);
    w.u32(2);
    for (const auto& [depth, index] :
         {std::pair<int, std::int64_t>{1, 2},
          std::pair<int, std::int64_t>{2, 5}}) {
      const img::PixelSpan span = tiling.block(depth, index);
      const std::size_t at = w.reserve_u64();
      const std::size_t body = valid.size();
      w.u32(static_cast<std::uint32_t>(depth));
      w.u64(static_cast<std::uint64_t>(index));
      img::serialize_pixels_into(local.view(span), valid);
      w.patch_u64(at, static_cast<std::uint64_t>(valid.size() - body));
    }
  }
  img::Image out(64, 64);
  expect_rejects_cleanly(valid, 0x5eed0300, [&](const auto& m) {
    compositing::scatter_fragments_into(out, tiling, m);
  });
  expect_rejects_cleanly(valid, 0x5eed0301, [&](const auto& m) {
    if (m.size() >= 12) (void)compositing::unpack_fragment(m);
  });
}

TEST(FuzzCorpus, SpanScatterRejectsMutants) {
  // gather_spans payload: [i64 begin][i64 end][raw pixels]; hostile
  // bounds must be rejected before out.view(sp).
  img::Image local = test::banded_image(32, 32, 4);
  const img::PixelSpan span{100, 612};
  std::vector<std::byte> valid;
  {
    wire::WireWriter w(valid);
    w.i64(span.begin);
    w.i64(span.end);
    img::serialize_pixels_into(local.view(span), valid);
  }
  img::Image out(32, 32);
  expect_rejects_cleanly(valid, 0x5eed0400, [&](const auto& m) {
    compositing::scatter_span_into(out, m);
  });
}

TEST(FuzzCorpus, StaleSubstitutedPayloadsRejectCleanly) {
  // The deadline path splices receiver-side *stored* bytes into the
  // data stream in place of a late arrival — a new wire-visible
  // surface: whatever sits in the staleness store reaches the block
  // decoders as if it came off the wire. Pre-seed the store with
  // hostile mutants, force every arrival past the deadline, and check
  // the substituted payloads still honor the decoder contract
  // (success or typed DecodeError, never a crash).
  const img::Image im = test::banded_image(16, 16, 3);
  const compress::BlockGeometry geom{16, 0};
  const std::unique_ptr<compress::Codec> codec =
      compress::make_codec("trle");
  const std::vector<std::byte> valid = codec->encode(im.pixels(), geom);

  comm::StaleStore store(2);
  std::vector<std::vector<std::byte>> planted;
  for (int k = 0; k < kMutantsPerEntry; ++k)
    planted.push_back(mutate(valid, k, 0x5eed0800));
  for (std::size_t n : {0u, 1u, 3u, 8u, 13u, 64u, 1024u})
    planted.push_back(garbage(n, 0x5eed0801 ^ n));
  for (std::size_t k = 0; k < planted.size(); ++k)
    store.rank(0).put(comm::stale_key(1, static_cast<int>(k), 0),
                      planted[k]);

  comm::World world(2, comm::sp2_hps_model());
  world.set_deadline(0.001);
  world.set_stale(&store);
  comm::ResiliencePolicy rp;
  rp.on_peer_loss = comm::ResiliencePolicy::PeerLoss::kBlank;
  world.set_resilience(rp);
  comm::FaultPlan plan;
  plan.seed = 99;
  comm::FaultPlan::Jitter j;
  j.src = 1;
  j.dst = 0;
  j.mean = 10.0;  // every delivery lands past the deadline
  plan.jitters.push_back(j);
  world.set_fault_plan(plan);

  const int n = static_cast<int>(planted.size());
  world.run([&](comm::Comm& c) {
    if (c.rank() == 1) {
      for (int k = 0; k < n; ++k) c.send(0, k, valid);
      return;
    }
    std::vector<img::GrayA8> out(
        static_cast<std::size_t>(im.pixel_count()));
    for (int k = 0; k < n; ++k) {
      const std::vector<std::byte> got = c.recv(1, k);
      ASSERT_TRUE(c.last_recv_stale()) << "tag " << k;
      ASSERT_EQ(got, planted[static_cast<std::size_t>(k)]);
      try {
        codec->decode(got, out, geom);
      } catch (const wire::DecodeError&) {
        // Typed rejection: exactly the contract.
      } catch (const std::exception& e) {
        FAIL() << "stale mutant " << k
               << " escaped as untyped exception: " << e.what();
      }
    }
  });
}

TEST(FuzzCorpus, FrameDecoderNeverThrows) {
  // decode_frame sits below the retransmit protocol: it reports
  // damage through its status, never via exceptions.
  const std::vector<std::byte> payload = garbage(256, 0x1234);
  const std::vector<std::byte> valid = comm::encode_frame(7, payload);
  for (int k = 0; k < kMutantsPerEntry; ++k) {
    const std::vector<std::byte> m = mutate(valid, k, 0x5eed0500);
    EXPECT_NO_THROW({
      const comm::DecodedFrame d = comm::decode_frame(m);
      (void)d;
    });
  }
  for (std::size_t n : {0u, 1u, 19u, 20u, 21u, 64u})
    EXPECT_NO_THROW((void)comm::decode_frame(garbage(n, n)));
}

TEST(FuzzCorpus, MembershipFloodDecoderRejectsMutants) {
  // The failure-detector flood rides the reliable control plane, but
  // its payload is still attacker-shaped bytes to the decoder:
  // truncated headers, oversized world sizes, short or trailing mask
  // bytes, and set padding bits must all reject with DecodeError.
  std::vector<std::uint8_t> dead(11, 0);
  dead[3] = 1;
  dead[10] = 1;
  const std::vector<std::byte> valid = comm::encode_membership(5, dead);
  expect_rejects_cleanly(valid, 0x5eed0700, [&](const auto& m) {
    (void)comm::decode_membership(m);
  });
}

TEST(FuzzCorpus, CoherentBlockMarkersRejectMutants) {
  // Coherent-format blocks carry a one-byte marker ahead of the body
  // (0 = payload follows, 1 = clean blank, nothing else). Mutants that
  // stomp the marker, orphan it, or graft garbage after a clean-blank
  // must throw DecodeError through the full framing path the receivers
  // take (length prefix, then decode_block) — which needs a live Comm
  // for the decode charge, so drive it inside a one-rank world.
  const img::Image im = test::banded_image(16, 16, 3);
  const compress::BlockGeometry geom{16, 0};
  const std::unique_ptr<compress::Codec> codec =
      compress::make_codec("trle");

  // Two valid coherent entries: a real body and a clean-blank marker.
  std::vector<std::vector<std::byte>> entries;
  {
    std::vector<std::byte> body_entry;
    wire::WireWriter w(body_entry);
    const std::size_t at = w.reserve_u64();
    const std::size_t body = body_entry.size();
    body_entry.push_back(std::byte{0});  // kMarkerBody
    codec->encode_into(im.pixels(), geom, body_entry);
    w.patch_u64(at, static_cast<std::uint64_t>(body_entry.size() - body));
    entries.push_back(std::move(body_entry));

    std::vector<std::byte> blank_entry;
    wire::WireWriter bw(blank_entry);
    const std::size_t bat = bw.reserve_u64();
    blank_entry.push_back(std::byte{1});  // kMarkerCleanBlank
    bw.patch_u64(bat, 1);
    entries.push_back(std::move(blank_entry));
  }

  comm::World world(1, comm::NetworkModel{});
  world.run([&](comm::Comm& c) {
    std::vector<img::GrayA8> out(
        static_cast<std::size_t>(im.pixel_count()));
    std::uint64_t seed = 0x5eed0710;
    for (const std::vector<std::byte>& valid : entries) {
      expect_rejects_cleanly(valid, seed++, [&](const auto& m) {
        wire::WireReader r(m);
        compositing::decode_block(c, /*tag=*/0,
                                  r.length_prefixed("length-prefixed block"),
                                  out, geom, codec.get(), /*coherent=*/true);
      });
    }
  });
}

TEST(FuzzCorpus, AggregatedBlockFramingRejectsMutants) {
  // The receivers' framing layer: [u64 len][body] repeated. Drive the
  // reader directly (the comm charge needs no World here).
  const img::Image im = test::banded_image(16, 16, 3);
  const compress::BlockGeometry geom{16, 0};
  const std::unique_ptr<compress::Codec> codec =
      compress::make_codec("trle");
  std::vector<std::byte> valid;
  {
    wire::WireWriter w(valid);
    const std::size_t at = w.reserve_u64();
    const std::size_t body = valid.size();
    codec->encode_into(im.pixels(), geom, valid);
    w.patch_u64(at, static_cast<std::uint64_t>(valid.size() - body));
  }
  std::vector<img::GrayA8> out(
      static_cast<std::size_t>(im.pixel_count()));
  expect_rejects_cleanly(valid, 0x5eed0600, [&](const auto& m) {
    wire::WireReader r(m);
    codec->decode(r.length_prefixed("aggregated block"), out, geom);
    r.finish("aggregated message");
  });
}

}  // namespace
}  // namespace rtc
