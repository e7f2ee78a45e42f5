// Randomized conformance sweep: many random (method, P, N, codec,
// blend, image shape, content) configurations, every one checked
// against the sequential reference. Seeds are fixed, so failures are
// reproducible; the assertion message prints the full configuration.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "rtc/core/schedule.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::compositing {
namespace {

struct Config {
  std::string method;
  int ranks;
  int blocks;
  std::string codec;
  img::BlendMode blend;
  int w, h;
  double blank;
  bool binary;
  bool aggregate;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << method << " P=" << ranks << " N=" << blocks << " codec="
       << (codec.empty() ? "raw" : codec)
       << " blend=" << (blend == img::BlendMode::kMax ? "max" : "over")
       << " img=" << w << "x" << h << " blank=" << blank
       << " binary=" << binary << " agg=" << aggregate;
    return os.str();
  }
};

Config random_config(std::mt19937& rng) {
  auto pick = [&](std::initializer_list<const char*> xs) {
    return std::string(*(xs.begin() + rng() % xs.size()));
  };
  Config c;
  c.method = pick({"bswap_any", "pp_exact", "direct", "radix", "rt",
                   "rt_2n"});
  c.ranks = static_cast<int>(1 + rng() % 14);
  c.blocks = static_cast<int>(1 + rng() % 6);
  if (c.method == "rt_2n" && c.blocks % 2 == 1) ++c.blocks;
  if (c.method == "radix") c.blocks = std::max(2, c.blocks);
  c.codec = pick({"", "rle", "trle", "bbox", "bbox2d"});
  c.blend = (rng() % 4 == 0) ? img::BlendMode::kMax
                             : img::BlendMode::kOver;
  c.w = static_cast<int>(9 + rng() % 40);
  c.h = static_cast<int>(5 + rng() % 20);
  c.blank = 0.1 * static_cast<double>(rng() % 10);
  c.binary = c.blend != img::BlendMode::kMax;  // exactness lever
  c.aggregate = (rng() % 3 == 0) && core::is_schedule_method(c.method);
  return c;
}

TEST(ConformanceFuzz, TwoHundredRandomConfigs) {
  std::mt19937 rng(20260706);
  for (int trial = 0; trial < 200; ++trial) {
    const Config c = random_config(rng);

    std::vector<img::Image> partials;
    for (int r = 0; r < c.ranks; ++r)
      partials.push_back(test::random_image(
          c.w, c.h, static_cast<std::uint32_t>(rng()), c.blank,
          c.binary));

    harness::CompositionConfig cfg;
    cfg.method = c.method;
    cfg.initial_blocks = c.blocks;
    cfg.codec = c.codec;
    cfg.blend = c.blend;
    cfg.aggregate_messages = c.aggregate;
    cfg.gather = true;

    const img::Image got = harness::run_composition(cfg, partials).image;
    const img::Image ref = img::composite_reference(partials, c.blend);
    // Binary alpha (over) and max are both exactly associative.
    EXPECT_EQ(img::max_channel_diff(got, ref), 0)
        << "trial " << trial << ": " << c.describe();
  }
}

}  // namespace
}  // namespace rtc::compositing
