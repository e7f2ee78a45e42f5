// Walkthrough of the TRLE encoding (Section 3 / Figures 3-4): encodes
// a tiny image by hand, prints every TRLE code with its template, and
// compares RLE vs TRLE sizes on a real rendered partial image.
#include <iostream>

#include "example_args.hpp"
#include "rtc/compress/codec.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/image/serialize.hpp"

namespace {

using namespace rtc;

void print_codes(const std::vector<std::byte>& stream) {
  std::uint32_t n = 0;
  for (int s = 0; s < 4; ++s)
    n |= static_cast<std::uint32_t>(stream[static_cast<std::size_t>(s)])
         << (8 * s);
  std::cout << "  " << n << " TRLE code byte(s):\n";
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto code = static_cast<std::uint8_t>(stream[4 + i]);
    const int run = (code >> 4) + 1;
    const int tmpl = code & 0x0f;
    std::cout << "    code 0x" << std::hex << int{code} << std::dec
              << ": template " << tmpl << " [";
    for (int b = 0; b < 4; ++b) std::cout << ((tmpl >> b) & 1);
    std::cout << "] x" << run << " cells\n";
  }
}

int run(int /*argc*/, char** /*argv*/) {
  // --- The Figure 4 idea on a toy image ------------------------------
  // Two scanlines, 24 pixels each; all-solid except two notches, gray
  // values all different (the case where classic RLE fails).
  img::Image ex(24, 2);
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 24; ++x)
      if (!((x >= 6 && x < 8) || (x >= 14 && x < 16)))
        ex.at(x, y) =
            img::GrayA8{static_cast<std::uint8_t>(40 + 8 * x + y), 255};

  const auto trle = compress::make_trle_codec();
  const auto rle = compress::make_rle_codec();
  const compress::BlockGeometry geom{24, 0};
  const auto trle_bytes = trle->encode(ex.pixels(), geom);
  const auto rle_bytes = rle->encode(ex.pixels(), geom);

  std::cout << "toy image: 2 scanlines x 24 pixels, 40 solid pixels of "
               "distinct gray\n";
  print_codes(trle_bytes);
  std::cout << "  sizes: raw "
            << img::serialize_pixels(ex.pixels()).size() << " B, RLE "
            << rle_bytes.size() << " B, TRLE " << trle_bytes.size()
            << " B (codes + non-blank payload)\n\n";

  // --- The same comparison on a real partial image -------------------
  const harness::Scene scene =
      harness::make_scene("head", /*volume_n=*/64, /*image_size=*/256);
  const std::vector<img::Image> partials = harness::render_partials(
      scene, /*ranks=*/4, harness::PartitionKind::kSlab1D);
  const img::Image& partial = partials[1];
  const compress::BlockGeometry pgeom{partial.width(), 0};
  const std::size_t raw = img::serialize_pixels(partial.pixels()).size();
  const std::size_t r = rle->encode(partial.pixels(), pgeom).size();
  const std::size_t t = trle->encode(partial.pixels(), pgeom).size();
  std::cout << "rendered 'head' partial image (256x256):\n"
            << "  raw  " << raw << " B\n"
            << "  RLE  " << r << " B  (" << (raw + r - 1) / r << "x)\n"
            << "  TRLE " << t << " B  (" << (raw + t - 1) / t << "x)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
