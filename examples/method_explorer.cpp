// Interactive-ish exploration of the composition design space: sweep
// methods x block counts x codecs over one rendered scene and print a
// ranked table. Good for answering "what should I use on MY cluster?"
// — pass your own Ts/Tp/To.
//
//   ./method_explorer [dataset] [ranks] [Ts] [Tp_byte] [To_pixel]
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rtc;
  const std::string dataset = argc > 1 ? argv[1] : "engine";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 16);
  comm::NetworkModel net = comm::sp2_hps_model();
  net.ts = examples::arg_double(argc, argv, 3, "Ts", net.ts);
  net.tp_byte = examples::arg_double(argc, argv, 4, "Tp_byte", net.tp_byte);
  net.to_pixel =
      examples::arg_double(argc, argv, 5, "To_pixel", net.to_pixel);

  const harness::Scene scene =
      harness::make_scene(dataset, /*volume_n=*/64, /*image_size=*/256);
  const std::vector<img::Image> partials = harness::render_partials(
      scene, ranks, harness::PartitionKind::kSlab1D);

  struct Entry {
    std::string method, codec;
    int blocks;
    double time;
    std::int64_t bytes;
  };
  std::vector<Entry> entries;

  auto try_config = [&](const std::string& method, int blocks,
                        const std::string& codec) {
    harness::CompositionConfig cfg;
    cfg.method = method;
    cfg.initial_blocks = blocks;
    cfg.codec = codec;
    cfg.net = net;
    const harness::CompositionRun run =
        harness::run_composition(cfg, partials);
    entries.push_back(
        {method, codec.empty() ? "none" : codec, blocks, run.time,
         run.stats.total_bytes_sent()});
  };

  const bool pow2 = (ranks & (ranks - 1)) == 0;
  for (const std::string codec : {"", "rle", "trle", "bbox"}) {
    if (pow2) try_config("bswap", 1, codec);
    try_config("pp", ranks, codec);
    for (int n = 1; n <= 6; ++n) {
      if (ranks % 2 == 0) try_config("rt_n", n, codec);
      if (n % 2 == 0) try_config("rt_2n", n, codec);
    }
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });

  std::cout << "dataset=" << dataset << " ranks=" << ranks
            << " Ts=" << net.ts << " Tp=" << net.tp_byte
            << " To=" << net.to_pixel << "\n\n";
  harness::Table t({"rank", "method", "blocks", "codec", "time [s]",
                    "wire MB"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    t.add_row({std::to_string(i + 1), e.method,
               std::to_string(e.blocks), e.codec,
               harness::Table::num(e.time, 5),
               harness::Table::num(static_cast<double>(e.bytes) / 1e6, 2)});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rtc::examples::run_example(run, argc, argv);
}
