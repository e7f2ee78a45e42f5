// Scalability extension (beyond the paper's fixed P=32): composition
// time vs processor count for every method, same dataset and network.
// The crossovers this sweeps out are the paper's motivation — PP's
// (P-1)*Ts startup blowing up, BS's power-of-two restriction, RT
// tracking the best of both.
//
// Three sections:
//   1. power-of-two P up to 64 on rendered partials (all methods),
//   2. arbitrary P on rendered partials (bswap_any fold workaround),
//   3. the large-P trajectory: P in {64, 256, 1024} on synthetic
//      partials (rendering 1024 slabs would dwarf the composition
//      being measured), comparing direct / bswap_any / rt against the
//      two-level "hier" schedule. This section is the golden-gated one:
//      --json writes its virtual times (scaling_p1024.json in
//      bench/golden/), and it only runs under the pooled executor —
//      P=1024 kernel threads is exactly what the fiber pool replaces.
#include "bench_common.hpp"

namespace {

using namespace rtc;

/// Deterministic synthetic partial: a per-rank opaque band plus an
/// LCG-speckled body. Content never affects raw-codec virtual times
/// (the model charges per pixel moved, not per pixel value); it only
/// keeps the images honest for anyone dumping them.
img::Image synthetic_partial(int size, int rank) {
  img::Image im(size, size);
  std::uint64_t s = 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(rank) *
                        std::uint64_t{0xbf58476d1ce4e5b9};
  auto next = [&s]() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(s >> 33);
  };
  for (img::GrayA8& px : im.pixels()) {
    const std::uint32_t r = next();
    if ((r & 7u) == 0u) {  // ~1/8 coverage: sparse, like a thin slab
      px.a = static_cast<std::uint8_t>(64 + ((r >> 8) & 0x7fu));
      px.v = static_cast<std::uint8_t>((r >> 16) % (px.a + 1u));
    }
  }
  return im;
}

double timed_at_scale(const bench::BenchOptions& o, const std::string& m,
                      int blocks, int group_size,
                      const std::vector<img::Image>& partials) {
  harness::CompositionConfig cfg;
  cfg.method = m;
  cfg.initial_blocks = blocks;
  cfg.net = o.net;
  cfg.executor = o.executor;
  cfg.group_size = group_size;
  cfg.gather = false;
  return harness::run_composition(cfg, partials).time;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtc;
  const bench::BenchOptions o = bench::parse_options(argc, argv);
  bench::print_header("Scaling: composition time vs P", o);

  harness::Table t({"P", "bswap [s]", "pp [s]", "radix4 [s]",
                    "rt_2n(4) [s]", "rt best-N [s]", "best N"});
  for (const int p : {2, 4, 8, 16, 32, 64}) {
    // bswap needs 2^k; odd-P scalability lives in the table below.
    bench::BenchOptions po = o;
    po.ranks = p;
    const std::vector<img::Image> partials = bench::bench_partials(po);

    auto timed = [&](const std::string& m, int blocks) {
      harness::CompositionConfig cfg;
      cfg.method = m;
      cfg.initial_blocks = blocks;
      cfg.net = o.net;
      cfg.executor = o.executor;
      return harness::run_composition(cfg, partials).time;
    };

    double best = 1e300;
    int best_n = 1;
    for (int n = 1; n <= 8; ++n) {
      const double v = timed("rt", n);
      if (v < best) {
        best = v;
        best_n = n;
      }
    }
    t.add_row({std::to_string(p), harness::Table::num(timed("bswap", 1), 4),
               harness::Table::num(timed("pp", p), 4),
               harness::Table::num(timed("radix", 4), 4),
               harness::Table::num(timed("rt_2n", 4), 4),
               harness::Table::num(best, 4), std::to_string(best_n)});
  }
  t.print(std::cout);

  // Non-power-of-two territory — the RT method's raison d'être. The
  // folded binary-swap ("bswap_any") is the practitioner workaround.
  std::cout << "\narbitrary P (bswap via fold phase):\n";
  harness::Table t2({"P", "bswap_any [s]", "pp [s]", "rt_2n(4) [s]"});
  for (const int p : {6, 11, 17, 24, 31, 33}) {
    bench::BenchOptions po = o;
    po.ranks = p;
    const std::vector<img::Image> partials = bench::bench_partials(po);
    auto timed = [&](const std::string& m, int blocks) {
      harness::CompositionConfig cfg;
      cfg.method = m;
      cfg.initial_blocks = blocks;
      cfg.net = o.net;
      cfg.executor = o.executor;
      return harness::run_composition(cfg, partials).time;
    };
    t2.add_row({std::to_string(p),
                harness::Table::num(timed("bswap_any", 1), 4),
                harness::Table::num(timed("pp", p), 4),
                harness::Table::num(timed("rt_2n", 4), 4)});
  }
  t2.print(std::cout);

  // Large-P trajectory. Thread-per-rank would need 1024 kernel threads
  // here; the fiber pool runs it on a handful of workers with
  // bit-identical virtual times, so the trajectory is golden-gateable.
  if (o.executor.kind != comm::ExecutorKind::kPooled) {
    std::cout << "\nlarge-P trajectory skipped (needs --executor pooled)\n";
    return 0;
  }
  const int scale_image = 256;
  const int hier_group = 32;
  std::cout << "\nlarge P (synthetic partials, image=" << scale_image << "x"
            << scale_image << ", hier group=" << hier_group << "):\n";
  harness::Table t3({"P", "direct [s]", "bswap_any [s]", "rt(4) [s]",
                     "hier [s]"});
  std::vector<std::pair<std::string, double>> golden;
  for (const int p : {64, 256, 1024}) {
    bench::BenchOptions po = o;
    po.ranks = p;
    po.image_size = scale_image;
    std::vector<img::Image> partials;
    partials.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      partials.push_back(synthetic_partial(scale_image, r));
    const double v_direct = timed_at_scale(po, "direct", 1, 0, partials);
    const double v_bswap = timed_at_scale(po, "bswap_any", 1, 0, partials);
    const double v_rt = timed_at_scale(po, "rt", 4, 0, partials);
    const double v_hier =
        timed_at_scale(po, "hier", 4, hier_group, partials);
    t3.add_row({std::to_string(p), harness::Table::num(v_direct, 4),
                harness::Table::num(v_bswap, 4),
                harness::Table::num(v_rt, 4),
                harness::Table::num(v_hier, 4)});
    const std::string tag = "p" + std::to_string(p);
    golden.emplace_back(tag + "/direct", v_direct);
    golden.emplace_back(tag + "/bswap_any", v_bswap);
    golden.emplace_back(tag + "/rt4", v_rt);
    golden.emplace_back(tag + "/hier" + std::to_string(hier_group), v_hier);
  }
  t3.print(std::cout);

  if (!o.json_out.empty()) {
    bench::BenchOptions go = o;
    go.ranks = 1024;
    go.image_size = scale_image;
    bench::write_golden_json(o.json_out, "scaling", go, golden);
  }
  return 0;
}
