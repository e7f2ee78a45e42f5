// Equations (5) and (6): the optimal-block-count bounds, reproducing
// the paper's worked example (P=32, Ts=0.005, Tp=0.00004, To=0.0002
// giving a 2N_RT bound of ~4.3), plus a sweep over P under the
// SP2-calibrated constants.
#include "bench_common.hpp"
#include "rtc/costmodel/table1.hpp"

int main(int argc, char** argv) {
  using namespace rtc;
  const bench::BenchOptions o = bench::parse_options(argc, argv);
  std::cout << "== Equations (5)/(6): optimal block-count bounds ==\n\n";
  std::vector<std::pair<std::string, double>> values;

  {
    const comm::NetworkModel net = comm::paper_example_model();
    const double a = 2.0 * 512 * 512;  // wire bytes of a 512^2 image
    std::cout << "paper worked example (P=32, Ts=0.005, Tp=0.00004, "
                 "To=0.0002):\n";
    std::cout << "  Eq.(5) 2N_RT bound = "
              << harness::Table::num(costmodel::eq5_bound(a, net, 32), 2)
              << "   (paper quotes 4.3)\n";
    std::cout << "  Eq.(6)  N_RT bound = "
              << harness::Table::num(costmodel::eq6_bound(a, net, 32), 2)
              << "   (paper quotes 3.4; see EXPERIMENTS.md on the "
                 "printed formula)\n\n";
  }

  const double a_wire =
      2.0 * static_cast<double>(o.image_size) * o.image_size;
  std::cout << "bounds and integer model optima vs P ("
            << (o.paper_net ? "paper-example" : "sp2-hps")
            << " constants):\n";
  harness::Table t({"P", "Eq5 bound", "Eq6 bound", "best 2N_RT blocks",
                    "best N_RT blocks"});
  for (const int p : {2, 4, 8, 16, 32, 64, 128}) {
    costmodel::Params mp;
    mp.ranks = p;
    mp.image_pixels =
        static_cast<std::int64_t>(o.image_size) * o.image_size;
    mp.net = o.net;
    // Appended, not "p" + ...: GCC 12 -Wrestrict misfires on that.
    std::string key = "p";
    key += std::to_string(p);
    values.emplace_back(key + "/eq5",
                        costmodel::eq5_bound(a_wire, o.net, p));
    values.emplace_back(key + "/eq6",
                        costmodel::eq6_bound(a_wire, o.net, p));
    values.emplace_back(
        key + "/best_2n_rt",
        static_cast<double>(costmodel::best_two_n_rt_blocks(mp, 64)));
    values.emplace_back(
        key + "/best_n_rt",
        static_cast<double>(costmodel::best_n_rt_blocks(mp, 64)));
    t.add_row({std::to_string(p),
               harness::Table::num(costmodel::eq5_bound(a_wire, o.net, p), 2),
               harness::Table::num(costmodel::eq6_bound(a_wire, o.net, p), 2),
               std::to_string(costmodel::best_two_n_rt_blocks(mp, 64)),
               std::to_string(costmodel::best_n_rt_blocks(mp, 64))});
  }
  t.print(std::cout);
  if (!o.json_out.empty())
    bench::write_golden_json(o.json_out, "eq56_bounds", o, values);
  return 0;
}
