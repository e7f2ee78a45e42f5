// Figures 1 and 2: the worked schedule examples. Prints the full
// reconstructed rotate-tiling schedule for P=3 with 4 initial blocks
// (Figure 1, 2N_RT) and P=4 with 3 initial blocks (Figure 2, N_RT),
// in the paper's notation: step k, P_s sends block A_s^k(m) to P_r.
#include <iostream>

#include "rtc/core/schedule.hpp"
#include "rtc/harness/table.hpp"

namespace {

void print_trace(const char* title, int p, int b0,
                 rtc::core::RtVariant variant) {
  using namespace rtc;
  std::cout << title << "\n";
  const core::Schedule s = core::build_rt_schedule(p, b0, variant);
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    std::cout << "  step " << (k + 1) << " (blocks at depth "
              << s.steps[k].depth << "):\n";
    for (const core::Merge& m : s.steps[k].merges) {
      std::cout << "    P" << m.sender << " sends block A^"
                << (k + 1) << "(" << m.block << ") to P" << m.receiver
                << "  [sender is " << (m.sender_front ? "front" : "back")
                << "]\n";
    }
  }
  std::cout << "  final ownership:";
  for (std::size_t b = 0; b < s.final_owner.size(); ++b)
    std::cout << " A(" << b << ")->P" << s.final_owner[b];
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    // Strict like the other benches: this one takes no options.
    std::cerr << "unknown option " << argv[1] << "\n";
    return 2;
  }
  std::cout << "== Figures 1 and 2: rotate-tiling schedule traces ==\n"
            << "(reconstructed order-correct schedule; the printed\n"
            << " equations of the paper are OCR-corrupted — DESIGN.md "
               "2.1)\n\n";
  print_trace("Figure 1: 2N_RT, P=3, 4 initial blocks", 3, 4,
              rtc::core::RtVariant::kTwoNrt);
  print_trace("Figure 2: N_RT, P=4, 3 initial blocks", 4, 3,
              rtc::core::RtVariant::kNrt);
  return 0;
}
