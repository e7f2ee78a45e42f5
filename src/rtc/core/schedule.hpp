// Composition schedules: the one IR behind rotate-tiling, binary swap
// and direct send.
//
// A schedule is a list of steps; each step is a list of copy-pair
// merges, each shipping the sender's copy of one tiling block to the
// receiver for an "over" with its own copy. Every rank builds the schedule
// locally from (P, Options) — no coordination messages are needed —
// and one interpreter (schedule_compositor.hpp) and one dry-run
// predictor (predictor.hpp) consume it for every method.
//
// The rotate-tiling (RT) method — the paper's contribution — composites
// P partial images in ceil(log2 P) steps. Each sub-image starts as B0
// blocks; every image tile initially has P copies (one per rank). A
// step pairs up the surviving copies of every tile and merges each pair
// with "over" at one of the two owners; every tile is then split in
// half and the process repeats. Two properties give the method its
// name and its performance:
//
//  * tiling  — with B0 > 1 a rank exchanges several smaller blocks per
//    step, so a receiver overlaps compositing one block with the flight
//    of the next and the optimal B0 balances startup cost against that
//    pipelining gain (Section 2.3 of the paper);
//  * rotate  — the pairing and the merge direction rotate with the tile
//    index, so send/receive/composite load spreads over all ranks and
//    the final image ends up evenly distributed.
//
// The paper's printed send/receive equations (1)-(4) are corrupted in
// the available text and mutually inconsistent (see DESIGN.md §2.1);
// the schedule here is reconstructed from the worked example, the
// algorithm listings and the cost table, with one deliberate deviation:
// merges only ever fuse *depth-adjacent* rank intervals, so the
// non-commutative "over" is applied in correct front-to-back order for
// every tile (the paper's own P=3 example fuses ranks {0,2} before rank
// 1 joins, which is order-incorrect for translucent data).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rtc::core {

/// One copy-pair merge: `receiver` composites `sender`'s partial of
/// tile `block` (at the step's depth) with its own.
struct Merge {
  std::int64_t block = 0;
  int sender = 0;
  int receiver = 0;
  /// True when the sender's coverage interval is in front (smaller
  /// ranks) of the receiver's — decides the side of the "over".
  bool sender_front = false;
};

/// One communication step: every message travels with wire tag `tag`
/// and carries blocks at split depth `depth`. Each rank issues its
/// sends, then its receives, in merge order.
struct Step {
  int tag = 0;
  int depth = 0;
  std::vector<Merge> merges;
};

/// Which of the paper's two RT flavors a schedule was validated as.
enum class RtVariant {
  kNrt,         ///< N_RT:  P even, any B0          (paper §2.2)
  kTwoNrt,      ///< 2N_RT: any P,  B0 even         (paper §2.1)
  kGeneralized  ///< any (P, B0) — an extension beyond the paper
};

[[nodiscard]] std::string to_string(RtVariant v);

/// A complete composition schedule.
struct Schedule {
  int ranks = 1;
  int initial_blocks = 1;
  std::vector<Step> steps;

  /// Split depth of the final blocks.
  int final_depth = 0;
  /// Owner rank of every final block (initial_blocks * 2^final_depth).
  std::vector<int> final_owner;
  /// The last step leaves the whole image at final_owner[0] (direct
  /// send), so no gather stage runs.
  bool ends_at_root = false;

  /// Final blocks owned by `rank`, as (depth, index) pairs.
  [[nodiscard]] std::vector<std::pair<int, std::int64_t>> owned_blocks(
      int rank) const;

  /// Messages sent by `rank` in step `s` (0-based).
  [[nodiscard]] std::int64_t sends_in_step(int rank, int s) const;
  [[nodiscard]] std::int64_t recvs_in_step(int rank, int s) const;
};

/// Builds the RT schedule for P ranks and B0 initial blocks per
/// sub-image: ceil(log2 P) steps tagged 1.., step k at depth k-1.
/// `variant` validates the paper's applicability rules: kNrt requires P
/// even, kTwoNrt requires B0 even, kGeneralized accepts anything with
/// P >= 1, B0 >= 1.
[[nodiscard]] Schedule build_rt_schedule(int ranks, int initial_blocks,
                                         RtVariant variant);

/// Binary swap (Ma, Painter, Hansen, Krogh [16, 17]) for any P >= 1.
/// With m = 2^floor(log2 P), a fold step (tag 0, whole images) first
/// merges the first 2(P-m) ranks in adjacent pairs, the odd rank into
/// the even one, leaving m contiguous-coverage units. Step k (tag k,
/// depth k) then pairs the units differing in bit k-1, low bit first so
/// every merge stays depth-adjacent: each keeps one half of its live
/// block and swaps the other. The fold costs the folded ranks one extra
/// full-image step — the inefficiency RT avoids at non-power-of-two P.
[[nodiscard]] Schedule build_bswap_schedule(int ranks);

/// Direct send: one step (tag 1) in which every rank ships its whole
/// partial to `root`, which folds them in depth order — ranks behind it
/// first (each appended at the back), then ranks in front (nearest
/// first). The naive baseline BS/PP/RT all improve on.
[[nodiscard]] Schedule build_direct_schedule(int ranks, int root);

/// True for the schedule-built methods: "rt", "rt_n", "rt_2n", "bswap",
/// "bswap_any" and "direct".
[[nodiscard]] bool is_schedule_method(const std::string& method);

/// Builds `method`'s schedule (see is_schedule_method). Applies each
/// method's applicability rule strictly: rt_n needs an even P, rt_2n an
/// even `initial_blocks`, bswap a power-of-two P.
[[nodiscard]] Schedule build_schedule(const std::string& method, int ranks,
                                      int initial_blocks, int root);

/// The method to run in place of `method` at `ranks` ranks when the
/// count is not the caller's choice (survivors of a crash, a hier
/// group): bswap needs a power of two, so it becomes bswap_any; rt_n
/// needs an even P, so it becomes rt. Every other method is returned
/// unchanged.
[[nodiscard]] std::string any_p_method(const std::string& method,
                                       int ranks);

}  // namespace rtc::core
