#include "rtc/core/schedule.hpp"

#include <algorithm>
#include <bit>

#include "rtc/common/check.hpp"

namespace rtc::core {

namespace {

/// One surviving copy of a tile: held by `owner`, covering the
/// contiguous depth interval [lo, hi] of source ranks.
struct Copy {
  int owner;
  int lo;
  int hi;
};

int ceil_log2(int p) {
  RTC_DCHECK(p >= 1);
  return static_cast<int>(std::bit_width(static_cast<unsigned>(p) - 1));
}

}  // namespace

std::string to_string(RtVariant v) {
  switch (v) {
    case RtVariant::kNrt:
      return "N_RT";
    case RtVariant::kTwoNrt:
      return "2N_RT";
    case RtVariant::kGeneralized:
      return "RT";
  }
  return "?";
}

std::vector<std::pair<int, std::int64_t>> Schedule::owned_blocks(
    int rank) const {
  std::vector<std::pair<int, std::int64_t>> out;
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(final_owner.size());
       ++b) {
    if (final_owner[static_cast<std::size_t>(b)] == rank)
      out.emplace_back(final_depth, b);
  }
  return out;
}

std::int64_t Schedule::sends_in_step(int rank, int s) const {
  std::int64_t n = 0;
  for (const Merge& m : steps[static_cast<std::size_t>(s)].merges)
    n += (m.sender == rank) ? 1 : 0;
  return n;
}

std::int64_t Schedule::recvs_in_step(int rank, int s) const {
  std::int64_t n = 0;
  for (const Merge& m : steps[static_cast<std::size_t>(s)].merges)
    n += (m.receiver == rank) ? 1 : 0;
  return n;
}

Schedule build_rt_schedule(int ranks, int initial_blocks,
                           RtVariant variant) {
  RTC_CHECK_MSG(ranks >= 1, "need at least one rank");
  RTC_CHECK_MSG(initial_blocks >= 1, "need at least one initial block");
  switch (variant) {
    case RtVariant::kNrt:
      RTC_CHECK_MSG(ranks % 2 == 0 || ranks == 1,
                    "N_RT requires an even number of processors");
      break;
    case RtVariant::kTwoNrt:
      RTC_CHECK_MSG(initial_blocks % 2 == 0,
                    "2N_RT requires an even number of initial blocks");
      break;
    case RtVariant::kGeneralized:
      break;
  }

  Schedule sched;
  sched.ranks = ranks;
  sched.initial_blocks = initial_blocks;

  const int total_steps = ceil_log2(ranks);
  if (total_steps == 0) {
    sched.final_owner.assign(static_cast<std::size_t>(initial_blocks), 0);
    return sched;
  }

  // copies[b]: surviving copies of tile b, ordered front to back.
  // Coverage intervals always partition [0, ranks-1].
  std::vector<std::vector<Copy>> copies(
      static_cast<std::size_t>(initial_blocks));
  for (auto& c : copies) {
    c.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) c.push_back(Copy{r, r, r});
  }

  for (int s = 1; s <= total_steps; ++s) {
    Step step;
    step.tag = s;
    step.depth = s - 1;
    const auto blocks = static_cast<std::int64_t>(copies.size());

    // Greedy per-step load counters drive the "rotate": receivers (who
    // also composite) and senders are chosen to even out work, with a
    // block-index rotation as the tie-break. A cross-step ownership
    // count breaks the remaining ties: the sender releases its copy,
    // so the copy-richer rank should send — otherwise a rank that
    // accumulates copies is forced into every later step's merges.
    std::vector<std::int64_t> sends(static_cast<std::size_t>(ranks), 0);
    std::vector<std::int64_t> recvs(static_cast<std::size_t>(ranks), 0);
    std::vector<std::int64_t> owned(static_cast<std::size_t>(ranks), 0);
    for (const auto& cs : copies)
      for (const Copy& c : cs) owned[static_cast<std::size_t>(c.owner)] += 1;

    for (std::int64_t b = 0; b < blocks; ++b) {
      auto& cs = copies[static_cast<std::size_t>(b)];
      const auto c = static_cast<int>(cs.size());
      if (c <= 1) continue;

      // Pick the idle copy for odd counts: it must sit at an even
      // position so both sides still pair up adjacently; rotate the
      // choice with the block index and step so the idle role — and
      // the interval shapes it induces — spread over the ranks.
      int idle = -1;
      if (c % 2 == 1) {
        const int choices = (c + 1) / 2;
        idle = 2 * static_cast<int>((b + s) % choices);
      }

      std::vector<Copy> next;
      next.reserve(static_cast<std::size_t>(c / 2 + 1));
      int i = 0;
      int pair_index = 0;
      while (i < c) {
        if (i == idle) {
          next.push_back(cs[static_cast<std::size_t>(i)]);
          ++i;
          continue;
        }
        RTC_DCHECK(i + 1 < c);
        const Copy& front = cs[static_cast<std::size_t>(i)];
        const Copy& back = cs[static_cast<std::size_t>(i + 1)];
        RTC_DCHECK(front.hi + 1 == back.lo);  // depth-adjacent

        // Receiver choice: balance this step's (receives, sends), then
        // ownership across steps, then rotate by block index.
        const auto load = [&](const Copy& rx, const Copy& tx) {
          const std::int64_t r_load =
              recvs[static_cast<std::size_t>(rx.owner)];
          const std::int64_t s_load =
              sends[static_cast<std::size_t>(tx.owner)];
          // Lexicographic (bottleneck, sum, copies kept by receiver).
          return (std::max(r_load, s_load) * 4 + (r_load + s_load)) *
                     (2 * ranks) +
                 owned[static_cast<std::size_t>(rx.owner)] -
                 owned[static_cast<std::size_t>(tx.owner)];
        };
        const std::int64_t front_rx = load(front, back);
        const std::int64_t back_rx = load(back, front);
        bool front_receives;
        if (front_rx != back_rx) {
          front_receives = front_rx < back_rx;
        } else {
          front_receives = ((b + s + pair_index) % 2) == 0;
        }

        const Copy& rx = front_receives ? front : back;
        const Copy& tx = front_receives ? back : front;
        Merge m;
        m.block = b;
        m.sender = tx.owner;
        m.receiver = rx.owner;
        m.sender_front = tx.lo < rx.lo;
        step.merges.push_back(m);
        sends[static_cast<std::size_t>(tx.owner)] += 1;
        recvs[static_cast<std::size_t>(rx.owner)] += 1;
        owned[static_cast<std::size_t>(tx.owner)] -= 1;

        next.push_back(Copy{rx.owner, front.lo, back.hi});
        i += 2;
        ++pair_index;
      }
      cs = std::move(next);
    }
    sched.steps.push_back(std::move(step));

    // Split every tile in half for the next step (children inherit the
    // parent's copies); skip after the last step.
    if (s < total_steps) {
      std::vector<std::vector<Copy>> split;
      split.reserve(copies.size() * 2);
      for (auto& cs : copies) {
        split.push_back(cs);
        split.push_back(std::move(cs));
      }
      copies = std::move(split);
    }
  }

  sched.final_depth = total_steps - 1;
  sched.final_owner.reserve(copies.size());
  for (const auto& cs : copies) {
    RTC_CHECK_MSG(cs.size() == 1 && cs[0].lo == 0 && cs[0].hi == ranks - 1,
                  "rotate-tiling schedule did not converge");
    sched.final_owner.push_back(cs[0].owner);
  }
  return sched;
}

Schedule build_bswap_schedule(int ranks) {
  RTC_CHECK_MSG(ranks >= 1, "need at least one rank");
  Schedule sched;
  sched.ranks = ranks;
  const int m = static_cast<int>(std::bit_floor(static_cast<unsigned>(ranks)));
  const int folded = ranks - m;

  // Fold: unit u < folded is rank 2u covering {2u, 2u+1}; unit
  // u >= folded is rank u + folded covering itself.
  if (folded > 0) {
    Step fold;
    for (int u = 0; u < folded; ++u)
      fold.merges.push_back(Merge{0, 2 * u + 1, 2 * u, false});
    sched.steps.push_back(std::move(fold));
  }
  const auto owner = [folded](int u) {
    return u < folded ? 2 * u : u + folded;
  };

  // live[u]: unit u's live block index at the current depth.
  std::vector<std::int64_t> live(static_cast<std::size_t>(m), 0);
  const int steps = std::countr_zero(static_cast<unsigned>(m));
  for (int k = 1; k <= steps; ++k) {
    Step step;
    step.tag = k;
    step.depth = k;
    step.merges.reserve(static_cast<std::size_t>(m));
    for (int u = 0; u < m; ++u) {
      // Unit u keeps the half selected by bit k-1 and receives the
      // partner's copy of it; the partner covers the adjacent interval.
      const int partner = u ^ (1 << (k - 1));
      std::int64_t& keep = live[static_cast<std::size_t>(u)];
      keep = keep * 2 + ((u >> (k - 1)) & 1);
      step.merges.push_back(
          Merge{keep, owner(partner), owner(u), partner < u});
    }
    sched.steps.push_back(std::move(step));
  }

  sched.final_depth = steps;
  sched.final_owner.resize(static_cast<std::size_t>(m));
  for (int u = 0; u < m; ++u) {
    const auto b = static_cast<std::size_t>(live[static_cast<std::size_t>(u)]);
    sched.final_owner[b] = owner(u);
  }
  return sched;
}

Schedule build_direct_schedule(int ranks, int root) {
  RTC_CHECK_MSG(ranks >= 1, "need at least one rank");
  RTC_CHECK_MSG(root >= 0 && root < ranks, "root outside the ranks");
  Schedule sched;
  sched.ranks = ranks;
  sched.final_owner = {root};
  sched.ends_at_root = true;
  if (ranks == 1) return sched;
  Step step;
  step.tag = 1;
  for (int src = root + 1; src < ranks; ++src)
    step.merges.push_back(Merge{0, src, root, false});
  for (int src = root - 1; src >= 0; --src)
    step.merges.push_back(Merge{0, src, root, true});
  sched.steps.push_back(std::move(step));
  return sched;
}

bool is_schedule_method(const std::string& method) {
  return method == "rt" || method == "rt_n" || method == "rt_2n" ||
         method == "bswap" || method == "bswap_any" || method == "direct";
}

Schedule build_schedule(const std::string& method, int ranks,
                        int initial_blocks, int root) {
  if (method == "rt_n")
    return build_rt_schedule(ranks, initial_blocks, RtVariant::kNrt);
  if (method == "rt_2n")
    return build_rt_schedule(ranks, initial_blocks, RtVariant::kTwoNrt);
  if (method == "rt")
    return build_rt_schedule(ranks, initial_blocks, RtVariant::kGeneralized);
  if (method == "bswap") {
    RTC_CHECK_MSG(std::has_single_bit(static_cast<unsigned>(ranks)),
                  "binary-swap needs a power-of-two processor count");
    return build_bswap_schedule(ranks);
  }
  if (method == "bswap_any") return build_bswap_schedule(ranks);
  if (method == "direct") return build_direct_schedule(ranks, root);
  throw ContractError("not a schedule-built method: " + method);
}

std::string any_p_method(const std::string& method, int ranks) {
  if (method == "bswap" && !std::has_single_bit(static_cast<unsigned>(ranks)))
    return "bswap_any";
  if (method == "rt_n" && ranks % 2 != 0 && ranks != 1) return "rt";
  return method;
}

}  // namespace rtc::core
