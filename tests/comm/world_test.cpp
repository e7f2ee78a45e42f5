// The message-passing substrate: semantics, determinism, virtual time.
#include "rtc/comm/world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <cstring>
#include <numeric>
#include <optional>

#include "rtc/common/check.hpp"

namespace rtc::comm {
namespace {

std::vector<std::byte> bytes_of(int v) {
  std::vector<std::byte> b(sizeof(v));
  std::memcpy(b.data(), &v, sizeof(v));
  return b;
}

int int_of(const std::vector<std::byte>& b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(v));
  return v;
}

TEST(World, PingPong) {
  World world(2, NetworkModel{});
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, bytes_of(42));
      EXPECT_EQ(int_of(c.recv(1, 8)), 43);
    } else {
      EXPECT_EQ(int_of(c.recv(0, 7)), 42);
      c.send(0, 8, bytes_of(43));
    }
  });
}

TEST(World, FifoOrderPerSourceAndTag) {
  World world(2, NetworkModel{});
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) c.send(1, 1, bytes_of(i));
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(int_of(c.recv(0, 1)), i);
    }
  });
}

TEST(World, TagsMatchIndependently) {
  World world(2, NetworkModel{});
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of(10));
      c.send(1, 2, bytes_of(20));
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(int_of(c.recv(0, 2)), 20);
      EXPECT_EQ(int_of(c.recv(0, 1)), 10);
    }
  });
}

TEST(World, VirtualTimeIsDeterministicAcrossRuns) {
  const NetworkModel m;
  auto run_once = [&] {
    World world(8, m);
    const RunResult r = world.run([](Comm& c) {
      // Ring shift with per-rank compute, twice.
      for (int step = 0; step < 2; ++step) {
        c.send((c.rank() + 1) % c.size(), step, bytes_of(c.rank()));
        (void)c.recv((c.rank() + c.size() - 1) % c.size(), step);
        c.compute(0.001 * (c.rank() + 1));
      }
    });
    return r.makespan();
  };
  const double a = run_once();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run_once(), a);
}

TEST(World, ExchangeCostsTsPlusWire) {
  // One binary-swap style exchange must cost exactly Ts + bytes*Tp
  // (Table 1's per-step BS cost).
  NetworkModel m;
  m.ts = 0.25;
  m.tp_byte = 0.5;
  m.to_pixel = 0.0;
  World world(2, m);
  const RunResult r = world.run([](Comm& c) {
    const int peer = 1 - c.rank();
    c.send(peer, 0, std::vector<std::byte>(10));
    (void)c.recv(peer, 0);
  });
  EXPECT_DOUBLE_EQ(r.makespan(), 0.25 + 10 * 0.5);
}

TEST(World, SecondSendQueuesBehindFirstOnEgress) {
  NetworkModel m;
  m.ts = 1.0;
  m.tp_byte = 1.0;
  World world(2, m);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 0, std::vector<std::byte>(4));
      c.send(1, 1, std::vector<std::byte>(4));
      // Sender CPU is busy only for the startups.
      EXPECT_DOUBLE_EQ(c.now(), 2.0);
    } else {
      (void)c.recv(0, 0);
      // First message: departs at 1.0 (after Ts), lands at 1+4.
      EXPECT_DOUBLE_EQ(c.now(), 5.0);
      (void)c.recv(0, 1);
      // Second transmission starts only after the first clears: 5+4.
      EXPECT_DOUBLE_EQ(c.now(), 9.0);
    }
  });
  EXPECT_DOUBLE_EQ(r.makespan(), 9.0);
}

TEST(World, ReceiveOverlapsWithLocalCompute) {
  NetworkModel m;
  m.ts = 1.0;
  m.tp_byte = 1.0;
  World world(2, m);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 0, std::vector<std::byte>(4));
    } else {
      c.compute(10.0);  // the message is long in flight by now
      (void)c.recv(0, 0);
      EXPECT_DOUBLE_EQ(c.now(), 10.0);  // no extra wait
    }
  });
}

TEST(World, BarrierAlignsClocksToMax) {
  World world(4, NetworkModel{});
  world.run([](Comm& c) {
    c.compute(0.5 * (c.rank() + 1));
    c.barrier();
    EXPECT_DOUBLE_EQ(c.now(), 2.0);
  });
}

TEST(World, ChargeOverUsesToPerPixel) {
  NetworkModel m;
  m.to_pixel = 0.25;
  World world(1, m);
  const RunResult r = world.run([](Comm& c) { c.charge_over(8); });
  EXPECT_DOUBLE_EQ(r.makespan(), 2.0);
  EXPECT_EQ(r.stats.ranks[0].pixels_composited, 8);
}

TEST(World, StatsCountTraffic) {
  World world(2, NetworkModel{});
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, std::vector<std::byte>(100));
    if (c.rank() == 1) (void)c.recv(0, 0);
  });
  EXPECT_EQ(r.stats.ranks[0].messages_sent, 1);
  EXPECT_EQ(r.stats.ranks[0].bytes_sent, 100);
  EXPECT_EQ(r.stats.ranks[1].messages_received, 1);
  EXPECT_EQ(r.stats.ranks[1].bytes_received, 100);
  EXPECT_EQ(r.stats.total_bytes_sent(), 100);
  EXPECT_EQ(r.stats.total_messages(), 1);
}

TEST(World, DeadlockTimesOutWithError) {
  World world(2, NetworkModel{});
  world.set_recv_timeout(0.2);
  EXPECT_THROW(world.run([](Comm& c) {
    if (c.rank() == 0) (void)c.recv(1, 9);  // never sent
  }),
               std::runtime_error);
}

TEST(World, DeadlockErrorCarriesContext) {
  // The typed CommError must say who was stuck on what: rank, peer,
  // tag, virtual time, wall-clock wait, and the mailbox snapshot.
  World world(2, NetworkModel{});
  world.set_recv_timeout(0.2);
  try {
    world.run([](Comm& c) {
      if (c.rank() == 0) {
        c.compute(1.5);
        (void)c.recv(1, 9);  // never sent
      }
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), 9);
    EXPECT_DOUBLE_EQ(e.virtual_time(), 1.5);
    EXPECT_GE(e.elapsed(), 0.2);
    EXPECT_EQ(e.mailbox_snapshot(), "empty");
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("tag=9"), std::string::npos);
  }
}

TEST(World, DeadlockSnapshotListsPendingQueues) {
  // A wrong-tag wait is the classic mismatch bug; the snapshot must
  // show the message that DID arrive so the mismatch is obvious.
  World world(2, NetworkModel{});
  world.set_recv_timeout(0.3);
  try {
    world.run([](Comm& c) {
      if (c.rank() == 1) c.send(0, 3, bytes_of(5));
      if (c.rank() == 0) (void)c.recv(1, 9);  // wrong tag
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
    EXPECT_NE(e.mailbox_snapshot().find("(src=1, tag=3): 1"),
              std::string::npos)
        << e.mailbox_snapshot();
  }
}

TEST(World, RankExceptionPropagates) {
  World world(4, NetworkModel{});
  world.set_recv_timeout(0.5);
  EXPECT_THROW(world.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("boom");
    if (c.rank() == 0) (void)c.recv(3, 1);  // would block forever
  }),
               std::runtime_error);
}

TEST(World, SelfSendRejected) {
  World world(2, NetworkModel{});
  EXPECT_THROW(world.run([](Comm& c) {
    if (c.rank() == 0) c.send(0, 0, {});
  }),
               ContractError);
}

TEST(World, GatherCollectsAllPayloadsAtRoot) {
  World world(5, NetworkModel{});
  world.run([](Comm& c) {
    auto all = gather(c, /*root=*/2, /*tag=*/3, bytes_of(c.rank() * 11));
    if (c.rank() == 2) {
      ASSERT_EQ(all.size(), 5u);
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(int_of(all[static_cast<std::size_t>(i)]), i * 11);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(World, VirtualTimeImmuneToRealSchedulingJitter) {
  // Inject real (wall-clock) sleeps that differ per rank and per run:
  // virtual clocks must not move, because they depend only on the
  // message DAG. This is the property that makes the "SP2 measurements"
  // reproducible.
  NetworkModel m;
  auto run_once = [&](unsigned seed) {
    World world(4, m);
    const RunResult r = world.run([&](Comm& c) {
      std::mt19937 rng(seed + static_cast<unsigned>(c.rank()));
      for (int t = 0; t < 3; ++t) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng() % 2000));
        c.send((c.rank() + 1) % 4, t, bytes_of(t));
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng() % 2000));
        (void)c.recv((c.rank() + 3) % 4, t);
        c.compute(0.5);
      }
    });
    return r;
  };
  const RunResult a = run_once(1);
  const RunResult b = run_once(99);
  ASSERT_EQ(a.stats.ranks.size(), b.stats.ranks.size());
  for (std::size_t i = 0; i < a.stats.ranks.size(); ++i)
    EXPECT_DOUBLE_EQ(a.stats.ranks[i].clock, b.stats.ranks[i].clock);
}

TEST(World, IsReusableAcrossRuns) {
  // A World can host several runs; clocks, mailboxes and barriers
  // reset between them (the harness reuses nothing today, but the
  // animation loop could).
  World world(3, NetworkModel{});
  for (int round = 0; round < 3; ++round) {
    const RunResult r = world.run([](Comm& c) {
      EXPECT_DOUBLE_EQ(c.now(), 0.0);
      c.send((c.rank() + 1) % 3, 0, bytes_of(c.rank()));
      (void)c.recv((c.rank() + 2) % 3, 0);
      c.barrier();
    });
    EXPECT_GT(r.makespan(), 0.0);
    EXPECT_EQ(r.stats.ranks[0].messages_sent, 1);
  }
}

TEST(World, ManyRanksStress) {
  World world(32, NetworkModel{});
  const RunResult r = world.run([](Comm& c) {
    // All-to-next ring, 3 rounds.
    for (int t = 0; t < 3; ++t) {
      c.send((c.rank() + 1) % c.size(), t, bytes_of(c.rank()));
      const int got = int_of(c.recv((c.rank() + 31) % c.size(), t));
      EXPECT_EQ(got, (c.rank() + 31) % 32);
    }
  });
  EXPECT_GT(r.makespan(), 0.0);
}

// ---------------------------------------------------------------------
// Fault injection and the resilient wire protocol.

TEST(Faults, ZeroFaultPlanLeavesVirtualTimeBitIdentical) {
  // Installing a plan with no faults must not perturb the clocks at
  // all — the resilient framing rides inside the Ts software overhead.
  auto run_once = [&](bool with_plan) {
    World world(4, NetworkModel{});
    if (with_plan) {
      FaultPlan plan;
      plan.seed = 999;  // seed alone enables nothing
      world.set_fault_plan(plan);
    }
    return world.run([](Comm& c) {
      for (int t = 0; t < 3; ++t) {
        c.send((c.rank() + 1) % 4, t, bytes_of(c.rank()));
        (void)c.recv((c.rank() + 3) % 4, t);
        c.compute(0.001 * (c.rank() + 1));
      }
    });
  };
  const RunResult clean = run_once(false);
  const RunResult planned = run_once(true);
  ASSERT_EQ(clean.stats.ranks.size(), planned.stats.ranks.size());
  for (std::size_t i = 0; i < clean.stats.ranks.size(); ++i)
    EXPECT_EQ(clean.stats.ranks[i].clock, planned.stats.ranks[i].clock);
  EXPECT_EQ(planned.stats.total_retransmits(), 0);
  EXPECT_FALSE(planned.stats.degraded());
}

TEST(Faults, DropsRecoverViaRetransmitAndChargeBackoff) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 0.5;
  ResiliencePolicy pol;
  pol.retries = 12;  // deep budget: every message must get through
  auto run_once = [&](bool faults) {
    World world(2, NetworkModel{});
    if (faults) world.set_fault_plan(plan);
    world.set_resilience(pol);
    return world.run([](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 64; ++i) c.send(1, 1, bytes_of(i));
      } else {
        for (int i = 0; i < 64; ++i) EXPECT_EQ(int_of(c.recv(0, 1)), i);
      }
    });
  };
  const RunResult clean = run_once(false);
  const RunResult faulty = run_once(true);
  EXPECT_GT(faulty.stats.total_retransmits(), 0);
  EXPECT_GT(faulty.stats.total_drops_detected(), 0);
  EXPECT_EQ(faulty.stats.total_lost_messages(), 0);
  EXPECT_FALSE(faulty.stats.degraded());
  // Retransmit backoff is charged in virtual time.
  EXPECT_GT(faulty.makespan(), clean.makespan());
}

TEST(Faults, CorruptionIsCaughtByCrcAndRecovered) {
  FaultPlan plan;
  plan.seed = 21;
  plan.corrupt = 0.4;
  ResiliencePolicy pol;
  pol.retries = 12;
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  world.set_resilience(pol);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 64; ++i) c.send(1, 1, bytes_of(i));
    } else {
      // Every payload arrives intact: damaged attempts never surface.
      for (int i = 0; i < 64; ++i) EXPECT_EQ(int_of(c.recv(0, 1)), i);
    }
  });
  EXPECT_GT(r.stats.total_crc_failures(), 0);
  EXPECT_EQ(r.stats.total_lost_messages(), 0);
}

TEST(Faults, DuplicatesAreDiscardedBySequenceNumber) {
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate = 1.0;  // every message delivered twice
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) c.send(1, 1, bytes_of(i));
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(int_of(c.recv(0, 1)), i);
    }
  });
  // recv i consumes original i and discards the copy of i-1 sitting in
  // front of it; the 20th copy is still queued at exit.
  EXPECT_EQ(r.stats.total_duplicates_discarded(), 19);
  EXPECT_EQ(r.stats.ranks[1].messages_received, 20);
}

TEST(Faults, RetryExhaustionIsMessageLost) {
  FaultPlan plan;
  plan.seed = 3;
  plan.drop = 1.0;  // no attempt ever gets through
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of(1));
      c.send(1, 2, bytes_of(2));
    } else {
      try {
        (void)c.recv(0, 1);
        ADD_FAILURE() << "expected CommError";
      } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommError::Kind::kMessageLost);
        EXPECT_EQ(e.rank(), 1);
        EXPECT_EQ(e.peer(), 0);
        EXPECT_EQ(e.tag(), 1);
      }
      // try_recv reports the same loss as an absent payload.
      EXPECT_EQ(c.try_recv(0, 2), std::nullopt);
    }
  });
}

TEST(Faults, PersistentCorruptionDeliversDamagedFrameToCrcCheck) {
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt = 1.0;  // every attempt arrives damaged
  ResiliencePolicy pol;
  pol.retries = 2;
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  world.set_resilience(pol);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of(1));
    } else {
      EXPECT_EQ(c.try_recv(0, 1), std::nullopt);
    }
  });
  // The final damaged delivery is detected by the receiver's real CRC
  // check, on top of the two failed (retransmitted) attempts.
  EXPECT_GE(r.stats.total_crc_failures(), 3);
  EXPECT_EQ(r.stats.total_lost_messages(), 1);
  EXPECT_TRUE(r.stats.degraded());
}

TEST(Faults, DuplicateOfALostMessageTakesNoReceiveSlot) {
  // A plan seed whose coins corrupt and duplicate message 1 (seq 1)
  // while message 2 (seq 2) goes through untouched, found through the
  // injector's own public coins.
  constexpr int kTag = 1;
  FaultPlan plan;
  plan.corrupt = 0.5;
  plan.duplicate = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 4096 && seed == 0; ++s) {
    plan.seed = s;
    const FaultInjector inj(plan);
    if (inj.attempt_corrupted(0, 1, kTag, 1, 0) &&
        inj.duplicated(0, 1, kTag, 1) &&
        !inj.attempt_corrupted(0, 1, kTag, 2, 0) &&
        !inj.duplicated(0, 1, kTag, 2))
      seed = s;
  }
  ASSERT_NE(seed, 0u);
  plan.seed = seed;
  ResiliencePolicy pol;
  pol.retries = 0;
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  world.set_resilience(pol);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, kTag, bytes_of(1));
      c.send(1, kTag, bytes_of(2));
    } else {
      EXPECT_EQ(c.try_recv(0, kTag), std::nullopt);
      // The lost message's copy must not stand in front of message 2.
      const auto second = c.try_recv(0, kTag);
      ASSERT_TRUE(second.has_value());
      EXPECT_EQ(int_of(*second), 2);
    }
  });
  EXPECT_EQ(r.stats.total_lost_messages(), 1);
  EXPECT_EQ(r.stats.total_crc_failures(), 1);
  EXPECT_EQ(r.stats.total_duplicates_discarded(), 0);
}

TEST(Faults, LostMessagesNeverShiftLaterOnes) {
  // A lost delivery's flipped bit can land in the frame header's seq
  // field, which the payload CRC does not cover. Whatever it hits, each
  // receive on the pair yields its own message or reports a loss.
  constexpr int kSends = 200;
  FaultPlan plan;
  plan.seed = 4;
  plan.corrupt = 0.3;
  ResiliencePolicy pol;
  pol.retries = 0;
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  world.set_resilience(pol);
  int lost = 0;
  const RunResult r = world.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kSends; ++i) c.send(1, 1, bytes_of(i));
    } else {
      for (int i = 0; i < kSends; ++i) {
        const auto got = c.try_recv(0, 1);
        if (!got) {
          ++lost;
          continue;
        }
        ASSERT_EQ(int_of(*got), i);
      }
    }
  });
  EXPECT_GT(lost, 0);
  EXPECT_EQ(r.stats.total_lost_messages(), lost);
}

TEST(Faults, HedgeThroughACleanRelayArrivesIntact) {
  // Link 0 -> 1 damages every attempt; the detour through rank 2 is
  // clean. The first message is lost unhedged and flags rank 1 as a
  // straggler; every later one is hedged through the relay, and the
  // hedge copy must not carry the direct copy's damage.
  constexpr int kSends = 6;
  FaultPlan plan;
  plan.seed = 9;
  plan.links.push_back({.src = 0, .dst = 1, .corrupt = 1.0});
  ResiliencePolicy rp;
  rp.retries = 1;
  rp.straggler_multiple = 3.0;
  rp.straggler_window = 1;
  rp.hedge = true;
  World world(3, NetworkModel{});
  world.set_fault_plan(plan);
  world.set_resilience(rp);
  world.set_recv_timeout(10.0);  // a swallowed message fails, not hangs
  std::vector<std::optional<std::vector<std::byte>>> got;
  const RunResult r = world.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kSends; ++i) c.send(1, 1, bytes_of(i));
    } else if (c.rank() == 1) {
      for (int i = 0; i < kSends; ++i) got.push_back(c.try_recv(0, 1));
    }
  });
  const RankStats& sender = r.stats.ranks[0];
  EXPECT_EQ(sender.hedged_sends, kSends - 1);
  EXPECT_EQ(sender.hedge_wins, sender.hedged_sends);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSends));
  EXPECT_EQ(got[0], std::nullopt);
  for (int i = 1; i < kSends; ++i) {
    const auto& p = got[static_cast<std::size_t>(i)];
    ASSERT_TRUE(p.has_value()) << "hedged message " << i;
    EXPECT_EQ(int_of(*p), i);
  }
  EXPECT_EQ(r.stats.total_lost_messages(), 1);
}

TEST(Faults, CrashAfterSendsMakesPeerDead) {
  FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .after_sends = 1});
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  ResiliencePolicy pol;
  pol.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  world.set_resilience(pol);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 1, bytes_of(11));  // delivered
      c.send(0, 2, bytes_of(22));  // dies mid-send
      ADD_FAILURE() << "unreachable after crash";
    } else {
      EXPECT_EQ(int_of(c.recv(1, 1)), 11);
      EXPECT_EQ(c.try_recv(1, 2), std::nullopt);
      EXPECT_TRUE(c.peer_dead(1));
    }
  });
  EXPECT_TRUE(r.stats.ranks[1].crashed);
  EXPECT_EQ(r.stats.dead_ranks(), std::vector<int>{1});
  EXPECT_TRUE(r.stats.degraded());
}

TEST(Faults, CrashAtVirtualTimeTriggersOnNextOperation) {
  FaultPlan plan;
  plan.crashes.push_back({.rank = 0, .at_time = 1.0});
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  ResiliencePolicy pol;
  pol.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  world.set_resilience(pol);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.compute(2.0);              // passes the threshold...
      c.send(1, 1, bytes_of(1));   // ...so this op kills the rank
      ADD_FAILURE() << "unreachable after crash";
    } else {
      EXPECT_EQ(c.try_recv(0, 1), std::nullopt);
      // Loss is detected one retransmit timeout after the death time.
      EXPECT_DOUBLE_EQ(c.now(), 2.0 + c.resilience().timeout);
    }
  });
  EXPECT_TRUE(r.stats.ranks[0].crashed);
}

TEST(Faults, RecvFromDeadPeerThrowsUnderThrowPolicy) {
  FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .after_sends = 0});
  World world(2, NetworkModel{});
  world.set_fault_plan(plan);
  try {
    world.run([](Comm& c) {
      if (c.rank() == 1) {
        c.send(0, 1, bytes_of(1));  // dies before this completes
      } else {
        (void)c.recv(1, 1);
      }
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kPeerDead);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
  }
}

TEST(Faults, BarrierDoesNotWaitForCrashedRanks) {
  FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_time = 0.0});
  World world(4, NetworkModel{});
  world.set_fault_plan(plan);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() == 2) {
      c.compute(0.0);  // first op at clock 0 >= 0: dies immediately
      ADD_FAILURE() << "unreachable after crash";
      return;
    }
    c.compute(0.5 * (c.rank() + 1));
    c.barrier();  // must release with only three live ranks
  });
  EXPECT_TRUE(r.stats.ranks[2].crashed);
}

TEST(Faults, GatherPartialReportsDeadRanks) {
  FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_time = 0.0});
  World world(4, NetworkModel{});
  world.set_fault_plan(plan);
  ResiliencePolicy pol;
  pol.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  world.set_resilience(pol);
  world.run([](Comm& c) {
    const GatherResult res = gather_partial(c, 0, 5, bytes_of(c.rank()));
    if (c.rank() == 0) {
      EXPECT_FALSE(res.complete());
      EXPECT_EQ(res.valid, (std::vector<std::uint8_t>{1, 1, 0, 1}));
      EXPECT_EQ(int_of(res.payloads[1]), 1);
      EXPECT_TRUE(res.payloads[2].empty());
      EXPECT_EQ(int_of(res.payloads[3]), 3);
    }
  });
}

TEST(Faults, FaultyRunIsBitForBitDeterministic) {
  // The whole point of eager, hash-based fault resolution: a chaotic
  // run replays exactly — clocks AND fault counters — across runs,
  // despite real thread-scheduling jitter.
  FaultPlan plan;
  plan.seed = 42;
  plan.drop = 0.3;
  plan.corrupt = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.3;
  plan.delay_mean = 0.004;
  ResiliencePolicy pol;
  pol.retries = 10;
  auto run_once = [&] {
    World world(4, NetworkModel{});
    world.set_fault_plan(plan);
    world.set_resilience(pol);
    return world.run([](Comm& c) {
      for (int t = 0; t < 5; ++t) {
        c.send((c.rank() + 1) % 4, t, bytes_of(t));
        (void)c.recv((c.rank() + 3) % 4, t);
      }
    });
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_GT(a.stats.total_retransmits() + a.stats.total_crc_failures() +
                a.stats.total_duplicates_discarded(),
            0);
  ASSERT_EQ(a.stats.ranks.size(), b.stats.ranks.size());
  for (std::size_t i = 0; i < a.stats.ranks.size(); ++i) {
    EXPECT_EQ(a.stats.ranks[i].clock, b.stats.ranks[i].clock);
    EXPECT_EQ(a.stats.ranks[i].retransmits, b.stats.ranks[i].retransmits);
    EXPECT_EQ(a.stats.ranks[i].crc_failures,
              b.stats.ranks[i].crc_failures);
    EXPECT_EQ(a.stats.ranks[i].drops_detected,
              b.stats.ranks[i].drops_detected);
    EXPECT_EQ(a.stats.ranks[i].duplicates_discarded,
              b.stats.ranks[i].duplicates_discarded);
  }
}

}  // namespace
}  // namespace rtc::comm
