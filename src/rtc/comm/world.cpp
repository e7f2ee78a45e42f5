#include "rtc/comm/world.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "rtc/common/check.hpp"
#include "rtc/comm/frame.hpp"
#include "rtc/comm/membership.hpp"
#include "rtc/comm/stale.hpp"
#include "rtc/costmodel/table1.hpp"

namespace rtc::comm {

namespace {

/// Internal control-flow signal: a rank reached its scheduled crash
/// point. Caught by World::run's thread wrapper; never user-visible.
struct RankCrashSignal {};

std::uint64_t seq_key(int src, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         seq;
}

}  // namespace

struct World::Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  // FIFO queue per (src, tag) match key.
  std::map<std::pair<int, int>, std::deque<Envelope>> queues;
};

struct World::DeathState {
  explicit DeathState(int size)
      : dead(static_cast<std::size_t>(size)),
        time(static_cast<std::size_t>(size), 0.0) {}
  std::vector<std::atomic<bool>> dead;
  std::vector<double> time;  ///< write-once before the flag is set
};

struct World::BarrierState {
  std::mutex mu;
  std::condition_variable cv;
  int waiting = 0;
  int dead = 0;  ///< crashed ranks never arrive; don't wait for them
  std::uint64_t generation = 0;
  double max_clock = 0.0;
};

struct World::RelayState {
  explicit RelayState(int size)
      : messages(static_cast<std::size_t>(size)),
        bytes(static_cast<std::size_t>(size)) {}
  std::vector<std::atomic<std::int64_t>> messages;
  std::vector<std::atomic<std::int64_t>> bytes;
};

World::World(int size, NetworkModel model) : size_(size), model_(model) {
  RTC_CHECK_MSG(size >= 1, "world size must be positive");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  barrier_ = std::make_unique<BarrierState>();
  deaths_ = std::make_unique<DeathState>(size);
  relays_ = std::make_unique<RelayState>(size);
}

World::~World() = default;

void World::set_seq_epoch(std::uint32_t epoch) {
  // 32 - kSeqEpochBits bits of epoch, kSeqEpochBits bits of in-frame
  // counter: 4095 frames of a million messages each before wraparound.
  RTC_CHECK_MSG(epoch < (std::uint32_t{1} << (32 - kSeqEpochBits)),
                "sequence epoch out of range");
  seq_epoch_ = epoch;
}

void World::set_fault_plan(const FaultPlan& plan) {
  injector_ = plan.enabled() ? std::make_unique<FaultInjector>(plan)
                             : nullptr;
}

void World::note_relay_through(int relay, std::int64_t bytes) {
  relays_->messages[static_cast<std::size_t>(relay)].fetch_add(
      1, std::memory_order_relaxed);
  relays_->bytes[static_cast<std::size_t>(relay)].fetch_add(
      bytes, std::memory_order_relaxed);
}

void World::deliver(int dst, int src, int tag, Envelope e) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues[{src, tag}].push_back(std::move(e));
  }
  // Pooled ranks park in the executor instead of waiting on box.cv.
  if (pooled_ != nullptr)
    pooled_->wake(dst);
  else
    box.cv.notify_all();
}

bool World::is_dead(int rank) const {
  return deaths_->dead[static_cast<std::size_t>(rank)].load(
      std::memory_order_acquire);
}

double World::death_time(int rank) const {
  return deaths_->time[static_cast<std::size_t>(rank)];
}

void World::mark_dead(int rank, double at_virtual_time) {
  deaths_->time[static_cast<std::size_t>(rank)] = at_virtual_time;
  deaths_->dead[static_cast<std::size_t>(rank)].store(
      true, std::memory_order_release);
  // Wake every blocked receiver so dead-peer checks re-run, and release
  // any barrier that was only waiting for this rank.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  {
    BarrierState& b = *barrier_;
    std::lock_guard<std::mutex> lock(b.mu);
    b.dead += 1;
    if (b.waiting > 0 && b.waiting + b.dead >= size_) {
      b.waiting = 0;
      ++b.generation;
      b.cv.notify_all();
    }
  }
  if (pooled_ != nullptr) pooled_->wake_all();
}

std::string World::mailbox_snapshot(int rank) const {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mu);
  std::ostringstream os;
  bool first = true;
  for (const auto& [key, q] : box.queues) {
    if (q.empty()) continue;
    if (!first) os << ", ";
    first = false;
    os << "(src=" << key.first << ", tag=" << key.second << "): "
       << q.size();
  }
  return first ? "empty" : os.str();
}

std::optional<World::Envelope> World::take_pooled(int rank, int src,
                                                  int tag,
                                                  double virtual_now) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    // Token before predicate: a delivery between the mailbox check and
    // park() bumps the token, so park() returns immediately instead of
    // losing the wakeup.
    const std::uint64_t token = pooled_->wake_token(rank);
    {
      std::lock_guard<std::mutex> lock(box.mu);
      const auto it = box.queues.find({src, tag});
      if (it != box.queues.end() && !it->second.empty()) {
        Envelope e = std::move(it->second.front());
        it->second.pop_front();
        return e;
      }
    }
    if (is_dead(src)) return std::nullopt;
    if (pooled_->park(rank, token)) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      throw CommError(CommError::Kind::kTimeout, rank, src, tag,
                      virtual_now, elapsed, mailbox_snapshot(rank));
    }
  }
}

std::optional<World::Envelope> World::take(int rank, int src, int tag,
                                           double virtual_now) {
  if (pooled_ != nullptr) return take_pooled(rank, src, tag, virtual_now);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mu);
  auto ready = [&] {
    auto it = box.queues.find({src, tag});
    return it != box.queues.end() && !it->second.empty();
  };
  const auto started = std::chrono::steady_clock::now();
  const bool woke = box.cv.wait_for(
      lock, std::chrono::duration<double>(recv_timeout_),
      [&] { return ready() || is_dead(src); });
  if (ready()) {
    auto& q = box.queues[{src, tag}];
    Envelope e = std::move(q.front());
    q.pop_front();
    return e;
  }
  if (woke && is_dead(src)) return std::nullopt;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  std::ostringstream os;
  bool first = true;
  for (const auto& [key, q] : box.queues) {
    if (q.empty()) continue;
    if (!first) os << ", ";
    first = false;
    os << "(src=" << key.first << ", tag=" << key.second << "): "
       << q.size();
  }
  throw CommError(CommError::Kind::kTimeout, rank, src, tag, virtual_now,
                  elapsed, first ? "empty" : os.str());
}

void World::enter_barrier(Comm& c) {
  if (pooled_ != nullptr) {
    enter_barrier_pooled(c);
    return;
  }
  BarrierState& b = *barrier_;
  std::unique_lock<std::mutex> lock(b.mu);
  b.max_clock = std::max(b.max_clock, c.clock_);
  const std::uint64_t gen = b.generation;
  if (++b.waiting + b.dead >= size_) {
    b.waiting = 0;
    ++b.generation;
    c.clock_ = b.max_clock;
    // max_clock intentionally persists: clocks are monotone, so the next
    // barrier's max can only grow.
    b.cv.notify_all();
    return;
  }
  b.cv.wait(lock, [&] { return b.generation != gen; });
  c.clock_ = b.max_clock;
}

void World::enter_barrier_pooled(Comm& c) {
  BarrierState& b = *barrier_;
  std::uint64_t gen = 0;
  {
    std::unique_lock<std::mutex> lock(b.mu);
    b.max_clock = std::max(b.max_clock, c.clock_);
    gen = b.generation;
    if (++b.waiting + b.dead >= size_) {
      b.waiting = 0;
      ++b.generation;
      c.clock_ = b.max_clock;
      lock.unlock();
      pooled_->wake_all();
      return;
    }
  }
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    const std::uint64_t token = pooled_->wake_token(c.rank_);
    {
      std::lock_guard<std::mutex> lock(b.mu);
      if (b.generation != gen) {
        c.clock_ = b.max_clock;
        return;
      }
    }
    if (pooled_->park(c.rank_, token)) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      throw CommError(CommError::Kind::kTimeout, c.rank_, /*peer=*/-1,
                      /*tag=*/-1, c.clock_, elapsed,
                      "barrier never released");
    }
  }
}

RunResult World::run(const std::function<void(Comm&)>& body) {
  barrier_->waiting = 0;
  barrier_->dead = 0;
  barrier_->generation = 0;
  barrier_->max_clock = 0.0;
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->queues.clear();
  }
  for (int r = 0; r < size_; ++r) {
    deaths_->dead[static_cast<std::size_t>(r)].store(
        false, std::memory_order_release);
    deaths_->time[static_cast<std::size_t>(r)] = 0.0;
    relays_->messages[static_cast<std::size_t>(r)].store(
        0, std::memory_order_relaxed);
    relays_->bytes[static_cast<std::size_t>(r)].store(
        0, std::memory_order_relaxed);
  }

  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) comms.push_back(Comm(this, r));
  for (Comm& c : comms) {
    // Epoch-based sequence numbering: epoch 0 starts at 1, exactly the
    // historical counter, so single-shot runs are bit-identical.
    c.seq_base_ = seq_epoch_ << kSeqEpochBits;
    c.next_seq_ = c.seq_base_ + 1;
    // Fail-slow wiring: a chronic compute slowdown scales this rank's
    // local charges; the staleness slice (if installed) persists across
    // frames in the sequence driver.
    c.slow_factor_ =
        injector_ != nullptr ? injector_->compute_slowdown(c.rank_) : 1.0;
    c.stale_ = stale_ != nullptr ? &stale_->rank(c.rank_) : nullptr;
  }
  if (trace_cfg_.enabled) {
    // Preallocate every rank's span ring before the threads start so
    // recording is allocation-free on the rank threads.
    for (Comm& c : comms) {
      c.trace_.arm(trace_cfg_.capacity);
      c.trace_.set_frame(trace_cfg_.frame);
    }
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  const auto rank_main = [&](int r) {
    try {
      body(comms[static_cast<std::size_t>(r)]);
    } catch (const RankCrashSignal&) {
      // Scheduled death, not an error: mark_dead already ran inside
      // Comm::die(); the stats flag is set after the executor returns.
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      // Unblock peers stuck in recv/barrier so the run can fail fast.
      // (Pooled fibers park instead; the deadlock breaker resumes them.)
      if (pooled_ == nullptr) {
        for (auto& box : mailboxes_) box->cv.notify_all();
        barrier_->cv.notify_all();
      }
    }
  };
  if (exec_cfg_.kind == ExecutorKind::kPooled)
    execute_pooled(rank_main);
  else
    execute_threaded(rank_main);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  RunResult result;
  result.stats.ranks.reserve(static_cast<std::size_t>(size_));
  for (Comm& c : comms) {
    c.stats_.clock = c.clock_;
    c.stats_.crashed = is_dead(c.rank_);
    if (c.stats_.crashed) {
      // A crashed rank's blank-substitution notes describe blocks that
      // died with it and never reach the output; the survivors already
      // account the same degradation (lost message at recv, invalid
      // mask at gather). Keeping both sides would double-count each
      // lost pixel.
      c.stats_.lost_blocks.clear();
      c.stats_.lost_pixels = 0;
    }
    c.stats_.relay_through_messages +=
        relays_->messages[static_cast<std::size_t>(c.rank_)].load(
            std::memory_order_relaxed);
    c.stats_.relay_through_bytes +=
        relays_->bytes[static_cast<std::size_t>(c.rank_)].load(
            std::memory_order_relaxed);
    c.stats_.seq_first = c.seq_base_ + 1;
    c.stats_.seq_last = c.next_seq_ - 1;  // < seq_first: nothing sent
    if (c.trace_.enabled()) {
      // dropped() must be read before drain() — draining resets it.
      c.stats_.spans_dropped = c.trace_.dropped();
      c.stats_.spans = c.trace_.drain();
    }
    result.stats.ranks.push_back(c.stats_);
  }
  return result;
}

void World::execute_threaded(const std::function<void(int)>& rank_main) {
  // One kernel thread per rank does not scale: past a few times the
  // core count the scheduler thrashes, and thread-stack reservations
  // can kill the process outright. Refuse loudly instead of limping —
  // the pooled executor exists precisely for large P.
  const int cap = exec_cfg_.max_threaded_ranks > 0
                      ? exec_cfg_.max_threaded_ranks
                      : default_threaded_rank_cap();
  RTC_CHECK_MSG(size_ <= cap,
                "P=" + std::to_string(size_) +
                    " exceeds the threaded executor's rank cap of " +
                    std::to_string(cap) +
                    "; use the pooled executor (the default — "
                    "--executor pooled / RTC_EXECUTOR=pooled) or raise "
                    "ExecutorConfig::max_threaded_ranks");
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r)
    threads.emplace_back([&rank_main, r] { rank_main(r); });
  for (std::thread& t : threads) t.join();
}

void World::execute_pooled(const std::function<void(int)>& rank_main) {
  PooledExecutor pool(size_, exec_cfg_);
  pool.set_deadlock_grace(recv_timeout_);
  pooled_ = &pool;
  try {
    pool.run(rank_main);
  } catch (...) {
    pooled_ = nullptr;
    throw;
  }
  pooled_ = nullptr;
}

int Comm::size() const {
  return group_ != nullptr ? static_cast<int>(group_->members.size())
                           : world_->size();
}

const NetworkModel& Comm::model() const { return world_->model(); }

const ResiliencePolicy& Comm::resilience() const {
  return world_->resilience();
}

bool Comm::peer_dead(int rank) const {
  return world_->is_dead(to_phys(rank));
}

int Comm::to_phys(int r) const {
  RTC_CHECK(r >= 0 && r < size());
  return group_ != nullptr ? group_->members[static_cast<std::size_t>(r)]
                           : r;
}

void Comm::set_group(const MembershipView* group) {
  group_ = group;
  group_index_ = 0;
  if (group == nullptr) return;
  const int idx = group->index_of(rank_);
  RTC_CHECK_MSG(idx >= 0, "rank installed a group view it is not part of");
  group_index_ = idx;
}

int Comm::crash_budget() const {
  return world_->injector_ != nullptr
             ? static_cast<int>(world_->injector_->plan().crashes.size())
             : 0;
}

void Comm::note_recompose(std::uint32_t epoch) {
  stats_.recomposes += 1;
  stats_.membership_epoch = epoch;
  // The superseded pass's blank substitutions never reach the final
  // image — the recomposition pass rebuilds it from the original
  // partials — so their degradation accounting is dropped with them.
  // lost_messages stays: it is wire history, not image accounting.
  stats_.lost_blocks.clear();
  stats_.lost_pixels = 0;
}

int Comm::pick_relay(int pdst) const {
  // Deterministic: based only on this rank's own observations (carried
  // by the message DAG), never on the racy global death flags.
  for (int r = 0; r < world_->size(); ++r) {
    if (r == rank_ || r == pdst) continue;
    if (observed_dead_.count(r) > 0) continue;
    return r;
  }
  return -1;
}

void Comm::die() {
  world_->mark_dead(rank_, clock_);
  throw RankCrashSignal{};
}

void Comm::maybe_crash(bool counting_send) {
  if (world_->injector_ == nullptr) return;
  const int sends = counting_send ? send_calls_ : 0;
  if (world_->injector_->should_crash(rank_, sends, clock_)) die();
}

Comm::ShapedRoute Comm::shape_breaker(int pdst, int tag, std::uint32_t seq,
                                      std::int64_t bytes) {
  const NetworkModel& m = world_->model();
  const ResiliencePolicy& rp = world_->resilience();
  const FaultInjector& inj = *world_->injector_;
  ShapedRoute out;
  WireShaping& s = out.s;
  // Delay spike / duplicate are message-level events independent of the
  // delivery route; same coins as the breaker-free path.
  s.extra_delay += inj.delay_spike(rank_, pdst, tag, seq, &s.delayed);
  s.duplicate = inj.duplicated(rank_, pdst, tag, seq);

  Breaker& br = breakers_[pdst];
  bool probing = false;
  if (br.open && clock_ - br.opened_at >= rp.breaker_cooldown) {
    // Half-open: one direct attempt. Success closes the link, failure
    // re-opens it and restarts the cooldown.
    probing = true;
    stats_.breaker_probes += 1;
  }
  bool direct_next = !br.open || probing;
  const int relay = rp.relay ? pick_relay(pdst) : -1;
  bool delivered = false;
  for (int attempt = 0; attempt <= rp.retries; ++attempt) {
    const bool via_relay = !direct_next && relay >= 0;
    bool dropped;
    bool corrupted;
    if (via_relay) {
      // Two hops, each with its own fault coins; the chronically bad
      // direct link's LinkFault does not apply on the detour.
      dropped = inj.attempt_dropped(rank_, relay, tag, seq, attempt) ||
                inj.attempt_dropped(relay, pdst, tag, seq, attempt);
      corrupted =
          !dropped &&
          (inj.attempt_corrupted(rank_, relay, tag, seq, attempt) ||
           inj.attempt_corrupted(relay, pdst, tag, seq, attempt));
    } else {
      dropped = inj.attempt_dropped(rank_, pdst, tag, seq, attempt);
      corrupted =
          !dropped && inj.attempt_corrupted(rank_, pdst, tag, seq, attempt);
    }
    if (!dropped && !corrupted) {
      delivered = true;
      if (via_relay) {
        out.relayed = true;
        out.relay = relay;
      } else {
        br.failures = 0;
        br.open = false;  // a direct success (re)closes the link
      }
      break;
    }
    if (dropped)
      s.drops += 1;
    else
      s.crc_failures += 1;
    s.extra_delay += rp.timeout * static_cast<double>(1 << attempt);
    if (!via_relay) {
      br.failures += 1;
      if (probing) {
        br.open = true;
        br.opened_at = clock_;
        probing = false;
        direct_next = false;
      } else if (!br.open && br.failures >= rp.breaker_threshold) {
        br.open = true;
        br.opened_at = clock_;
        direct_next = false;
        stats_.breaker_trips += 1;
      }
    }
    if (attempt < rp.retries) {
      s.retransmits += 1;
      s.extra_delay += m.ts + m.wire_time(bytes);
    } else if (corrupted) {
      s.corrupt_delivery = true;
      s.corrupt_salt =
          static_cast<std::uint64_t>(seq) +
          std::uint64_t{0x5EED} * static_cast<std::uint64_t>(attempt + 1);
    }
  }
  s.lost = !delivered;
  if (out.relayed) {
    // Store-and-forward detour: the extra hop pays its own startup and
    // wire time on top of the direct-path availability.
    s.extra_delay += m.ts + m.wire_time(bytes);
  }
  return out;
}

WireShaping Comm::shape_via_relay(int relay, int pdst, int tag,
                                  std::uint32_t seq,
                                  std::int64_t bytes) const {
  const NetworkModel& m = world_->model();
  const ResiliencePolicy& rp = world_->resilience();
  const FaultInjector& inj = *world_->injector_;
  // Same two-hop coin scheme as shape_breaker's detour arm, so a hedge
  // through a relay sees exactly the fault odds a breaker detour would.
  WireShaping s;
  bool delivered = false;
  for (int attempt = 0; attempt <= rp.retries; ++attempt) {
    const bool dropped = inj.attempt_dropped(rank_, relay, tag, seq,
                                             attempt) ||
                         inj.attempt_dropped(relay, pdst, tag, seq, attempt);
    const bool corrupted =
        !dropped && (inj.attempt_corrupted(rank_, relay, tag, seq, attempt) ||
                     inj.attempt_corrupted(relay, pdst, tag, seq, attempt));
    if (!dropped && !corrupted) {
      delivered = true;
      break;
    }
    if (dropped)
      s.drops += 1;
    else
      s.crc_failures += 1;
    s.extra_delay += rp.timeout * static_cast<double>(1 << attempt);
    if (attempt < rp.retries) {
      s.retransmits += 1;
      s.extra_delay += m.ts + m.wire_time(bytes);
    }
  }
  // A hedge copy that exhausts its budget is simply never delivered —
  // the direct copy carries the loss story, so no corrupt_delivery here.
  s.lost = !delivered;
  // Store-and-forward: the extra hop pays its own startup + wire time.
  s.extra_delay += m.ts + m.wire_time(bytes);
  return s;
}

void Comm::send(int dst, int tag, std::vector<std::byte> payload) {
  RTC_CHECK(dst >= 0 && dst < size());
  const int pdst = to_phys(dst);
  RTC_CHECK_MSG(pdst != rank_, "self-sends are not modeled");
  ++send_calls_;
  maybe_crash(/*counting_send=*/true);
  const std::int64_t w0 = trace_.enabled() ? obs::wall_now_ns() : 0;
  const auto bytes = static_cast<std::int64_t>(payload.size());
  const NetworkModel& m = world_->model();
  // The sender's CPU is busy for the startup time Ts; the transmission
  // itself is pipelined on this rank's single egress channel (one
  // in-flight message at a time, later sends queue behind it). This is
  // what lets a receiver overlap compositing block i with the flight of
  // block i+1 — the mechanism behind the paper's optimal block count.
  // The 20-byte frame header rides free: per-message software overhead
  // is what Ts already models, so framing leaves clean-run virtual
  // times bit-identical.
  const double issue = clock_;
  clock_ += m.ts;
  const double depart = std::max(clock_, egress_free_);
  egress_free_ = depart + m.wire_time(bytes);

  const std::uint32_t seq = next_seq_++;
  World::Envelope e;
  // Frame into a pooled buffer, then recycle the caller's payload
  // capacity: a steady-state composition step allocates nothing here.
  e.frame = pool_.acquire();
  encode_frame_into(e.frame, seq, payload);
  pool_.release(std::move(payload));
  e.available_at = egress_free_;
  // Topology-aware models add per-hop latency (and, for the cloud
  // profile, deterministic per-message jitter) to the flight time.
  // Latency pipelines: it delays availability without occupying the
  // sender CPU or egress channel. Both terms are exactly 0.0 under the
  // default flat model, keeping historical runs bit-identical.
  {
    const double lat = m.topology_latency(rank_, pdst);
    if (lat > 0.0) e.available_at += lat;
    const double tjit = m.jitter(rank_, pdst, tag, seq);
    if (tjit > 0.0) e.available_at += tjit;
  }

  std::optional<World::Envelope> dup;
  std::optional<World::Envelope> hedge;
  // Control-plane traffic (membership floods) rides a reliable channel:
  // virtual wire time is charged, fault shaping is not.
  if (world_->injector_ != nullptr && tag < kControlTagBase) {
    const ResiliencePolicy& rp = world_->resilience();
    WireShaping s;
    bool breaker_relayed = false;
    if (rp.breaker_threshold > 0) {
      const ShapedRoute route = shape_breaker(pdst, tag, seq, bytes);
      s = route.s;
      breaker_relayed = route.relayed;
      if (route.relayed) {
        stats_.relayed_messages += 1;
        stats_.relayed_bytes += bytes;
        world_->note_relay_through(route.relay, bytes);
        note_span(obs::SpanKind::kRelay, tag, bytes, route.relay);
      }
    } else {
      s = world_->injector_->shape(rank_, pdst, tag, seq, bytes, m, rp);
    }
    const double jit = world_->injector_->link_jitter(rank_, pdst, tag, seq);
    e.available_at += s.extra_delay + jit;
    e.retransmits = s.retransmits;
    e.drops = s.drops;
    e.crc_failures = s.crc_failures;
    e.delayed = s.delayed;
    e.jittered = jit > 0.0;
    e.lost = s.lost;
    // Only a delivered message can arrive twice. A copy of a lost one
    // would take a receive slot of its own on this (src, tag) pair and
    // push every later message one slot late.
    if (s.duplicate && !s.lost) {
      dup = World::Envelope{};
      dup->frame = e.frame;
      dup->available_at = e.available_at + m.wire_time(bytes);
      dup->duplicate = true;
    }

    if (rp.straggler_multiple > 0.0) {
      // Straggler detector: compare this delivery's slowness against the
      // cost-model expectation for a healthy link. A rank only uses its
      // own observations (the shaping it just computed), so the verdict
      // rides the message DAG and is deterministic.
      const double expect = costmodel::healthy_transfer_time(bytes, m);
      const bool slow_now =
          s.lost ||
          s.extra_delay + jit > (rp.straggler_multiple - 1.0) * expect;
      SlowScore& sc = slow_peers_[pdst];
      if (sc.flagged && rp.hedge && !breaker_relayed) {
        const int relay = pick_relay(pdst);
        if (relay >= 0) {
          // Hedge a second copy through the relay; the first arrival
          // wins and the loser is demoted to a protocol-level duplicate
          // the receiver's seq dedup discards for free.
          const WireShaping hs = shape_via_relay(relay, pdst, tag, seq,
                                                 bytes);
          const double hjit =
              world_->injector_->link_jitter(rank_, relay, tag, seq) +
              world_->injector_->link_jitter(relay, pdst, tag, seq);
          // The copy queues on this rank's egress channel behind the
          // direct transmission (shape_via_relay already charged the
          // relay hop's own Ts + wire time).
          egress_free_ += m.wire_time(bytes);
          // Topology latency over the detour's two hops (0.0 flat).
          const double hlat = m.topology_latency(rank_, relay) +
                              m.topology_latency(relay, pdst);
          World::Envelope h;
          h.frame = e.frame;
          h.available_at = egress_free_ + hs.extra_delay + hjit + hlat;
          h.retransmits = hs.retransmits;
          h.drops = hs.drops;
          h.crc_failures = hs.crc_failures;
          h.delayed = hs.delayed;
          h.jittered = hjit > 0.0;
          h.lost = hs.lost;
          stats_.hedged_sends += 1;
          stats_.hedged_bytes += bytes;
          const bool hedge_wins =
              !h.lost && (e.lost || h.available_at < e.available_at);
          if (hedge_wins) {
            stats_.hedge_wins += 1;
            world_->note_relay_through(relay, bytes);
            note_span(obs::SpanKind::kHedge, tag, bytes, relay);
            World::Envelope loser = std::move(e);
            e = std::move(h);
            if (!loser.lost) {
              hedge = World::Envelope{};
              hedge->frame = std::move(loser.frame);
              hedge->available_at = loser.available_at;
              hedge->duplicate = true;
            }
          } else if (!h.lost) {
            hedge = World::Envelope{};
            hedge->frame = std::move(h.frame);
            hedge->available_at = h.available_at;
            hedge->duplicate = true;
          }
        }
      }
      // Update after the hedge decision: hedging starts one message
      // after the flag trips, and a healthy delivery clears it.
      if (slow_now) {
        sc.consecutive += 1;
        if (!sc.flagged &&
            sc.consecutive >= std::max(1, rp.straggler_window)) {
          sc.flagged = true;
          stats_.stragglers_flagged += 1;
        }
      } else {
        sc.consecutive = 0;
        sc.flagged = false;
      }
    }
    // Damage the direct copy last, so the hedge copy taken above keeps
    // the clean frame. A corrupt final attempt means the direct copy is
    // lost; e.lost is still true only if no hedge replaced it.
    if (s.corrupt_delivery && e.lost)
      FaultInjector::flip_bit(e.frame, s.corrupt_salt);
  }

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  if (trace_.enabled()) {
    // The span covers the sender-CPU charge [issue, issue+Ts]; the wire
    // flight is pipelined and shows up as the receiver's recv-wait.
    trace_.record(obs::Span{obs::SpanKind::kSend, tag, pdst, bytes,
                            /*aux=*/0, issue, clock_, w0,
                            obs::wall_now_ns()});
  }
  world_->deliver(pdst, rank_, tag, std::move(e));
  if (hedge) world_->deliver(pdst, rank_, tag, std::move(*hedge));
  if (dup) world_->deliver(pdst, rank_, tag, std::move(*dup));
}

Comm::RecvOutcome Comm::recv_outcome(int src, int tag) {
  RTC_CHECK(src >= 0 && src < size());
  const int psrc = to_phys(src);
  RTC_CHECK_MSG(psrc != rank_, "self-receives are not modeled");
  maybe_crash(/*counting_send=*/false);
  last_recv_stale_ = false;
  // The deadline binds the data plane of ungrouped (primary) passes
  // only: recovery passes run on a group view and control-plane tags
  // are reliable, so a deadline can bound a frame without ever starving
  // the self-healing machinery.
  const double dl = world_->deadline_;
  const bool dl_on = dl > 0.0 && group_ == nullptr && tag < kControlTagBase;
  const bool stale_on = dl_on && stale_ != nullptr;
  const double wait_from = clock_;
  const std::int64_t w0 = trace_.enabled() ? obs::wall_now_ns() : 0;
  for (;;) {
    std::optional<World::Envelope> e =
        world_->take(rank_, psrc, tag, clock_);
    if (!e) {
      // Peer crashed with nothing pending: the loss is detected one
      // retransmit timeout after the peer's (deterministic) death time.
      // Under a deadline the wait is clamped there, but the outcome
      // stays kPeerDead — a deadline must never mask a crash from the
      // recovery driver.
      double detect_at = world_->death_time(psrc) +
                         world_->resilience().timeout;
      if (dl_on) detect_at = std::min(detect_at, dl);
      clock_ = std::max(clock_, detect_at);
      stats_.lost_messages += 1;
      // Deterministic local evidence for the failure detector: this
      // rank now *knows* psrc is dead, independent of wall scheduling.
      observed_dead_.insert(psrc);
      if (trace_.enabled()) {
        trace_.record(obs::Span{obs::SpanKind::kRecvWait, tag, psrc,
                                /*bytes=*/0, /*aux=*/0, wait_from, clock_,
                                w0, obs::wall_now_ns()});
      }
      return RecvOutcome{RecvStatus::kPeerDead, {}};
    }
    // Wire-fault accounting is observed by the receiving protocol side
    // (a retransmit is seen as a late, recovered arrival).
    stats_.retransmits += e->retransmits;
    stats_.drops_detected += e->drops;
    stats_.crc_failures += e->crc_failures;
    if (e->delayed) stats_.delays_injected += 1;
    if (e->jittered) stats_.jitter_delays += 1;

    const DecodedFrame d = decode_frame(e->frame);
    // A lost delivery consumes no sequence number: it is the only copy
    // of its message, and a damaged header may carry another message's
    // seq (the CRC covers the payload only).
    if (!e->lost && d.ok() &&
        !seen_seqs_.insert(seq_key(psrc, d.seq)).second) {
      // Sequence number already consumed: injected duplicate or a hedge
      // copy that lost the race. Discard without advancing the clock —
      // protocol-level dedup is free.
      stats_.duplicates_discarded += 1;
      pool_.release(std::move(e->frame));
      continue;
    }
    // A message past the frame deadline is not waited for: the clock is
    // clamped at the deadline and the payload is (at best) replaced by
    // last frame's content for the same schedule slot.
    const bool late = dl_on && e->available_at > dl;
    clock_ = std::max(clock_, late ? dl : e->available_at);
    if (trace_.enabled()) {
      const std::int64_t recovered = e->retransmits + e->drops;
      if (recovered > 0) {
        // Instant marker just before the wait span it explains: this
        // arrival only succeeded after `recovered` resend/drop rounds.
        trace_.record(obs::Span{obs::SpanKind::kRetransmit, tag, psrc,
                                /*bytes=*/0, recovered, clock_, clock_, w0,
                                w0});
      }
      trace_.record(obs::Span{
          obs::SpanKind::kRecvWait, tag, psrc,
          static_cast<std::int64_t>(e->frame.size()), /*aux=*/0, wait_from,
          clock_, w0, obs::wall_now_ns()});
    }
    // Every path from here consumes one schedule slot from (src, tag):
    // the occurrence counter keeps the staleness store aligned with the
    // frame-invariant composition schedule even across losses.
    const std::uint64_t skey =
        stale_on ? stale_key(psrc, tag, recv_counts_[{psrc, tag}]++) : 0;
    if (e->lost || !d.ok()) {
      // Retry budget exhausted (the frame either never got through or
      // is still damaged — the CRC, not an oracle, catches the latter).
      if (!d.ok() && !e->lost) stats_.crc_failures += 1;
      stats_.lost_messages += 1;
      pool_.release(std::move(e->frame));
      return RecvOutcome{RecvStatus::kLost, {}};
    }
    if (late) {
      stats_.deadline_misses += 1;
      note_span(obs::SpanKind::kDeadline, tag,
                static_cast<std::int64_t>(d.payload.size()), psrc);
      std::vector<std::byte> payload = pool_.acquire();
      bool substituted = false;
      if (stale_on) {
        if (const std::vector<std::byte>* prev = stale_->find(skey)) {
          payload.assign(prev->begin(), prev->end());
          substituted = true;
        }
        // The late arrival is still the slot's freshest real content:
        // remember it so the next frame substitutes one-frame-old data,
        // not progressively older.
        stale_->put(skey,
                    std::vector<std::byte>(d.payload.begin(), d.payload.end()));
      }
      pool_.release(std::move(e->frame));
      if (!substituted) {
        // Cold slot (first frame, or no store): degrade like a loss.
        stats_.lost_messages += 1;
        pool_.release(std::move(payload));
        return RecvOutcome{RecvStatus::kLost, {}};
      }
      last_recv_stale_ = true;
      stats_.messages_received += 1;
      stats_.bytes_received += static_cast<std::int64_t>(payload.size());
      return RecvOutcome{RecvStatus::kOk, std::move(payload)};
    }
    stats_.messages_received += 1;
    stats_.bytes_received += static_cast<std::int64_t>(d.payload.size());
    // Copy the payload out of the frame into a pooled buffer before the
    // frame itself is recycled (d.payload aliases e->frame).
    std::vector<std::byte> payload = pool_.acquire();
    payload.assign(d.payload.begin(), d.payload.end());
    if (stale_on) {
      stale_->put(skey,
                  std::vector<std::byte>(payload.begin(), payload.end()));
    }
    pool_.release(std::move(e->frame));
    return RecvOutcome{RecvStatus::kOk, std::move(payload)};
  }
}

std::vector<std::byte> Comm::recv(int src, int tag) {
  RecvOutcome out = recv_outcome(src, tag);
  switch (out.status) {
    case RecvStatus::kOk:
      return std::move(out.payload);
    case RecvStatus::kPeerDead:
      throw CommError(CommError::Kind::kPeerDead, rank_, src, tag, clock_,
                      0.0, world_->mailbox_snapshot(rank_));
    case RecvStatus::kLost:
      throw CommError(CommError::Kind::kMessageLost, rank_, src, tag,
                      clock_, 0.0, world_->mailbox_snapshot(rank_));
  }
  RTC_CHECK(false);
  return {};
}

std::optional<std::vector<std::byte>> Comm::try_recv(int src, int tag) {
  RecvOutcome out = recv_outcome(src, tag);
  if (out.status != RecvStatus::kOk) return std::nullopt;
  return std::move(out.payload);
}

void Comm::compute(double seconds) {
  RTC_CHECK(seconds >= 0.0);
  maybe_crash(/*counting_send=*/false);
  const double from = clock_;
  // slow_factor_ is 1.0 outside fail-slow plans, and x * 1.0 == x for
  // every finite double, so healthy runs stay bit-identical.
  clock_ += seconds * slow_factor_;
  if (trace_.enabled() && seconds > 0.0) {
    const std::int64_t w = obs::wall_now_ns();
    trace_.record(obs::Span{obs::SpanKind::kCompute, /*step=*/-1,
                            /*peer=*/-1, /*bytes=*/0, /*aux=*/0, from,
                            clock_, w, w});
  }
}

void Comm::charge_span(obs::SpanKind kind, int step, double seconds,
                       std::int64_t bytes, std::int64_t aux,
                       std::int64_t wall_begin_ns) {
  RTC_CHECK(seconds >= 0.0);
  // Mirrors compute() exactly on the virtual clock and the fault
  // schedule, so converting a compute() call site to charge_span()
  // never perturbs a run's deterministic times.
  maybe_crash(/*counting_send=*/false);
  const double from = clock_;
  clock_ += seconds * slow_factor_;
  if (trace_.enabled()) {
    const std::int64_t w1 = obs::wall_now_ns();
    trace_.record(obs::Span{kind, step, /*peer=*/-1, bytes, aux, from,
                            clock_, wall_begin_ns >= 0 ? wall_begin_ns : w1,
                            w1});
  }
}

void Comm::note_span(obs::SpanKind kind, int step, std::int64_t bytes,
                     std::int64_t aux) {
  if (!trace_.enabled()) return;
  const std::int64_t w = obs::wall_now_ns();
  trace_.record(
      obs::Span{kind, step, /*peer=*/-1, bytes, aux, clock_, clock_, w, w});
}

void Comm::charge_over(std::int64_t pixels) {
  RTC_CHECK(pixels >= 0);
  stats_.pixels_composited += pixels;
  const double from = clock_;
  clock_ += world_->model().over_time(pixels) * slow_factor_;
  if (trace_.enabled() && pixels > 0) {
    const std::int64_t w = obs::wall_now_ns();
    trace_.record(obs::Span{obs::SpanKind::kBlend, /*step=*/-1,
                            /*peer=*/-1, /*bytes=*/0, pixels, from, clock_,
                            w, w});
  }
}

void Comm::note_loss(std::int64_t block_id, std::int64_t pixels) {
  RTC_CHECK(pixels >= 0);
  stats_.lost_blocks.push_back(block_id);
  stats_.lost_pixels += pixels;
}

void Comm::note_stale(std::int64_t block_id, std::int64_t pixels) {
  RTC_CHECK(pixels >= 0);
  (void)block_id;  // kept for symmetry with note_loss; ids are in spans
  stats_.stale_tiles += 1;
  stats_.stale_pixels += pixels;
}

void Comm::note_approx(std::int64_t skipped_pixels) {
  RTC_CHECK(skipped_pixels >= 0);
  stats_.approx_skipped_pixels += skipped_pixels;
}

void Comm::note_coherence(bool hit, std::int64_t bytes_saved) {
  RTC_CHECK(bytes_saved >= 0);
  if (hit) {
    stats_.coherence_hits += 1;
  } else {
    stats_.coherence_misses += 1;
  }
  stats_.coherence_bytes_saved += bytes_saved;
}

void Comm::mark(int id) { stats_.marks.emplace_back(id, clock_); }

void Comm::barrier() {
  maybe_crash(/*counting_send=*/false);
  world_->enter_barrier(*this);
}

GatherResult gather_partial(Comm& comm, int root, int tag,
                            std::vector<std::byte> payload) {
  GatherResult out;
  if (comm.rank() == root) {
    const auto n = static_cast<std::size_t>(comm.size());
    out.payloads.resize(n);
    out.valid.assign(n, 1);
    out.stale.assign(n, 0);
    out.payloads[static_cast<std::size_t>(root)] = std::move(payload);
    const bool blank_on_loss = comm.resilience().degrade_on_loss();
    for (int src = 0; src < comm.size(); ++src) {
      if (src == root) continue;
      if (blank_on_loss) {
        std::optional<std::vector<std::byte>> p = comm.try_recv(src, tag);
        if (p) {
          out.payloads[static_cast<std::size_t>(src)] = std::move(*p);
          out.stale[static_cast<std::size_t>(src)] =
              comm.last_recv_stale() ? 1 : 0;
        } else {
          out.valid[static_cast<std::size_t>(src)] = 0;
        }
      } else {
        out.payloads[static_cast<std::size_t>(src)] = comm.recv(src, tag);
        out.stale[static_cast<std::size_t>(src)] =
            comm.last_recv_stale() ? 1 : 0;
      }
    }
  } else {
    comm.send(root, tag, std::move(payload));
  }
  return out;
}

std::vector<std::vector<std::byte>> gather(Comm& comm, int root, int tag,
                                           std::vector<std::byte> payload) {
  return gather_partial(comm, root, tag, std::move(payload)).payloads;
}

}  // namespace rtc::comm
