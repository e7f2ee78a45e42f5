// A from-scratch message-passing substrate (the repo's "MPI").
//
// The paper runs on a 40-node IBM SP2; this machine has neither MPI nor
// 40 nodes, so the distributed-memory substrate is built here: a World
// owns P ranks, each with a private mailbox, executed by a pluggable
// rank executor (executor.hpp) — by default thousands of rank fibers
// multiplexed onto a bounded worker pool, optionally one kernel thread
// per rank. Ranks interact only through send/recv — there is no shared
// image state, so algorithms written against Comm are genuinely
// message-passing programs.
//
// Every rank also carries a *virtual clock* advanced by the NetworkModel
// (see network_model.hpp). Virtual time depends only on the message
// DAG, never on real thread scheduling, so a run's reported composition
// time is bit-for-bit deterministic — that is how 32-"processor" SP2
// figures are reproduced on a single core.
//
// Resilience: every payload travels in a CRC-checksummed frame
// (frame.hpp). A FaultPlan (fault.hpp) injects deterministic drops,
// corruptions, duplicates, delay spikes and rank crashes; the runtime
// recovers via retransmit-with-backoff in virtual time, detects
// duplicates by sequence number, and reports unrecoverable losses as
// typed CommErrors (error.hpp) or — through try_recv — as absent
// payloads the compositors can degrade around. With no plan installed
// the fast path is byte- and clock-identical to the fault-free build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "rtc/comm/buffer_pool.hpp"
#include "rtc/comm/error.hpp"
#include "rtc/comm/executor.hpp"
#include "rtc/comm/fault.hpp"
#include "rtc/comm/network_model.hpp"
#include "rtc/comm/stats.hpp"
#include "rtc/obs/recorder.hpp"
#include "rtc/obs/span.hpp"

namespace rtc::comm {

class World;
struct MembershipView;
class RankStaleStore;
class StaleStore;

/// Tags at or above this base belong to the runtime's control plane
/// (membership/failure-detector traffic, membership.hpp). Control
/// messages ride a reliable channel: they still charge virtual wire
/// time, but the injector's drop/corrupt/delay shaping does not apply
/// (crash triggers do — ranks can die mid-agreement). Compositor data
/// tags must stay below this.
inline constexpr int kControlTagBase = 2'000'000;

/// Per-rank communicator handle passed to the rank function.
class Comm {
 public:
  /// This rank's id — virtual under an installed group view (see
  /// set_group), physical otherwise.
  [[nodiscard]] int rank() const {
    return group_ != nullptr ? group_index_ : rank_;
  }
  [[nodiscard]] int size() const;

  /// Buffered, non-blocking send. Charges Ts startup to this rank's
  /// clock; the payload becomes available to `dst` after the wire time
  /// (plus any fault-injected retry/backoff penalties).
  void send(int dst, int tag, std::vector<std::byte> payload);

  /// Blocking receive matching (src, tag) in FIFO order.
  /// Advances this rank's clock to the message availability time.
  /// Throws CommError when the message is unrecoverable (peer dead,
  /// retry budget exhausted, or wall-clock deadlock timeout).
  [[nodiscard]] std::vector<std::byte> recv(int src, int tag);

  /// recv that reports loss instead of throwing: nullopt when the peer
  /// is dead or the message's retry budget was exhausted. The rank's
  /// clock still advances to the virtual time the loss was detected.
  /// Only a genuine wall-clock deadlock still throws.
  [[nodiscard]] std::optional<std::vector<std::byte>> try_recv(int src,
                                                               int tag);

  /// True once `rank` has crashed under the fault plan.
  [[nodiscard]] bool peer_dead(int rank) const;

  /// Charges local computation time to this rank's clock.
  void compute(double seconds);

  /// Records composited pixels (stats) and charges To per pixel.
  void charge_over(std::int64_t pixels);

  /// Records a block lost to faults: `pixels` were substituted blank.
  void note_loss(std::int64_t block_id, std::int64_t pixels);

  /// True when the payload returned by the most recent successful
  /// recv/try_recv was substituted from the staleness store (the real
  /// arrival missed the frame deadline). Callers that know the block's
  /// pixel count report it via note_stale.
  [[nodiscard]] bool last_recv_stale() const { return last_recv_stale_; }

  /// Records a stale substitution: `pixels` of block `block_id` show
  /// last frame's content instead of this frame's. Pure accounting.
  void note_stale(std::int64_t block_id, std::int64_t pixels);

  /// Records pixels whose blend was skipped by the approximate rung's
  /// opacity-saturation early termination. Pure accounting — the
  /// virtual-time saving is already realized because charge_over was
  /// given only the actually-blended pixel count.
  void note_approx(std::int64_t skipped_pixels);

  /// Records a temporal-coherence cache lookup (frame pipeline):
  /// hit/miss counters plus wire bytes the hit avoided resending.
  /// Pure accounting — never touches the virtual clock.
  void note_coherence(bool hit, std::int64_t bytes_saved);

  /// Records a (id, now) checkpoint in this rank's stats; free.
  void mark(int id);

  /// This rank's span recorder (armed by World::set_trace; a no-op
  /// otherwise, and compiled out entirely under -DRTC_OBS=OFF).
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }

  /// Advances the clock exactly like compute(seconds) but records the
  /// interval as a span of `kind` attributed to compositor step
  /// `step` (e.g. codec encode/decode charges). `wall_begin_ns` lets
  /// the caller include the real work that preceded the charge; -1
  /// stamps a zero-length wall interval. Virtual time is identical to
  /// compute(seconds).
  void charge_span(obs::SpanKind kind, int step, double seconds,
                   std::int64_t bytes = 0, std::int64_t aux = 0,
                   std::int64_t wall_begin_ns = -1);

  /// Records a zero-duration marker span at now(); never advances the
  /// clock. Free when tracing is disarmed.
  void note_span(obs::SpanKind kind, int step, std::int64_t bytes = 0,
                 std::int64_t aux = 0);

  /// This rank's wire-buffer freelist (rank-thread private, lock-free).
  /// send/recv recycle frame and payload buffers through it; callers
  /// that are done with a received payload should release it back so
  /// the next step's traffic reuses the capacity.
  [[nodiscard]] BufferPool& pool() { return pool_; }

  /// Current virtual time of this rank.
  [[nodiscard]] double now() const { return clock_; }

  /// Cost model of the world this rank belongs to.
  [[nodiscard]] const NetworkModel& model() const;

  /// Resilience policy of the world this rank belongs to.
  [[nodiscard]] const ResiliencePolicy& resilience() const;

  /// Synchronizes all live ranks; every clock becomes the global
  /// maximum. Crashed ranks are not waited for.
  void barrier();

  // --- self-healing layer (membership.hpp + recovery driver) -------

  /// Installs (or clears, with nullptr) a survivor group view. While a
  /// view is installed, rank()/size()/send/recv/try_recv/peer_dead
  /// speak *virtual* ranks 0..|members|-1, translated to the view's
  /// physical members; stats and spans keep physical ids. The caller
  /// owns the view and must keep it alive until cleared. A null view is
  /// the identity mapping — bit-identical to the pre-view behavior.
  void set_group(const MembershipView* group);
  [[nodiscard]] const MembershipView* group() const { return group_; }

  /// True when this rank has deterministically observed `rank`
  /// (physical) dead — i.e. a recv on it returned kPeerDead. Unlike the
  /// World's death flags this is local knowledge carried by the message
  /// DAG, so it is safe to branch on without breaking determinism.
  [[nodiscard]] bool observed_dead(int rank) const {
    return observed_dead_.count(rank) > 0;
  }

  /// Upper bound on rank deaths this run (the fault plan's crash count);
  /// 0 means membership can never change and the failure detector is
  /// skipped entirely.
  [[nodiscard]] int crash_budget() const;

  /// Reserves the next membership-flood call number (tag namespacing
  /// for membership.hpp; every member calls in lockstep).
  int take_membership_ticket() { return membership_calls_++; }

  /// Records a survivor-recomposition pass at `epoch`. The superseded
  /// pass's blank-substitution accounting is dropped with it: the
  /// recomposition rebuilds the image from the original partials, so
  /// those pixels are no longer missing from the result.
  void note_recompose(std::uint32_t epoch);

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  enum class RecvStatus { kOk, kLost, kPeerDead };
  struct RecvOutcome {
    RecvStatus status = RecvStatus::kOk;
    std::vector<std::byte> payload;
  };
  [[nodiscard]] RecvOutcome recv_outcome(int src, int tag);
  void maybe_crash(bool counting_send);
  [[noreturn]] void die();

  /// Virtual -> physical rank under the installed group view (identity
  /// with no view); bounds-checked against the current size().
  [[nodiscard]] int to_phys(int r) const;

  /// Per-destination circuit-breaker state (physical dst).
  struct Breaker {
    int failures = 0;  ///< consecutive failed direct attempts
    bool open = false;
    double opened_at = 0.0;  ///< virtual time the link opened
  };
  /// Outcome of the breaker-managed delivery loop for one message.
  struct ShapedRoute {
    WireShaping s;
    bool relayed = false;  ///< final delivery detoured via `relay`
    int relay = -1;
  };
  [[nodiscard]] ShapedRoute shape_breaker(int pdst, int tag,
                                          std::uint32_t seq,
                                          std::int64_t bytes);
  /// Lowest live physical rank that can relay to `pdst` (-1: none).
  [[nodiscard]] int pick_relay(int pdst) const;

  /// Per-destination straggler-detector state (physical dst).
  struct SlowScore {
    int consecutive = 0;  ///< consecutive slow deliveries observed
    bool flagged = false;
  };
  /// Shapes one delivery over the two-hop relay route (the hedge copy's
  /// coins); mirrors shape_breaker's via_relay arm, including the
  /// store-and-forward Ts + wire charge of the extra hop.
  [[nodiscard]] WireShaping shape_via_relay(int relay, int pdst, int tag,
                                            std::uint32_t seq,
                                            std::int64_t bytes) const;

  World* world_;
  int rank_;
  double clock_ = 0.0;
  double egress_free_ = 0.0;  ///< when this rank's out-channel frees up
  std::uint32_t seq_base_ = 0;  ///< epoch base (World::run sets per epoch)
  std::uint32_t next_seq_ = 1;  ///< wire-frame sequence counter
  int send_calls_ = 0;          ///< sends attempted (crash thresholds)
  std::unordered_set<std::uint64_t> seen_seqs_;  ///< (src, seq) dedup
  const MembershipView* group_ = nullptr;  ///< survivor view (not owned)
  int group_index_ = 0;  ///< this rank's virtual rank under group_
  std::set<int> observed_dead_;  ///< peers seen dead (physical, ordered)
  int membership_calls_ = 0;     ///< flood calls issued (tag namespace)
  std::map<int, Breaker> breakers_;  ///< per-physical-dst link state
  std::map<int, SlowScore> slow_peers_;  ///< straggler detector state
  double slow_factor_ = 1.0;  ///< this rank's chronic compute slowdown
  RankStaleStore* stale_ = nullptr;  ///< staleness slice (not owned)
  bool last_recv_stale_ = false;  ///< last payload was a substitution
  /// Messages consumed per (physical src, tag) this frame — the `nth`
  /// of the staleness slot key (stale.hpp).
  std::map<std::pair<int, int>, std::uint32_t> recv_counts_;
  BufferPool pool_;  ///< per-rank wire-buffer freelist
  obs::TraceRecorder trace_;  ///< per-rank span ring (obs layer)
  RankStats stats_;
};

/// Result of World::run.
struct RunResult {
  RunStats stats;
  [[nodiscard]] double makespan() const { return stats.makespan(); }
};

/// Owns the mailboxes and executes a rank function once per rank on
/// the configured executor (pooled fibers by default).
class World {
 public:
  World(int size, NetworkModel model);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const NetworkModel& model() const { return model_; }

  /// Runs `body(comm)` once per rank on the configured executor and
  /// collects per-rank stats. Rethrows the first rank exception.
  /// A rank crash scheduled by the fault plan is not an exception: the
  /// rank's stats are marked `crashed` and the run completes.
  RunResult run(const std::function<void(Comm&)>& body);

  /// Seconds after which a blocked recv is declared a deadlock.
  void set_recv_timeout(double seconds) { recv_timeout_ = seconds; }

  /// Installs a deterministic fault schedule (empty plan disables).
  void set_fault_plan(const FaultPlan& plan);

  /// Virtual-time frame deadline (0 disables). A receiver never
  /// advances its clock past the deadline waiting for data-plane
  /// traffic: a later arrival is a *deadline miss* — the block is
  /// substituted from the staleness store (set_stale) when warm, and
  /// degrades to a loss when cold. Control-plane tags and grouped
  /// recovery passes (Comm::set_group) are exempt, so the deadline can
  /// never starve or deadlock the self-healing layer. Requires a
  /// degrading peer-loss policy.
  void set_deadline(double virtual_seconds) { deadline_ = virtual_seconds; }
  [[nodiscard]] double deadline() const { return deadline_; }

  /// Installs the cross-frame staleness store (null disables); the
  /// caller owns it and keeps it alive across the sequence's runs.
  void set_stale(StaleStore* store) { stale_ = store; }

  /// Retry budget / backoff / peer-loss reaction for this world.
  void set_resilience(const ResiliencePolicy& policy) { policy_ = policy; }
  [[nodiscard]] const ResiliencePolicy& resilience() const {
    return policy_;
  }

  /// Arm per-rank span tracing (obs layer) for the next run(): each
  /// rank gets a preallocated ring of cfg.capacity spans, drained into
  /// RankStats::spans after the rank threads join. With cfg.enabled
  /// false (the default) recording is a no-op and the run's RunStats
  /// are byte-identical to an untraced run.
  void set_trace(const obs::TraceConfig& cfg) { trace_cfg_ = cfg; }

  /// Per-frame sequence-number epoch for the next run(). Each rank's
  /// wire-frame sequence counter starts at (epoch << kSeqEpochBits)+1,
  /// so retransmit dedup can never confuse a frame-f message with a
  /// stale frame-(f-1) duplicate even if state leaks across runs.
  /// Epoch 0 (the default) reproduces the historical numbering, so
  /// single-shot runs stay bit-identical.
  static constexpr std::uint32_t kSeqEpochBits = 20;
  void set_seq_epoch(std::uint32_t epoch);
  [[nodiscard]] std::uint32_t seq_epoch() const { return seq_epoch_; }

  /// Selects the rank executor for subsequent run()s (executor.hpp).
  /// Pooled (the default) multiplexes ranks as fibers over a bounded
  /// worker pool, so P=1024–4096 is simulatable; threaded is the
  /// legacy one-kernel-thread-per-rank path and refuses rank counts
  /// past cfg.max_threaded_ranks. Virtual times, traces, and images
  /// are bit-identical across the two — only wall-clock behavior and
  /// the scalability ceiling differ.
  void set_executor(const ExecutorConfig& cfg) { exec_cfg_ = cfg; }
  [[nodiscard]] const ExecutorConfig& executor_config() const {
    return exec_cfg_;
  }

 private:
  friend class Comm;

  struct Envelope {
    std::vector<std::byte> frame;  ///< framed payload (frame.hpp)
    double available_at = 0.0;     ///< virtual availability time
    // Fault accounting resolved at send time (fault.hpp).
    int retransmits = 0;
    int drops = 0;
    int crc_failures = 0;
    bool delayed = false;
    bool jittered = false;   ///< chronic link jitter delayed the arrival
    bool duplicate = false;  ///< injected second copy of the same seq
    bool lost = false;       ///< retry budget exhausted
  };
  struct Mailbox;

  void deliver(int dst, int src, int tag, Envelope e);
  /// Credits `relay` with one forwarded message of `bytes` (atomic;
  /// folded into RankStats::relay_through_* after the threads join).
  void note_relay_through(int relay, std::int64_t bytes);
  /// Waits for a matching envelope. nullopt: `src` died and no message
  /// is pending. Throws CommError(kTimeout) on wall-clock deadlock.
  std::optional<Envelope> take(int rank, int src, int tag,
                               double virtual_now);
  /// take() for the pooled executor: parks the calling fiber instead
  /// of blocking its worker thread.
  std::optional<Envelope> take_pooled(int rank, int src, int tag,
                                      double virtual_now);
  void enter_barrier(Comm& c);
  void enter_barrier_pooled(Comm& c);
  /// Runs rank_main(r) for every rank on the configured executor.
  void execute_threaded(const std::function<void(int)>& rank_main);
  void execute_pooled(const std::function<void(int)>& rank_main);
  void mark_dead(int rank, double at_virtual_time);
  [[nodiscard]] bool is_dead(int rank) const;
  [[nodiscard]] double death_time(int rank) const;
  [[nodiscard]] std::string mailbox_snapshot(int rank) const;

  int size_;
  NetworkModel model_;
  ExecutorConfig exec_cfg_;  ///< how ranks execute (default: pooled)
  PooledExecutor* pooled_ = nullptr;  ///< non-null during a pooled run()
  double recv_timeout_ = 60.0;
  double deadline_ = 0.0;  ///< per-frame virtual deadline (0: none)
  StaleStore* stale_ = nullptr;  ///< cross-frame staleness store (not owned)
  std::uint32_t seq_epoch_ = 0;
  obs::TraceConfig trace_cfg_;
  ResiliencePolicy policy_;
  std::unique_ptr<FaultInjector> injector_;  ///< null: no faults
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  struct DeathState;
  std::unique_ptr<DeathState> deaths_;
  struct BarrierState;
  std::unique_ptr<BarrierState> barrier_;
  struct RelayState;
  std::unique_ptr<RelayState> relays_;
};

/// Convenience: gather each rank's `payload` to `root` (tagged `tag`);
/// returns size() payloads at the root (empty elsewhere). The root's own
/// entry is moved through locally without a message.
std::vector<std::vector<std::byte>> gather(Comm& comm, int root, int tag,
                                           std::vector<std::byte> payload);

/// Failure-aware gather: `valid[i]` marks whether rank i's payload
/// arrived. Under a degrading peer-loss policy (kBlank/kRecompose) lost
/// contributions leave valid[i] == 0 with an empty payload instead of
/// throwing; under kThrow a loss propagates as CommError (legacy
/// fail-stop behavior).
struct GatherResult {
  std::vector<std::vector<std::byte>> payloads;
  std::vector<std::uint8_t> valid;
  /// stale[i]: rank i's payload is a deadline substitution (last
  /// frame's content); callers attribute the staleness per fragment
  /// via Comm::note_stale once pixel counts are known.
  std::vector<std::uint8_t> stale;
  [[nodiscard]] bool complete() const {
    for (const std::uint8_t v : valid)
      if (!v) return false;
    return true;
  }
};
GatherResult gather_partial(Comm& comm, int root, int tag,
                            std::vector<std::byte> payload);

}  // namespace rtc::comm
