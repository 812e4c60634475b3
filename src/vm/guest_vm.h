// GuestVm: one QEMU-instance equivalent. Owns the executor (the in-guest
// agent), the shared-memory channel and the control socket, performs the
// boot handshake, and advances the campaign's simulated clock with modelled
// latencies: booting, per-program round trips, and crash reboots.
//
// The latency model maps the paper's wall-clock axis onto the simulator:
// one program round trip costs ~overhead + per-call time, so a 24-hour
// campaign corresponds to a few hundred thousand executions.
//
// Lifecycle is an explicit state machine (DESIGN.md §12):
//
//   kCold ──boot──▶ kBooting ──handshake──▶ kReady ⇄ kExecuting
//                                             │  ▲
//                                crash/fault  ▼  │ reboot done
//                                          kCrashed ──▶ kRebooting
//                                             │              ▲
//                                  recovery   ▼              │
//                                        kQuarantined ───────┘
//
// Two drivers advance it. The synchronous path (Exec/ExecBatch) charges the
// shared campaign clock inline, exactly as it always has — a crashed guest
// reboots at the top of its next execution. The reactor path
// (StartBootAsync/StartRebootAsync) instead arms a timer on an EventLoop
// shard and transitions when it fires, so hundreds of overlapping
// boots/reboots cost one latency of virtual time, not their sum. Both paths
// share the same state variable, counters, log lines and journal records.
//
// A GuestVm may carry a FaultInjector (see fault_plan.h). Injected faults
// surface as typed ExecFailure results that never carry feedback: a faulted
// execution leaves the global coverage bitmap untouched and returns no
// per-call results, so callers can discard it safely. Health counters
// (consecutive failures, infra faults, quarantines) feed the recovery
// policy and the Monitor's per-VM health report.
//
// Transports (executor, shm channel, rings — ~5 MiB together) allocate
// lazily on first execution: a fleet of thousands of cold or boot-looping
// guests costs kilobytes each, which is what makes 2048-VM storm scenarios
// runnable (the boot handshake itself only touches the control socket).
//
// Every execution is a (program image, keep mask) pair. The guest's
// executor keeps the last program it decoded; the VM ships a program only
// when its guest does not hold it already, and otherwise sends a small
// call-mask request (DESIGN.md §9). Going down — a crash, a lost VM, a
// reboot or quarantine — and a corrupted transfer drop the resident image,
// so the next execution ships it again.

#ifndef SRC_VM_GUEST_VM_H_
#define SRC_VM_GUEST_VM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/sim_clock.h"
#include "src/exec/exec_ring.h"
#include "src/exec/executor.h"
#include "src/exec/shm_channel.h"
#include "src/vm/fault_plan.h"

namespace healer {

// One reaped ring completion: the program's submission tag (its index in the
// batch handed to ExecBatch), the decoded result, and the simulated time at
// which the completion became visible to the host (used by the replay bench
// to measure inter-completion spans).
struct RingCompletion {
  uint64_t tag = 0;
  ExecResult result;
  SimClock::Nanos completed_at = 0;
};

struct VmLatencyModel {
  SimClock::Nanos boot = 10 * SimClock::kSecond;
  SimClock::Nanos reboot = 20 * SimClock::kSecond;
  SimClock::Nanos exec_overhead = 300 * SimClock::kMillisecond;
  SimClock::Nanos per_call = 10 * SimClock::kMillisecond;
  // Watchdog budget burned by a hung executor before it is declared dead.
  SimClock::Nanos exec_timeout = 5 * SimClock::kSecond;
  // Extra latency of a "slow VM" fault (host contention spike).
  SimClock::Nanos slow_penalty = 2 * SimClock::kSecond;
};

// Lifecycle states. Stored in one atomic so the Monitor, the status line
// and the fleet freelists can classify a guest while a worker drives it.
enum class VmState : uint8_t {
  kCold = 0,     // Never booted; transports unallocated.
  kBooting,      // Boot latency in flight (async) or handshake running.
  kReady,        // Healthy, waiting for work.
  kExecuting,    // A program round trip is in flight.
  kCrashed,      // Guest down (kernel crash, lost VM, watchdog, ring stall).
  kRebooting,    // Reboot latency in flight.
  kQuarantined,  // Parked by the recovery policy pending a forced reboot.
};

const char* VmStateName(VmState state);

class GuestVm {
 public:
  // `clock` is shared with the campaign and must outlive the VM. A
  // non-empty `fault_plan` arms the injector; `fault_seed` makes its
  // decision stream deterministic per VM. A non-null `metrics` registry
  // receives the VM-side telemetry (round-trip latency histogram, per-kind
  // injected-fault counters, reboots).
  GuestVm(const Target& target, const KernelConfig& config, SimClock* clock,
          VmLatencyModel latency = VmLatencyModel(),
          const FaultPlan& fault_plan = FaultPlan(), uint64_t fault_seed = 0,
          MetricRegistry* metrics = nullptr,
          RingConfig ring_config = RingConfig());

  // Boots the guest and performs the executor handshake (blocking: charges
  // the campaign clock inline).
  void Boot();

  VmState state() const { return state_.load(std::memory_order_acquire); }
  bool booted() const {
    const VmState s = state();
    return s != VmState::kCold && s != VmState::kBooting;
  }
  // Down guests must reboot before executing again.
  bool down() const {
    const VmState s = state();
    return s == VmState::kCrashed || s == VmState::kQuarantined;
  }

  // ---- reactor-driven lifecycle (fleet mode) ----
  // Arms the boot (kCold -> kBooting) on `loop`: the state flips to kReady
  // (or kCrashed, if the injector draws a boot failure) when the timer
  // fires, `done` running after the transition settles. Returns false — and
  // arms nothing — unless the VM was kCold, which makes the charge
  // exactly-once under concurrent callers. Charges the loop's virtual time,
  // not the shared campaign clock.
  bool StartBootAsync(EventLoop* loop,
                      std::function<void(GuestVm&)> done = nullptr);
  // Arms the reboot (kCrashed/kQuarantined -> kRebooting) the same way.
  bool StartRebootAsync(EventLoop* loop,
                        std::function<void(GuestVm&)> done = nullptr);

  // Runs every call of `prog`: Exec(ProgImage(prog), nullptr, ...).
  ExecResult Exec(const Prog& prog, Bitmap* global_coverage);

  // Runs the calls of `image` that `keep` marks (nullptr: every call)
  // through shared memory and the executor, and advances the simulated
  // clock by exec_overhead + per_call x kept calls. The result is that of
  // SelectCalls(image.prog(), keep): per-call results and the crash index
  // count kept calls only. A crashing program marks the VM as down; the
  // next Exec reboots it first (modelling crash-and-restart). Injected
  // faults return a result with `failure` set and no calls; each execution
  // draws the injector exactly once.
  ExecResult Exec(const ProgImage& image, const CallMask* keep,
                  Bitmap* global_coverage);

  // Batched transport: submits the programs into the SQ ring, drains the
  // executor multi-shot, and reaps one completion per program from the CQ,
  // in submission order. The per-drain round-trip overhead is charged once
  // per drain (not once per program) — the ring's throughput win. Fault
  // semantics per program mirror Exec: each program consumes exactly one
  // injector draw in submission order, so for a fixed program sequence and
  // fault seed the per-program results are bit-identical to a sequence of
  // legacy Exec calls. Programs too large for an SQ slot spill to the
  // legacy one-at-a-time channel transparently.
  std::vector<RingCompletion> ExecBatch(const std::vector<const Prog*>& progs,
                                        Bitmap* global_coverage);

  // Single-program convenience over ExecBatch (batch of one). On the
  // fault-free path its clock charges equal Exec's, which keeps fixed-seed
  // campaigns over the ring transport draw-identical to legacy ones.
  ExecResult ExecRingOne(const Prog& prog, Bitmap* global_coverage);
  // The masked execution of Exec(image, keep, ...) over the rings.
  ExecResult ExecRingOne(const ProgImage& image, const CallMask* keep,
                         Bitmap* global_coverage);

  // True when this VM's guest holds `image` as its resident image.
  bool HoldsImage(const ProgImage& image) const {
    return resident_ && resident_digest_ == image.digest();
  }

  // Recovery hook: reboots a repeatedly failing guest out-of-band and
  // clears its consecutive-failure streak.
  void QuarantineReboot();

  // Attaches a flight-recorder writer; the VM records lifecycle transitions
  // (boot, reboot, quarantine) and ring stalls into it. The writer is owned
  // by the VM's driving worker (which also flushes it), so recording stays
  // single-producer even in the parallel fuzzer.
  void set_journal(JournalWriter* journal) { journal_ = journal; }

  // Guest console log lines accumulated since the last Drain (consumed by
  // the Monitor's reactor timers).
  std::vector<std::string> DrainLog();

  const Executor& executor() const { return EnsureExecutor(); }
  const FaultInjector& injector() const { return injector_; }
  // Ring transport internals, exposed for the property/hostile test
  // harnesses; production callers go through ExecBatch/ExecRingOne.
  ExecRing& ring() { return EnsureRing(); }
  ControlSocket& ctrl() { return ctrl_; }
  // Non-allocating occupancy probe: all-zero until the ring transport has
  // been exercised (introspection must not inflate a lazy fleet).
  RingOccupancy ring_occupancy() const {
    return ring_ != nullptr ? ring_->Occupancy() : RingOccupancy{};
  }
  uint64_t execs() const { return execs_.load(std::memory_order_relaxed); }
  uint64_t crashes() const {
    return crashes_.load(std::memory_order_relaxed);
  }
  // Infrastructure faults surfaced (injected faults, not kernel bugs).
  uint64_t infra_faults() const {
    return infra_faults_.load(std::memory_order_relaxed);
  }
  uint64_t consecutive_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  uint64_t quarantines() const {
    return quarantines_.load(std::memory_order_relaxed);
  }

 private:
  void AppendLog(std::string line);
  // Journals one lifecycle transition (no-op without an attached writer).
  // Payload: a = lifetime execs, b = consecutive failures at the transition.
  // The At variant lets reactor transitions stamp the loop's virtual time
  // instead of the shared campaign clock.
  void JournalLifecycle(const char* what);
  void JournalLifecycleAt(SimClock::Nanos at, const char* what);
  // Records an infra failure and builds the typed failure result.
  ExecResult FailWith(ExecFailure failure);
  // One execution of a ring batch.
  struct Job {
    const ProgImage* image = nullptr;
    const CallMask* keep = nullptr;  // nullptr: every call.
  };
  std::vector<RingCompletion> RingBatch(const std::vector<Job>& jobs,
                                        Bitmap* global_coverage);
  // Executor side of one ring round trip: pops every pending SQ entry,
  // executes it (applying per-program faults), posts completions, then reaps
  // the CQ into `out`. `first_tag`/`count` identify the tags submitted this
  // drain so lost completions can be timed out as ring stalls.
  void DrainRing(const std::vector<Job>& jobs, uint64_t first_tag,
                 size_t count, Bitmap* global_coverage,
                 std::vector<RingCompletion>* out);
  // The wire bytes of one execution: a mask request over the resident image
  // when the guest holds it, else the program itself when every call runs,
  // else a mask request carrying the program. `use_resident` false forces
  // the program along (the guest may lose its image before the request is
  // read). When the selected program fits `limit`, so do the bytes: a
  // request that would overflow it ships the selected program alone. The
  // bytes live in `image` or in `scratch`; `replay` reports whether the
  // request relies on the resident image.
  const std::vector<uint8_t>& Request(const ProgImage& image,
                                      const CallMask* keep, bool use_resident,
                                      size_t limit,
                                      std::vector<uint8_t>* scratch,
                                      bool* replay);
  void CountRequest(bool replay);
  // After an exchange that reached the executor: records the image the
  // guest holds now.
  void NoteExchange();
  // Drops the resident image on both sides of the transport.
  void LoseImage();
  // Shared tail of both async transitions; fires when the armed timer does.
  // `loop` supplies the virtual timestamp for the journal record.
  void FinishBootTimer(EventLoop* loop, bool boot_failed,
                       std::function<void(GuestVm&)> done);
  void FinishRebootTimer(EventLoop* loop, std::function<void(GuestVm&)> done);
  // Lazy transport construction (first execution; idempotent).
  Executor& EnsureExecutor() const;
  ShmChannel& EnsureShm() const;
  ExecRing& EnsureRing() const;
  // Any state but ready/executing means the guest went down (or has not
  // come up yet), taking its resident image with it.
  void set_state(VmState s) {
    if (s != VmState::kReady && s != VmState::kExecuting) {
      LoseImage();
    }
    state_.store(s, std::memory_order_release);
  }

  const Target* target_;
  KernelConfig config_;
  RingConfig ring_config_;
  // Allocated on first use; mutable so const probes (executor()) can
  // materialize them. A cold VM carries none of the three.
  mutable std::unique_ptr<Executor> executor_;
  mutable std::unique_ptr<ShmChannel> shm_;
  mutable std::unique_ptr<ExecRing> ring_;
  ControlSocket ctrl_;
  SimClock* clock_;
  VmLatencyModel latency_;
  FaultInjector injector_;
  std::atomic<VmState> state_{VmState::kCold};
  // Counters are atomics so the Monitor's health poll can read them while a
  // parallel worker executes on the VM.
  std::atomic<uint64_t> execs_{0};
  std::atomic<uint64_t> crashes_{0};
  std::atomic<uint64_t> infra_faults_{0};
  std::atomic<uint64_t> consecutive_failures_{0};
  std::atomic<uint64_t> quarantines_{0};
  // The host's record of the guest's resident image. Owned by whoever
  // drives the VM, like the transports.
  bool resident_ = false;
  uint64_t resident_digest_ = 0;
  std::mutex log_mu_;  // Drained from whichever thread pumps the Monitor.
  std::vector<std::string> log_;
  JournalWriter* journal_ = nullptr;  // Owned and flushed by the driver.
  // Telemetry handles (null when no registry was supplied). All VMs of a
  // pool share the same counters; shards keep parallel workers uncontended.
  Counter* m_execs_ = nullptr;                               // healer_vm_execs_total
  Counter* m_reboots_ = nullptr;                             // healer_vm_reboots_total
  Histogram* m_rtt_ = nullptr;                               // healer_vm_rtt_ns
  std::array<Counter*, kNumFaultKinds> m_fault_injected_{};  // healer_fault_injected_<kind>_total
  Counter* m_ring_drains_ = nullptr;       // healer_ring_drains_total
  Counter* m_ring_submitted_ = nullptr;    // healer_ring_submitted_total
  Counter* m_ring_completions_ = nullptr;  // healer_ring_completions_total
  Counter* m_ring_spills_ = nullptr;       // healer_ring_spills_total
  Counter* m_ring_stalls_ = nullptr;       // healer_ring_stalls_total
  Histogram* m_ring_drain_programs_ = nullptr;  // healer_ring_drain_programs
  Counter* m_images_shipped_ = nullptr;  // healer_exec_images_shipped_total
  Counter* m_mask_replays_ = nullptr;    // healer_exec_mask_replays_total
};

}  // namespace healer

#endif  // SRC_VM_GUEST_VM_H_
