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
// Two drivers advance it. The synchronous path (Exec) charges the shared
// campaign clock inline, exactly as it always has — a crashed guest
// reboots at the top of its next execution. The reactor path
// (StartBootAsync/StartRebootAsync) instead arms a timer on an EventLoop
// shard and transitions when it fires, so hundreds of overlapping
// boots/reboots cost one latency of virtual time, not their sum. Both paths
// share the same state variable, counters and journal records.
//
// A GuestVm may carry a FaultInjector (see fault_plan.h). Injected faults
// surface as typed ExecFailure results that never carry feedback: a faulted
// execution leaves the global coverage bitmap untouched and returns no
// per-call results, so callers can discard it safely. Health counters
// (consecutive failures, infra faults, quarantines) feed the recovery
// policy and the pool's per-VM health report (VmPool::HealthReport).
//
// The executor and the shm channel are built on first execution, so a
// cold or boot-looping guest costs kilobytes (the boot handshake only
// touches the control socket). Their 2 MiB data window and 1 MiB region
// are demand-zero and the executor tables are the pool's, so a guest's
// resident cost follows the pages its programs touch, which is what makes
// 2048-VM storm scenarios cheap (DESIGN.md §11, §12).
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
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/sim_clock.h"
#include "src/exec/executor.h"
#include "src/exec/shm_channel.h"
#include "src/vm/fault_plan.h"

namespace healer {

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

// Lifecycle states. Stored in one atomic so the health report, the status
// line and the fleet freelists can classify a guest while a worker drives
// it.
enum class VmState : uint8_t {
  kCold = 0,     // Never booted; transports unallocated.
  kBooting,      // Boot latency in flight (async) or handshake running.
  kReady,        // Healthy, waiting for work.
  kExecuting,    // A program round trip is in flight.
  kCrashed,      // Guest down (kernel crash, lost VM, watchdog, lost reply).
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
  // injected-fault counters, reboots). The executor borrows `tables` (a
  // pool's, built for the same target and config; it must outlive the VM),
  // or builds its own when it is null.
  GuestVm(const Target& target, const KernelConfig& config, SimClock* clock,
          VmLatencyModel latency = VmLatencyModel(),
          const FaultPlan& fault_plan = FaultPlan(), uint64_t fault_seed = 0,
          MetricRegistry* metrics = nullptr,
          const SharedExecTables* tables = nullptr);

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

  // True when this VM's guest holds `image` as its resident image.
  bool HoldsImage(const ProgImage& image) const {
    return resident_ && resident_digest_ == image.digest();
  }

  // Recovery hook: reboots a repeatedly failing guest out-of-band and
  // clears its consecutive-failure streak.
  void QuarantineReboot();

  // Attaches a flight-recorder writer; the VM records lifecycle transitions
  // (boot, reboot, quarantine) into it. The writer is owned by the VM's
  // driving worker (which also flushes it), so recording stays
  // single-producer even in the parallel fuzzer.
  void set_journal(JournalWriter* journal) { journal_ = journal; }

  const Executor& executor() const { return EnsureExecutor(); }
  const FaultInjector& injector() const { return injector_; }
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
  // Journals one lifecycle transition (no-op without an attached writer).
  // Payload: a = lifetime execs, b = consecutive failures at the transition.
  // The At variant lets reactor transitions stamp the loop's virtual time
  // instead of the shared campaign clock.
  void JournalLifecycle(const char* what);
  void JournalLifecycleAt(SimClock::Nanos at, const char* what);
  // Records an infra failure and builds the typed failure result.
  ExecResult FailWith(ExecFailure failure);
  // The wire bytes of one execution: a mask request over the resident image
  // when the guest holds it, else the program itself when every call runs,
  // else a mask request carrying the program. When the selected program
  // fits the shm region, so do the bytes: a request that would overflow it
  // ships the selected program alone. The bytes live in `image` or in
  // `scratch`; `replay` reports whether the request relies on the resident
  // image.
  const std::vector<uint8_t>& Request(const ProgImage& image,
                                      const CallMask* keep,
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
  const SharedExecTables* tables_;
  // Allocated on first use; mutable so const probes (executor()) can
  // materialize them. A cold VM carries neither.
  mutable std::unique_ptr<Executor> executor_;
  mutable std::unique_ptr<ShmChannel> shm_;
  ControlSocket ctrl_;
  SimClock* clock_;
  VmLatencyModel latency_;
  FaultInjector injector_;
  std::atomic<VmState> state_{VmState::kCold};
  // Counters are atomics so the health report can read them while a
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
  JournalWriter* journal_ = nullptr;  // Owned and flushed by the driver.
  // Telemetry handles (null when no registry was supplied). All VMs of a
  // pool share the same counters; shards keep parallel workers uncontended.
  Counter* m_execs_ = nullptr;                               // healer_vm_execs_total
  Counter* m_reboots_ = nullptr;                             // healer_vm_reboots_total
  Histogram* m_rtt_ = nullptr;                               // healer_vm_rtt_ns
  std::array<Counter*, kNumFaultKinds> m_fault_injected_{};  // healer_fault_injected_<kind>_total
  Counter* m_images_shipped_ = nullptr;  // healer_exec_images_shipped_total
  Counter* m_mask_replays_ = nullptr;    // healer_exec_mask_replays_total
};

}  // namespace healer

#endif  // SRC_VM_GUEST_VM_H_
