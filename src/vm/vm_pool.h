// VmPool: manages a fleet of guest VMs, mirroring HEALER's "background
// asynchronous IO" worker (Fig. 3).
//
// Two topologies share one class (DESIGN.md §12):
//
//   * Legacy (default): `count` VMs, one lane per VM. AcquireReady(lane)
//     returns the pinned VM and Release is a no-op, so a worker that always
//     uses its own lane observes byte-identical behavior to the historical
//     one-VM-per-worker pool — this is what keeps the 8-VM golden
//     fingerprint stable.
//   * Fleet (FleetOptions with lanes > 0 and lanes < count): thousands of
//     VM state machines multiplexed over `shards` EventLoop reactors and
//     `lanes` ready freelists. VM i belongs to lane i % lanes; lane l is
//     pumped by shard l % shards. Cold VMs are armed with StartBootAsync at
//     construction; crashed VMs released by a worker are parked on their
//     shard and rebooted by a reactor timer, so a 512-guest crash storm
//     costs one reboot latency of virtual time and zero extra OS threads.
//
// Workers pump shards cooperatively (PumpShard try-locks, so concurrent
// pumpers never block each other, except that a worker with a dry lane
// waits for the pump); no shard owns a thread. The shared
// campaign SimClock only moves forward: a starved AcquireReady advances it
// to the shard's next armed deadline, bridging worker time and reactor time.
//
// Guests report through typed results, journal records and metrics, not a
// console log; per-VM health (execs, kernel crashes, infra faults,
// quarantines) is a read of each guest's counters (HealthReport).

#ifndef SRC_VM_VM_POOL_H_
#define SRC_VM_VM_POOL_H_

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/event_loop.h"
#include "src/vm/guest_vm.h"

namespace healer {

// Fleet topology. Defaults preserve the legacy one-lane-per-VM pool.
struct FleetOptions {
  // Ready freelists (one per worker in the parallel fuzzer). 0 means one
  // lane per VM — the legacy pinned topology.
  size_t lanes = 0;
  // Reactor shards. Clamped to [1, lanes].
  size_t shards = 1;
};

// The pool a fuzzing campaign builds for `lanes` fuzzing lanes (a Fuzzer's
// VMs, a parallel campaign's workers): one guest per lane when `fleet_size`
// is 0, else max(fleet_size, lanes) guests; `fleet_shards` reactor shards,
// or guests / 256 clamped to [1, lanes] when it is 0.
struct PoolShape {
  size_t guests = 0;
  FleetOptions fleet;
};
PoolShape ShapePool(size_t lanes, size_t fleet_size, size_t fleet_shards);

// Point-in-time census of one reactor shard, for the status line and the
// /status introspection endpoint.
struct FleetShardSummary {
  size_t shard = 0;
  size_t vms = 0;
  size_t cold = 0;
  size_t booting = 0;
  size_t ready = 0;
  size_t executing = 0;
  size_t crashed = 0;
  size_t rebooting = 0;
  size_t quarantined = 0;
  size_t timers_pending = 0;
  uint64_t events_dispatched = 0;
};

// Point-in-time health of one guest (VmPool::HealthReport).
struct VmHealth {
  size_t index = 0;
  uint64_t execs = 0;
  uint64_t kernel_crashes = 0;
  uint64_t infra_faults = 0;
  uint64_t consecutive_failures = 0;
  uint64_t quarantines = 0;
};

class VmPool {
 public:
  // A non-empty `fault_plan` arms every VM's injector; each VM draws from
  // its own stream derived from `fault_seed` and its index. A non-null
  // `metrics` registry is shared by every VM for fleet-wide telemetry.
  VmPool(const Target& target, const KernelConfig& config, SimClock* clock,
         size_t count, VmLatencyModel latency = VmLatencyModel(),
         const FaultPlan& fault_plan = FaultPlan(), uint64_t fault_seed = 0,
         MetricRegistry* metrics = nullptr,
         FleetOptions fleet = FleetOptions());

  size_t size() const { return vms_.size(); }
  GuestVm& vm(size_t index) { return *vms_[index]; }
  const GuestVm& vm(size_t index) const { return *vms_[index]; }
  // The executor tables every guest of the pool borrows; built by the first
  // caller (a fuzzing loop's enabled list, or a guest's first execution).
  const ExecTables& tables() const { return *tables_.Get(); }

  // Round-robin pick for the next execution, skipping guests that are down
  // or quarantined so fresh work never lands on a dead VM while a healthy
  // one is available. When every guest is down the plain round-robin pick
  // returns (the recovery policy reboots it inline), guaranteeing progress.
  GuestVm& Next();

  // ---- fleet topology ----
  bool fleet() const { return !legacy_; }
  size_t num_lanes() const { return num_lanes_; }
  size_t num_shards() const { return loops_.size(); }
  size_t shard_of_lane(size_t lane) const { return lane % loops_.size(); }
  EventLoop& shard(size_t s) { return *loops_[s]; }

  // Pops a ready VM from `lane`'s freelist. In legacy mode this returns the
  // lane's pinned VM unconditionally (no state inspection, no pumping — the
  // historical path). In fleet mode a dry freelist pumps the owning shard —
  // waiting for a concurrent pumper rather than skipping it — and while the
  // shard is merely waiting on virtual time (every VM mid-boot or
  // mid-reboot), advances the shared clock to its next armed deadline: the
  // bridge that makes overlapping lifecycle latencies cost their max, not
  // their sum. Only guests with no lifecycle transition in flight are
  // handed out, so a guest (and its resident program image) has one owner
  // at a time.
  GuestVm* AcquireReady(size_t lane);

  // Returns a VM acquired from `lane`. Healthy guests rejoin the lane's
  // freelist; down guests are parked on their shard, whose completion
  // handler arms StartRebootAsync — the VM re-enters the freelist when the
  // reboot timer fires. No-op in legacy mode.
  void Release(size_t lane, GuestVm* vm);

  // Runs the shard's due timers and completion handlers up to the shared
  // clock's current time. Try-locks: a shard already being pumped by
  // another worker is skipped (it is making progress). Safe to call from
  // any worker; cheap when nothing is due.
  void PumpShard(size_t s);

  // Attaches the journal that reactor-side lifecycle records (async boots,
  // reboots) of shard `s` are written into while no worker owns the VM.
  // Flushed by whichever worker pumps the shard.
  void set_shard_journal(size_t s, JournalWriter* journal) {
    shards_[s]->journal = journal;
  }

  // Per-shard state census (lock-free reads of each VM's state atomic).
  std::vector<FleetShardSummary> ShardSummaries() const;

  // Per-VM health accounting: reads only the guests' counter atomics, so it
  // is safe to call while workers are executing.
  std::vector<VmHealth> HealthReport() const;

  uint64_t TotalExecs() const;
  uint64_t TotalCrashes() const;
  uint64_t TotalInfraFaults() const;

  // Sums every VM injector's per-kind injected counters; the recovery-side
  // fields (retries, quarantines, ...) are zero — the fuzzer merges its own.
  FaultStats InjectedStats() const;

 private:
  struct Lane {
    std::mutex mu;
    std::deque<GuestVm*> ready;
  };
  struct Shard {
    std::unique_ptr<EventLoop> loop;
    std::mutex pump_mu;     // Serializes pumpers; try-locked.
    std::mutex parked_mu;   // Guards `parked`.
    std::vector<std::pair<GuestVm*, size_t>> parked;  // (vm, lane)
    size_t reboot_source = 0;  // Completion-source doorbell index.
    JournalWriter* journal = nullptr;
  };

  size_t lane_of(size_t vm_index) const { return vm_index % num_lanes_; }
  // Pops the front of `lane`'s freelist; nullptr when it is empty.
  GuestVm* PopReady(size_t lane);
  // Runs `shard`'s due timers and completions up to the shared clock and
  // flushes its journal. The caller holds shard.pump_mu.
  void RunDue(Shard& shard);
  // Routes a VM whose lifecycle transition just settled: healthy guests go
  // to their lane's freelist, down guests to their shard's parked list
  // (ringing the reboot doorbell).
  void OnLifecycleSettled(size_t lane, GuestVm* vm);

  SimClock* clock_;
  SharedExecTables tables_;  // Outlives vms_, which borrow it.
  std::vector<std::unique_ptr<GuestVm>> vms_;
  size_t next_ = 0;
  bool legacy_ = true;
  size_t num_lanes_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Shard loops, aliasing shards_[s]->loop for terse access.
  std::vector<EventLoop*> loops_;
};

}  // namespace healer

#endif  // SRC_VM_VM_POOL_H_
