#include "src/vm/vm_pool.h"

#include <algorithm>
#include <cstdlib>

#include "src/base/hash.h"
#include "src/base/logging.h"

namespace healer {

VmPool::VmPool(const Target& target, const KernelConfig& config,
               SimClock* clock, size_t count, VmLatencyModel latency,
               const FaultPlan& fault_plan, uint64_t fault_seed,
               MetricRegistry* metrics, FleetOptions fleet)
    : clock_(clock) {
  vms_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Each VM gets an independent, reproducible fault stream. Seeds are
    // derived from the VM index (not the lane), so retopologizing the fleet
    // never reshuffles per-VM decision streams.
    const uint64_t vm_seed =
        Mix64(fault_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    vms_.push_back(std::make_unique<GuestVm>(target, config, clock, latency,
                                             fault_plan, vm_seed, metrics));
  }

  num_lanes_ = fleet.lanes == 0 ? count : std::min(fleet.lanes, count);
  num_lanes_ = std::max<size_t>(num_lanes_, 1);
  // One VM per lane is exactly the historical pinned pool; the fleet
  // machinery (freelists, async boots) must stay out of that path so the
  // legacy configuration remains draw- and charge-identical.
  legacy_ = num_lanes_ == count;
  const size_t shard_count =
      std::max<size_t>(1, std::min(fleet.shards, num_lanes_));

  lanes_.reserve(num_lanes_);
  for (size_t l = 0; l < num_lanes_; ++l) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  shards_.reserve(shard_count);
  loops_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[s]->loop = std::make_unique<EventLoop>(clock->now());
    loops_.push_back(shards_[s]->loop.get());
    // Reboot doorbell: rung by Release() when a down guest is parked; the
    // handler arms one StartRebootAsync per parked guest at the next pump.
    const size_t shard_index = s;
    shards_[s]->reboot_source =
        loops_[s]->AddCompletionSource([this, shard_index] {
          Shard& shard = *shards_[shard_index];
          std::vector<std::pair<GuestVm*, size_t>> batch;
          {
            std::lock_guard<std::mutex> lock(shard.parked_mu);
            batch.swap(shard.parked);
          }
          for (auto& [vm, lane] : batch) {
            GuestVm* guest = vm;
            const size_t home = lane;
            const bool armed = guest->StartRebootAsync(
                loops_[shard_index], [this, home](GuestVm& g) {
                  OnLifecycleSettled(home, &g);
                });
            if (!armed) {
              // Raced with an inline recovery (quarantine reboot) that
              // already brought the guest back: requeue it directly.
              OnLifecycleSettled(home, guest);
            }
          }
        });
  }

  if (!legacy_) {
    // Arm every cold guest's boot on its shard. Nothing fires until a
    // worker pumps; all boots within one shard then complete at the same
    // virtual instant — a 2048-guest boot storm costs one boot latency.
    for (size_t i = 0; i < vms_.size(); ++i) {
      const size_t lane = lane_of(i);
      vms_[i]->StartBootAsync(loops_[shard_of_lane(lane)],
                              [this, lane](GuestVm& g) {
                                OnLifecycleSettled(lane, &g);
                              });
    }
  }
}

GuestVm& VmPool::Next() {
  const size_t n = vms_.size();
  for (size_t k = 0; k < n; ++k) {
    GuestVm& candidate = *vms_[(next_ + k) % n];
    if (!candidate.down()) {
      next_ = (next_ + k + 1) % n;
      return candidate;
    }
  }
  // Every guest is down: hand out the round-robin pick and let the caller's
  // recovery path (inline reboot at the top of Exec) revive it.
  GuestVm& fallback = *vms_[next_];
  next_ = (next_ + 1) % n;
  return fallback;
}

void VmPool::OnLifecycleSettled(size_t lane, GuestVm* vm) {
  if (vm->down()) {
    Shard& shard = *shards_[shard_of_lane(lane)];
    {
      std::lock_guard<std::mutex> lock(shard.parked_mu);
      shard.parked.emplace_back(vm, lane);
    }
    shard.loop->SignalCompletion(shard.reboot_source);
    return;
  }
  Lane& home = *lanes_[lane];
  std::lock_guard<std::mutex> lock(home.mu);
  home.ready.push_back(vm);
}

GuestVm* VmPool::PopReady(size_t lane) {
  Lane& home = *lanes_[lane];
  std::lock_guard<std::mutex> lock(home.mu);
  if (home.ready.empty()) {
    return nullptr;
  }
  GuestVm* vm = home.ready.front();
  home.ready.pop_front();
  return vm;
}

GuestVm* VmPool::AcquireReady(size_t lane) {
  if (legacy_) {
    return vms_[lane].get();  // Pinned: one VM per lane.
  }
  const size_t s = shard_of_lane(lane);
  Shard& shard = *shards_[s];
  EventLoop& loop = *shard.loop;
  for (;;) {
    if (GuestVm* vm = PopReady(lane)) {
      return vm;
    }
    // Dry freelist: pump the shard ourselves. The pump lock is taken, not
    // try-locked: a concurrent pumper may be mid-way through one of this
    // lane's boots or reboots, and the freelist is only authoritative once
    // it is done. Only guests with no transition in flight are handed out.
    std::lock_guard<std::mutex> pump(shard.pump_mu);
    RunDue(shard);
    if (GuestVm* vm = PopReady(lane)) {
      return vm;
    }
    // Still dry — every lane-mate is mid-boot or mid-reboot. Advance the
    // shared clock to the shard's next armed deadline (the fleet waits for
    // the *earliest* timer, which is what makes overlapped latencies cost
    // their max) and pump again on the next turn.
    const SimClock::Nanos next = loop.NextDeadline();
    if (next == EventLoop::kNoDeadline) {
      // Nothing can come back: every guest of the lane is checked out.
      LOG_ERROR << "vm pool: every guest of lane " << lane
                << " is checked out";
      std::abort();
    }
    const SimClock::Nanos now = clock_->now();
    if (next > now) {
      clock_->Advance(next - now);
    }
  }
}

void VmPool::Release(size_t lane, GuestVm* vm) {
  if (legacy_) {
    return;
  }
  OnLifecycleSettled(lane, vm);
}

void VmPool::PumpShard(size_t s) {
  Shard& shard = *shards_[s];
  std::unique_lock<std::mutex> pump(shard.pump_mu, std::try_to_lock);
  if (!pump.owns_lock()) {
    return;  // Another worker is pumping this shard; it will make progress.
  }
  RunDue(shard);
}

void VmPool::RunDue(Shard& shard) {
  EventLoop& loop = *shard.loop;
  loop.RunUntil(std::max(loop.now(), clock_->now()));
  if (shard.journal != nullptr) {
    shard.journal->Flush();
  }
}

std::vector<FleetShardSummary> VmPool::ShardSummaries() const {
  std::vector<FleetShardSummary> out(loops_.size());
  for (size_t s = 0; s < loops_.size(); ++s) {
    out[s].shard = s;
    out[s].timers_pending = loops_[s]->pending_timers();
    out[s].events_dispatched = loops_[s]->dispatched();
  }
  for (size_t i = 0; i < vms_.size(); ++i) {
    FleetShardSummary& sum = out[shard_of_lane(lane_of(i))];
    ++sum.vms;
    switch (vms_[i]->state()) {
      case VmState::kCold:
        ++sum.cold;
        break;
      case VmState::kBooting:
        ++sum.booting;
        break;
      case VmState::kReady:
        ++sum.ready;
        break;
      case VmState::kExecuting:
        ++sum.executing;
        break;
      case VmState::kCrashed:
        ++sum.crashed;
        break;
      case VmState::kRebooting:
        ++sum.rebooting;
        break;
      case VmState::kQuarantined:
        ++sum.quarantined;
        break;
    }
  }
  return out;
}

uint64_t VmPool::TotalExecs() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) {
    total += vm->execs();
  }
  return total;
}

uint64_t VmPool::TotalCrashes() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) {
    total += vm->crashes();
  }
  return total;
}

uint64_t VmPool::TotalInfraFaults() const {
  uint64_t total = 0;
  for (const auto& vm : vms_) {
    total += vm->infra_faults();
  }
  return total;
}

FaultStats VmPool::InjectedStats() const {
  FaultStats stats;
  for (const auto& vm : vms_) {
    const auto& injected = vm->injector().injected();
    for (size_t i = 0; i < kNumFaultKinds; ++i) {
      stats.injected[i] += injected[i];
    }
  }
  return stats;
}

void Monitor::Start() {
  if (running_.exchange(true)) {
    return;
  }
  timers_.assign(pool_->num_shards(), EventLoop::kInvalidTimer);
  for (size_t s = 0; s < pool_->num_shards(); ++s) {
    ArmShardTimer(s);
  }
}

void Monitor::ArmShardTimer(size_t s) {
  // Self-rescheduling drain on simulated time. It fires from whichever
  // worker pumps the shard; a pool whose shards are never pumped (the
  // legacy path) relies on Stop()'s final synchronous drain instead. The
  // running_ re-check and the id store happen under mu_ so Stop() either
  // observes the fresh id (and cancels it) or wins the race and suppresses
  // the re-arm entirely.
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_.load()) {
    return;
  }
  timers_[s] = pool_->shard(s).ScheduleAfter(kPollPeriod, [this, s] {
    PollShard(s);
    ArmShardTimer(s);
  });
}

void Monitor::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 0; s < timers_.size(); ++s) {
      if (timers_[s] != EventLoop::kInvalidTimer) {
        pool_->shard(s).Cancel(timers_[s]);
        timers_[s] = EventLoop::kInvalidTimer;
      }
    }
  }
  Poll();  // Final drain.
}

void Monitor::Poll() {
  for (size_t i = 0; i < pool_->size(); ++i) {
    DrainVm(i);
  }
}

void Monitor::PollShard(size_t s) {
  for (size_t i = 0; i < pool_->size(); ++i) {
    if (pool_->shard_of_lane(i % pool_->num_lanes()) == s) {
      DrainVm(i);
    }
  }
}

void Monitor::DrainVm(size_t index) {
  std::vector<std::string> lines = pool_->vm(index).DrainLog();
  if (lines.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& line : lines) {
    ++lines_collected_;
    if (journal_.size() < 65536) {
      journal_.push_back(std::move(line));
    }
  }
}

std::vector<std::string> Monitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_;
}

std::vector<VmHealth> Monitor::HealthReport() const {
  std::vector<VmHealth> report;
  report.reserve(pool_->size());
  for (size_t i = 0; i < pool_->size(); ++i) {
    const GuestVm& vm = pool_->vm(i);
    VmHealth health;
    health.index = i;
    health.execs = vm.execs();
    health.kernel_crashes = vm.crashes();
    health.infra_faults = vm.infra_faults();
    health.consecutive_failures = vm.consecutive_failures();
    health.quarantines = vm.quarantines();
    report.push_back(health);
  }
  return report;
}

}  // namespace healer
