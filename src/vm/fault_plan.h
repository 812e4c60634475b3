// Deterministic fault injection for the VM/exec substrate.
//
// The paper's real substrate loses QEMU instances, hangs executors and
// corrupts transports; a production fuzzer must survive all of it without
// polluting its feedback state. A FaultPlan configures, per campaign, the
// probability of injecting each fault kind into an execution; a per-VM
// FaultInjector (seeded from the campaign seed) turns the plan into a
// deterministic decision stream, so a campaign with faults is still a pure
// function of (options, seed, plan). RecoveryPolicy describes how the
// fuzzing loop reacts: bounded retry with exponential backoff and
// quarantine-reboot of repeatedly failing VMs. FaultStats aggregates both
// sides for CampaignResult and the CLI report.

#ifndef SRC_VM_FAULT_PLAN_H_
#define SRC_VM_FAULT_PLAN_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/base/status.h"

namespace healer {

enum class FaultKind : uint8_t {
  kVmCrash = 0,      // The guest dies mid-program (QEMU instance lost).
  kExecTimeout,      // The in-guest executor hangs until the watchdog fires.
  kTruncatedResult,  // The shm wire bytes are cut short in transit.
  kBitFlipResult,    // One bit of the shm wire bytes is corrupted.
  kSlowVm,           // Latency spike: the exec completes but takes longer.
  kBootFailure,      // The guest fails to (re)boot and stays down.
  // Faults of the shm channel and control socket themselves. Setup and
  // torn faults waste one round trip; a stall loses the reply, so the
  // watchdog fires and the guest goes down. (The names and plan keys date
  // from an earlier ring transport; they stay so plans draw the same.)
  kRingSetup,        // The channel cannot be set up for the request.
  kRingTorn,         // The request is torn in the shm region.
  kRingStall,        // The reply is lost; the watchdog fires.
};
inline constexpr size_t kNumFaultKinds = 9;

const char* FaultKindName(FaultKind kind);

// Per-campaign fault configuration: the probability of injecting each fault
// kind into one execution (evaluated in declaration order, first hit wins).
struct FaultPlan {
  std::array<double, kNumFaultKinds> rates = {};

  double rate(FaultKind kind) const {
    return rates[static_cast<size_t>(kind)];
  }
  void set_rate(FaultKind kind, double rate) {
    rates[static_cast<size_t>(kind)] = rate;
  }
  bool empty() const {
    for (double r : rates) {
      if (r > 0.0) {
        return false;
      }
    }
    return true;
  }

  // The same rate for every fault kind.
  static FaultPlan Uniform(double rate);
};

// Parses one fault rate: a number in [0, 1] with nothing after it.
Result<double> ParseFaultRate(std::string_view text);

// Parses a plan spec of the form "crash=0.01,timeout=0.005,boot=0.001".
// Keys: crash, timeout, trunc, bitflip, slow, boot, ringsetup, torn, stall;
// rates follow ParseFaultRate. Unlisted kinds stay 0.
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

// How the fuzzing loop reacts to failed executions.
struct RecoveryPolicy {
  // Retries per program before the execution (and its feedback) is dropped.
  int max_retries = 3;
  // Simulated pause before the first retry; doubles on each further retry.
  SimClock::Nanos backoff = 200 * SimClock::kMillisecond;
  // Consecutive failures on one VM before it is quarantine-rebooted.
  uint64_t quarantine_threshold = 3;
};

// Fault / recovery accounting, surfaced through CampaignResult.
struct FaultStats {
  std::array<uint64_t, kNumFaultKinds> injected = {};
  uint64_t failed_execs = 0;  // Executions that surfaced a typed failure.
  uint64_t retries = 0;       // Re-executions the recovery policy issued.
  uint64_t recovered = 0;     // Programs that succeeded after >= 1 retry.
  uint64_t discarded = 0;     // Programs dropped after the retry budget.
  uint64_t quarantines = 0;   // Quarantine-reboots of unhealthy VMs.

  uint64_t TotalInjected() const;
  void Merge(const FaultStats& other);
  bool operator==(const FaultStats& other) const = default;
};

// Per-VM deterministic fault source. Decisions depend only on (plan, seed)
// and the number of draws so far — never on program content — so the
// campaign-level execution schedule stays reproducible.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan& plan, uint64_t seed);

  bool enabled() const { return enabled_; }

  // Decides the fault (if any) injected into the next execution.
  std::optional<FaultKind> Draw();

  // Deterministic corruption source for truncation/bit-flip faults.
  uint64_t Rand();

  const std::array<uint64_t, kNumFaultKinds>& injected() const {
    return injected_;
  }

 private:
  FaultPlan plan_;
  Rng rng_{0};
  bool enabled_ = false;
  std::array<uint64_t, kNumFaultKinds> injected_ = {};
};

}  // namespace healer

#endif  // SRC_VM_FAULT_PLAN_H_
