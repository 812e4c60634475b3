#include "src/vm/fault_plan.h"

#include <charconv>
#include <string_view>

#include "src/base/string_util.h"

namespace healer {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kVmCrash:
      return "crash";
    case FaultKind::kExecTimeout:
      return "timeout";
    case FaultKind::kTruncatedResult:
      return "trunc";
    case FaultKind::kBitFlipResult:
      return "bitflip";
    case FaultKind::kSlowVm:
      return "slow";
    case FaultKind::kBootFailure:
      return "boot";
    case FaultKind::kRingSetup:
      return "ringsetup";
    case FaultKind::kRingTorn:
      return "torn";
    case FaultKind::kRingStall:
      return "stall";
  }
  return "?";
}

FaultPlan FaultPlan::Uniform(double rate) {
  FaultPlan plan;
  plan.rates.fill(rate);
  return plan;
}

Result<double> ParseFaultRate(std::string_view text) {
  double rate = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, rate);
  // The negated range test also rejects NaN.
  if (ec != std::errc() || ptr != end || !(rate >= 0.0 && rate <= 1.0)) {
    return InvalidArgument(StrFormat(
        "bad fault rate '%s' (accepted: a number in [0, 1])",
        std::string(text).c_str()));
  }
  return rate;
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& entry : StrSplit(spec, ',')) {
    if (entry.empty()) {
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return ParseError(
          StrFormat("fault spec entry '%s' is not key=rate", entry.c_str()));
    }
    const std::string key = entry.substr(0, eq);
    const Result<double> rate =
        ParseFaultRate(std::string_view(entry).substr(eq + 1));
    if (!rate.ok()) {
      return ParseError(StrFormat(
          "bad fault rate in entry '%s' (accepted: a number in [0, 1])",
          entry.c_str()));
    }
    bool known = false;
    for (size_t i = 0; i < kNumFaultKinds; ++i) {
      if (key == FaultKindName(static_cast<FaultKind>(i))) {
        plan.rates[i] = *rate;
        known = true;
        break;
      }
    }
    if (!known) {
      return ParseError(StrFormat("unknown fault kind '%s'", key.c_str()));
    }
  }
  return plan;
}

uint64_t FaultStats::TotalInjected() const {
  uint64_t total = 0;
  for (uint64_t n : injected) {
    total += n;
  }
  return total;
}

void FaultStats::Merge(const FaultStats& other) {
  for (size_t i = 0; i < kNumFaultKinds; ++i) {
    injected[i] += other.injected[i];
  }
  failed_execs += other.failed_execs;
  retries += other.retries;
  recovered += other.recovered;
  discarded += other.discarded;
  quarantines += other.quarantines;
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t seed)
    : plan_(plan), rng_(seed), enabled_(!plan.empty()) {}

std::optional<FaultKind> FaultInjector::Draw() {
  if (!enabled_) {
    return std::nullopt;
  }
  for (size_t i = 0; i < kNumFaultKinds; ++i) {
    const double rate = plan_.rates[i];
    if (rate > 0.0 && rng_.Bernoulli(rate)) {
      ++injected_[i];
      return static_cast<FaultKind>(i);
    }
  }
  return std::nullopt;
}

uint64_t FaultInjector::Rand() { return rng_.Next(); }

}  // namespace healer
