// Kernel versions and per-version feature configuration.
//
// The paper evaluates Linux 4.19 / 5.0 / 5.4 / 5.6 / 5.11. SimKernel
// reproduces the version axis with feature gates (which subsystems and
// syscalls exist) and a per-version bug population (which injected bugs are
// live). Version ordering is total.

#ifndef SRC_KERNEL_CONFIG_H_
#define SRC_KERNEL_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace healer {

enum class KernelVersion : int {
  kV4_19 = 0,
  kV5_0 = 1,
  kV5_4 = 2,
  kV5_6 = 3,
  kV5_11 = 4,
};

const char* KernelVersionName(KernelVersion version);
// The inverse of KernelVersionName; an unknown name is an error that lists
// the accepted ones.
Result<KernelVersion> ParseKernelVersion(std::string_view name);

inline bool VersionAtLeast(KernelVersion v, KernelVersion min) {
  return static_cast<int>(v) >= static_cast<int>(min);
}
inline bool VersionAtMost(KernelVersion v, KernelVersion max) {
  return static_cast<int>(v) <= static_cast<int>(max);
}

struct KernelConfig {
  KernelVersion version = KernelVersion::kV5_11;

  // Feature gates derived from the version (overridable in tests).
  bool has_io_uring = true;    // v5.6+
  bool has_rdma = true;        // all, but richer ops v5.0+
  bool has_kvm_smi = true;     // v5.0+
  bool has_memfd_seals = true; // all modelled versions
  bool has_reiserfs = false;   // v4.19 only in our model
  bool has_aio = true;

  // Fault injection: when >0, every Nth memory allocation inside handlers
  // "fails", exercising error paths (used by the core-dump case study).
  uint32_t fail_nth_alloc = 0;

  static KernelConfig ForVersion(KernelVersion version);
};

}  // namespace healer

#endif  // SRC_KERNEL_CONFIG_H_
