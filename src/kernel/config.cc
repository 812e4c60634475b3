#include "src/kernel/config.h"

namespace healer {

const char* KernelVersionName(KernelVersion version) {
  switch (version) {
    case KernelVersion::kV4_19:
      return "4.19";
    case KernelVersion::kV5_0:
      return "5.0";
    case KernelVersion::kV5_4:
      return "5.4";
    case KernelVersion::kV5_6:
      return "5.6";
    case KernelVersion::kV5_11:
      return "5.11";
  }
  return "?";
}

Result<KernelVersion> ParseKernelVersion(std::string_view name) {
  std::string accepted;
  for (KernelVersion version :
       {KernelVersion::kV4_19, KernelVersion::kV5_0, KernelVersion::kV5_4,
        KernelVersion::kV5_6, KernelVersion::kV5_11}) {
    if (name == KernelVersionName(version)) {
      return version;
    }
    accepted += accepted.empty() ? "" : "|";
    accepted += KernelVersionName(version);
  }
  return InvalidArgument("unknown kernel version '" + std::string(name) +
                         "' (accepted: " + accepted + ")");
}

KernelConfig KernelConfig::ForVersion(KernelVersion version) {
  KernelConfig config;
  config.version = version;
  config.has_io_uring = VersionAtLeast(version, KernelVersion::kV5_6);
  config.has_kvm_smi = VersionAtLeast(version, KernelVersion::kV5_0);
  config.has_reiserfs = !VersionAtLeast(version, KernelVersion::kV5_0);
  config.has_rdma = true;
  config.has_memfd_seals = true;
  config.has_aio = true;
  return config;
}

}  // namespace healer
