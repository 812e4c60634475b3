// Shared helpers for the HEALER test suite.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/kernel/errno.h"
#include "src/kernel/kernel.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {

// This process's resident set in bytes, from /proc/self/statm; 0 when that
// cannot be read, so footprint tests can skip.
inline uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return 0;
  }
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Drives a Kernel directly by syscall name, with helpers for staging
// argument data in guest memory. Gives subsystem tests precise control over
// raw argument words.
class KernelHarness {
 public:
  explicit KernelHarness(KernelVersion version = KernelVersion::kV5_11)
      : kernel_(KernelConfig::ForVersion(version)) {}

  explicit KernelHarness(const KernelConfig& config) : kernel_(config) {}

  Kernel& kernel() { return kernel_; }

  // Copies `data` into fresh guest memory; returns its guest address.
  uint64_t Stage(const void* data, uint64_t len) {
    const uint64_t addr = kernel_.mem().AllocData(len);
    kernel_.mem().Write(addr, data, len);
    return addr;
  }

  uint64_t StageString(const std::string& s) {
    return Stage(s.c_str(), s.size() + 1);
  }

  uint64_t StageU64(uint64_t value) { return Stage(&value, 8); }

  uint64_t StageU32(uint32_t value) { return Stage(&value, 4); }

  // Scratch output buffer of `len` zero bytes.
  uint64_t OutBuf(uint64_t len) {
    std::vector<uint8_t> zeros(len, 0);
    return Stage(zeros.data(), len);
  }

  // Executes `name` with up to 6 argument words.
  int64_t Call(const std::string& name, uint64_t a0 = 0, uint64_t a1 = 0,
               uint64_t a2 = 0, uint64_t a3 = 0, uint64_t a4 = 0,
               uint64_t a5 = 0) {
    const uint64_t args[6] = {a0, a1, a2, a3, a4, a5};
    return kernel_.ExecByName(name, args);
  }

  // Convenience: sockaddr_in {family=2, port, addr=0}.
  uint64_t StageSockaddr(uint16_t port) {
    uint8_t raw[8] = {2, 0, 0, 0, 0, 0, 0, 0};
    raw[2] = static_cast<uint8_t>(port & 0xff);
    raw[3] = static_cast<uint8_t>(port >> 8);
    return Stage(raw, sizeof(raw));
  }

 private:
  Kernel kernel_;
};

}  // namespace healer

#endif  // TESTS_TEST_UTIL_H_
