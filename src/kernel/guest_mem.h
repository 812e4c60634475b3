// Simulated guest user memory.
//
// The executor lays out argument data in a flat data window and the kernel's
// copy_{from,to}_user equivalents validate every access against it, so
// handlers have genuine EFAULT paths. A separate window models the guest's
// mmap address space; the mm subsystem only tracks page mappings there, so
// the VMA window has no backing store and accesses to it fault (like
// touching an unmapped page).
//
// GuestMem is pooled by the executor and reset between programs; Reset()
// clears only the high-water-marked region, keeping per-program cost
// proportional to actual usage. The data window is a demand-zero mapping
// (PageMapping): a fresh window reads as zero and only the pages programs
// touch become resident, so a guest pays for its programs' footprint, not
// for the window's 2 MiB.

#ifndef SRC_KERNEL_GUEST_MEM_H_
#define SRC_KERNEL_GUEST_MEM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/base/page_mapping.h"

namespace healer {

class GuestMem {
 public:
  static constexpr uint64_t kPageSize = 4096;
  // Argument data window: the executor bump-allocates pointees here.
  static constexpr uint64_t kDataBase = 0x10000000;
  static constexpr uint64_t kDataSize = 2 << 20;
  // VMA window: targets of mmap; vma-typed args point here.
  static constexpr uint64_t kVmaBase = 0x20000000;
  static constexpr uint64_t kVmaSize = 16 << 20;
  static constexpr uint64_t kVmaPages = kVmaSize / kPageSize;

  GuestMem() : data_(kDataSize) {}

  // Restores the pristine state between programs (clears only used bytes).
  void Reset() {
    if (brk_ > 0) {
      std::memset(data_.data(), 0, brk_);
    }
    brk_ = 0;
  }

  // Bump-allocates `len` bytes (8-byte aligned) in the data window;
  // returns 0 when exhausted.
  uint64_t AllocData(uint64_t len) {
    const uint64_t aligned = (len + 7) & ~7ULL;
    if (brk_ + aligned > kDataSize) {
      return 0;
    }
    const uint64_t addr = kDataBase + brk_;
    brk_ += aligned;
    return addr;
  }

  bool ValidRange(uint64_t addr, uint64_t len) const {
    return Window(addr, len) != nullptr;
  }

  bool Read(uint64_t addr, void* out, uint64_t len) const {
    const uint8_t* src = Window(addr, len);
    if (src == nullptr) {
      return false;
    }
    std::memcpy(out, src, len);
    return true;
  }

  bool Write(uint64_t addr, const void* in, uint64_t len) {
    uint8_t* dst = const_cast<uint8_t*>(Window(addr, len));
    if (dst == nullptr) {
      return false;
    }
    std::memcpy(dst, in, len);
    return true;
  }

  bool Read64(uint64_t addr, uint64_t* out) const {
    return Read(addr, out, 8);
  }
  bool Read32(uint64_t addr, uint32_t* out) const {
    return Read(addr, out, 4);
  }
  bool Write64(uint64_t addr, uint64_t value) {
    return Write(addr, &value, 8);
  }
  bool Write32(uint64_t addr, uint32_t value) {
    return Write(addr, &value, 4);
  }

  // Reads a NUL-terminated string of at most `max_len` bytes; false on an
  // invalid address or unterminated run.
  bool ReadString(uint64_t addr, uint64_t max_len, std::string* out) const {
    out->clear();
    for (uint64_t i = 0; i < max_len; ++i) {
      uint8_t c;
      if (!Read(addr + i, &c, 1)) {
        return false;
      }
      if (c == 0) {
        return true;
      }
      out->push_back(static_cast<char>(c));
    }
    return false;
  }

 private:
  // Returns a stable pointer into the data window covering [addr, addr+len),
  // or nullptr if out of range (including the unbacked VMA window).
  const uint8_t* Window(uint64_t addr, uint64_t len) const {
    if (addr >= kDataBase && addr + len <= kDataBase + kDataSize &&
        addr + len >= addr) {
      return data_.data() + (addr - kDataBase);
    }
    return nullptr;
  }

  PageMapping data_;
  uint64_t brk_ = 0;
};

}  // namespace healer

#endif  // SRC_KERNEL_GUEST_MEM_H_
