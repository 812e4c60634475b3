// Fuzzer <-> executor transport, modelled on HEALER's architecture (Fig. 3):
// test cases travel through an ivshmem-style shared-memory region in the
// compact serialized representation, while a small control socket carries
// handshakes and command/status frames.

#ifndef SRC_EXEC_SHM_CHANNEL_H_
#define SRC_EXEC_SHM_CHANNEL_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/page_mapping.h"

namespace healer {

// The shared-memory data plane. One in-flight program at a time, like the
// paper's per-VM region. The region is a demand-zero mapping: a fresh one
// reads as an empty program, and only the pages requests reach become
// resident.
class ShmChannel {
 public:
  static constexpr size_t kSize = 1 << 20;

  ShmChannel() : region_(kSize) {}

  // Copies a serialized program into the region. False when it won't fit.
  bool WriteProg(const std::vector<uint8_t>& bytes) {
    if (bytes.size() + 8 > kSize) {
      return false;
    }
    const uint64_t len = bytes.size();
    std::memcpy(region_.data(), &len, 8);
    if (!bytes.empty()) {
      std::memcpy(region_.data() + 8, bytes.data(), bytes.size());
    }
    return true;
  }

  const uint8_t* prog_data() const { return region_.data() + 8; }
  // The guest-written length word is untrusted: a value the region cannot
  // hold reads as 0, so RunSerialized sees an empty (cleanly rejected)
  // program instead of reading past the mapping.
  size_t prog_size() const {
    uint64_t len;
    std::memcpy(&len, region_.data(), 8);
    return len <= kSize - 8 ? static_cast<size_t>(len) : 0;
  }

  // Raw region access for hostile-guest tests and fault injection; the
  // production path only ever writes through WriteProg.
  uint8_t* raw() { return region_.data(); }

 private:
  PageMapping region_;
};

// The control plane: an in-memory duplex frame queue standing in for the
// QEMU control socket.
enum class CtrlKind : uint8_t {
  kHandshake = 1,
  kHandshakeAck = 2,
  kExecRequest = 3,
  kExecReply = 4,
  kCrashNotice = 5,
};

struct CtrlFrame {
  CtrlKind kind;
  uint64_t payload = 0;
};

class ControlSocket {
 public:
  // A real socket has a finite buffer; an unbounded frame queue lets a
  // babbling guest exhaust host memory. Frames past the cap are dropped and
  // counted (surfaced as healer_ctrl_overflow_total when a registry is
  // attached).
  static constexpr size_t kMaxPending = 1024;

  void Send(CtrlFrame frame) {
    if (queue_.size() >= kMaxPending) {
      ++overflows_;
      if (overflow_counter_ != nullptr) {
        overflow_counter_->Add();
      }
      return;
    }
    queue_.push_back(frame);
  }

  bool Recv(CtrlFrame* frame) {
    if (queue_.empty()) {
      return false;
    }
    *frame = queue_.front();
    queue_.pop_front();
    return true;
  }

  bool empty() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }
  uint64_t overflows() const { return overflows_; }

  // Optional telemetry hookup; the counter must outlive the socket.
  void set_overflow_counter(Counter* counter) { overflow_counter_ = counter; }

 private:
  std::deque<CtrlFrame> queue_;
  uint64_t overflows_ = 0;
  Counter* overflow_counter_ = nullptr;
};

}  // namespace healer

#endif  // SRC_EXEC_SHM_CHANNEL_H_
