#include "src/base/page_mapping.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace healer {

PageMapping::PageMapping(size_t bytes, std::nothrow_t) {
  if (bytes == 0) {
    return;
  }
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    return;
  }
  // With transparent huge pages always on, the first touch of a 2 MiB
  // aligned range would make all of it resident. Advice only: a kernel
  // without THP rejects it, and the mapping works the same.
  madvise(mem, bytes, MADV_NOHUGEPAGE);
  data_ = static_cast<uint8_t*>(mem);
  size_ = bytes;
}

PageMapping::PageMapping(size_t bytes) : PageMapping(bytes, std::nothrow) {
  if (bytes != 0 && data_ == nullptr) {
    std::fprintf(stderr, "healer: mapping %zu bytes failed: %s\n", bytes,
                 std::strerror(errno));
    std::abort();
  }
}

PageMapping::~PageMapping() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

}  // namespace healer
