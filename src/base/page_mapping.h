// Anonymous private page mappings for buffers that are large but mostly
// untouched: the kernel hands out pages that read as zero and become
// resident only when first written, so a buffer costs resident memory in
// proportion to the pages its users actually touch, not its size.
//
// The guest's data window and shm region (GuestMem, ShmChannel) and the
// journal ring use it: each is sized for the worst case, and a typical
// program or campaign touches a few pages of it.

#ifndef SRC_BASE_PAGE_MAPPING_H_
#define SRC_BASE_PAGE_MAPPING_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace healer {

class PageMapping {
 public:
  // Maps `bytes` of demand-zero memory; 0 maps nothing. A buffer the
  // program cannot run without: a failed mapping aborts with a message.
  explicit PageMapping(size_t bytes);
  // Same, but a failed mapping leaves data() null, for owners that degrade
  // instead.
  PageMapping(size_t bytes, std::nothrow_t);
  ~PageMapping();

  PageMapping(const PageMapping&) = delete;
  PageMapping& operator=(const PageMapping&) = delete;

  uint8_t* data() const { return data_; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace healer

#endif  // SRC_BASE_PAGE_MAPPING_H_
