// Bump-pointer region allocator for the fuzzing hot path. Generate/mutate/
// minimize inner loops build candidate Arg trees at a rate of thousands of
// nodes per second; allocating each node with operator new makes the malloc
// lock and cache-cold freelists the dominant cost (see BENCH_hotpath.json).
// A ProgArena hands out node storage by bumping a pointer through large
// chunks and reclaims everything at once with Reset(), so a candidate
// program costs zero per-node mallocs in steady state.
//
// Lifetime rules (see DESIGN.md §11):
//  - Arena-backed Args are tagged (Arg::arena_owned); their ArgPtr deleter
//    runs ~Arg() — freeing heap members like `data`/`inner` — but leaves the
//    node bytes to the arena.
//  - Reset() invalidates every node handed out since the last Reset. The
//    caller must ensure no arena-backed Arg is alive across a Reset; in the
//    fuzzers this holds because candidates are Step-scoped and anything that
//    survives into the corpus is deep-copied to heap storage first
//    (minimizer/reproducer select it with SelectCalls into heap storage).
//  - Chunks grow monotonically and are retained by Reset(), so a warmed
//    arena never touches malloc again until a larger-than-ever program
//    appears.

#ifndef SRC_PROG_ARENA_H_
#define SRC_PROG_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace healer {

class ProgArena {
 public:
  // First chunk size; subsequent chunks double up to kMaxChunkBytes.
  static constexpr size_t kInitialChunkBytes = 16 * 1024;
  static constexpr size_t kMaxChunkBytes = 1024 * 1024;

  ProgArena() = default;
  ProgArena(const ProgArena&) = delete;
  ProgArena& operator=(const ProgArena&) = delete;

  // Returns `size` bytes aligned to `align` (a power of two). Never fails
  // short of OOM (which aborts, matching allocator behavior elsewhere).
  // The in-chunk case is inline — align, bounds-check, bump — so a New<T>
  // from the generator loop compiles to a few arithmetic ops on the cached
  // cursor; chunk exhaustion and growth stay out of line.
  void* Allocate(size_t size, size_t align) {
    if (size == 0) size = 1;
    if (align == 0) align = 1;
    const uintptr_t at = (reinterpret_cast<uintptr_t>(ptr_) + align - 1) &
                         ~(static_cast<uintptr_t>(align) - 1);
    if (at + size <= reinterpret_cast<uintptr_t>(end_)) {
      ptr_ = reinterpret_cast<char*>(at + size);
      bytes_allocated_ += size;
      return reinterpret_cast<void*>(at);
    }
    return AllocateSlow(size, align);
  }

  // Constructs a T in arena storage. The caller owns destruction (for Arg
  // this is the ArgPtr deleter); the bytes are reclaimed by Reset().
  template <typename T, typename... A>
  T* New(A&&... args) {
    void* mem = Allocate(sizeof(T), alignof(T));
    return ::new (mem) T(std::forward<A>(args)...);
  }

  // Rewinds every chunk to empty without releasing memory. All nodes handed
  // out since the previous Reset become dangling.
  void Reset();

  // Stats for benchmarking and tests.
  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t chunk_count() const { return chunks_.size(); }
  uint64_t reset_count() const { return reset_count_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> base;
    size_t capacity = 0;
    size_t used = 0;
  };

  // Cold path: writes the cursor back into the current chunk, then walks
  // retained chunks / grows until the request fits.
  void* AllocateSlow(size_t size, size_t align);

  // Appends a chunk able to hold at least `min_bytes` and makes it current.
  void Grow(size_t min_bytes);

  std::vector<Chunk> chunks_;
  // Bump cursor into chunks_[current_]: next free byte and one-past-the-end.
  // Both null while the arena is empty, which safely fails the inline bounds
  // check and routes the first allocation to AllocateSlow.
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t current_ = 0;          // Index of the chunk being bumped.
  size_t bytes_allocated_ = 0;  // Since last Reset, rounded up per alignment.
  size_t bytes_reserved_ = 0;   // Sum of chunk capacities (monotonic).
  uint64_t reset_count_ = 0;
};

}  // namespace healer

#endif  // SRC_PROG_ARENA_H_
