// Test-case representation: a Prog is a sequence of Calls whose arguments
// form typed trees. Resource arguments refer to earlier calls by index and
// result slot, so removing a call rewrites later references — the operation
// at the heart of HEALER's minimization (Algorithm 1) and dynamic relation
// learning (Algorithm 2).

#ifndef SRC_PROG_PROG_H_
#define SRC_PROG_PROG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/syzlang/target.h"
#include "src/syzlang/types.h"

namespace healer {

enum class ArgKind {
  kConstant,  // Scalar value (int/const/flags/len).
  kData,      // Raw bytes (buffer/string/filename).
  kPointer,   // Guest pointer to a pointee arg; null when pointee absent.
  kGroup,     // Struct or array: ordered children.
  kUnion,     // One active child.
  kResource,  // Value produced by an earlier call, or a special value.
  kVma,       // Page-aligned address + page count in the VMA window.
};

class ProgArena;

struct Arg;

// Args live either on the heap (reproducers, exported and loaded programs)
// or in a ProgArena (Step-scoped candidates); the corpus keeps programs as
// wire images, not trees. The deleter dispatches per node: arena nodes run
// ~Arg() only — releasing heap members like `data`/`inner` — while the node
// bytes are reclaimed wholesale by ProgArena::Reset().
struct ArgDeleter {
  void operator()(Arg* arg) const;
};
using ArgPtr = std::unique_ptr<Arg, ArgDeleter>;

struct Arg {
  const Type* type = nullptr;
  ArgKind kind = ArgKind::kConstant;

  // kConstant: the value. kVma: the address.
  uint64_t val = 0;
  // kVma: mapping length in pages.
  uint64_t vma_pages = 1;
  // kData.
  std::vector<uint8_t> data;
  // kPointer: pointee (nullptr encodes a null pointer).
  ArgPtr pointee;
  // kGroup / kUnion children.
  std::vector<ArgPtr> inner;
  // kUnion: index of the active field within type->fields.
  int union_index = 0;
  // kResource: index of the producing call within the Prog, or -1 when the
  // value is a resource special (held in val). `res_slot` selects which of
  // the producer's result slots is consumed (0 = return value, 1+ = out
  // parameters in discovery order).
  int res_ref = -1;
  int res_slot = 0;

  // True when this node's storage belongs to a ProgArena (see ArgDeleter).
  bool arena_owned = false;

  ArgPtr Clone() const;
  // Deep copy with nodes placed in `arena` (nullptr → heap, same as Clone).
  // Heap members (`data`, `inner` backing stores) always come from malloc;
  // only the Arg nodes themselves are region-allocated.
  ArgPtr CloneInto(ProgArena* arena) const;

  // Byte size this arg occupies when serialized into guest memory.
  uint64_t Size() const;
};

inline void ArgDeleter::operator()(Arg* arg) const {
  if (arg == nullptr) return;
  if (arg->arena_owned) {
    arg->~Arg();
  } else {
    delete arg;
  }
}

// Every factory takes an optional arena; nullptr (the default) allocates the
// node on the heap, preserving all pre-arena call sites.
ArgPtr MakeConstant(const Type* type, uint64_t val, ProgArena* arena = nullptr);
ArgPtr MakeData(const Type* type, std::vector<uint8_t> data,
                ProgArena* arena = nullptr);
ArgPtr MakePointer(const Type* type, ArgPtr pointee,
                   ProgArena* arena = nullptr);
ArgPtr MakeNullPointer(const Type* type, ProgArena* arena = nullptr);
ArgPtr MakeGroup(const Type* type, std::vector<ArgPtr> inner,
                 ProgArena* arena = nullptr);
ArgPtr MakeUnion(const Type* type, int index, ArgPtr inner,
                 ProgArena* arena = nullptr);
ArgPtr MakeResourceRef(const Type* type, int call_index, int slot,
                       ProgArena* arena = nullptr);
ArgPtr MakeResourceSpecial(const Type* type, uint64_t val,
                           ProgArena* arena = nullptr);
ArgPtr MakeVma(const Type* type, uint64_t addr, uint64_t pages,
               ProgArena* arena = nullptr);

struct Call {
  const Syscall* meta = nullptr;
  std::vector<ArgPtr> args;

  Call() = default;
  Call(Call&&) = default;
  Call& operator=(Call&&) = default;
  Call Clone() const;
  Call CloneInto(ProgArena* arena) const;
};

class Prog {
 public:
  Prog() = default;
  explicit Prog(const Target* target) : target_(target) {}
  Prog(Prog&&) = default;
  Prog& operator=(Prog&&) = default;

  const Target* target() const { return target_; }
  std::vector<Call>& calls() { return calls_; }
  const std::vector<Call>& calls() const { return calls_; }
  size_t size() const { return calls_.size(); }
  bool empty() const { return calls_.empty(); }

  Prog Clone() const;
  // Deep copy with Arg nodes placed in `arena` (nullptr → heap). The copy
  // must not outlive the arena's next Reset().
  Prog CloneInto(ProgArena* arena) const;

  // Removes call `index`. Resource args referring to it degrade to their
  // kind's special value; references to later calls shift down by one.
  void RemoveCall(size_t index);

  // Keeps only calls [0, count).
  void Truncate(size_t count);

  // Recomputes every len-typed argument from its sibling (after buffer
  // mutations change sizes). Array-typed len targets count elements;
  // buffers/strings count bytes; vma targets count mapped bytes.
  void FixupLens();

  // Validates internal consistency (resource refs in range and pointing at
  // producers of a compatible kind, len targets resolvable). Returns a
  // descriptive error for corrupted programs.
  Status Validate() const;

  // Human-readable single-line-per-call form, e.g.
  //   r0 = memfd_create(&"mfd0", 0x2)
  std::string ToString() const;

 private:
  const Target* target_ = nullptr;
  std::vector<Call> calls_;
};

// Which calls of a program one execution keeps: keep[i] == 1 runs call i,
// keep[i] == 0 drops it. Algorithm 1/2 probes and crash reproduction are
// masks over the program the fuzzing execution ran (DESIGN.md §9).
using CallMask = std::vector<uint8_t>;

// The program `keep` selects from `prog`, built in one pass (nodes in
// `arena`; nullptr → heap). Resource args referring to a dropped call
// degrade to their kind's special value and later references shift down:
// the result is identical to applying RemoveCall to every dropped call.
// `keep` must have one entry per call.
Prog SelectCalls(const Prog& prog, const CallMask& keep,
                 ProgArena* arena = nullptr);

// Computes the value a len-typed field should take for sibling `target`.
uint64_t LenValueFor(const Arg& target);

// Invokes `fn` on every arg in the call's tree (pre-order).
void ForEachArg(Call& call, const std::function<void(Arg&)>& fn);
void ForEachArg(const Call& call, const std::function<void(const Arg&)>& fn);

}  // namespace healer

#endif  // SRC_PROG_PROG_H_
