#include "src/fuzz/corpus.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string_view>
#include <utility>

namespace healer {

namespace {

constexpr size_t Lowbit(size_t i) { return i & (~i + 1); }

// Appends a new leaf with weight `v` to a 1-based Fenwick tree of current
// size n = f->size() - 1. The new node at index n+1 covers the range
// (n+1 - lowbit(n+1), n+1], whose sum is v plus the already-stored nodes
// tiling the rest of that range.
void FenwickAppend(std::vector<uint64_t>* f, uint64_t v) {
  const size_t i = f->size();
  uint64_t t = v;
  for (size_t j = i - 1; j > i - Lowbit(i); j -= Lowbit(j)) {
    t += (*f)[j];
  }
  f->push_back(t);
}

void FenwickAdd(std::vector<uint64_t>* f, size_t i, uint64_t delta) {
  for (; i < f->size(); i += Lowbit(i)) {
    (*f)[i] += delta;  // Unsigned wraparound handles negative deltas.
  }
}

// Returns the 0-based index of the entry whose priority range contains
// `roll` (0 <= roll < total): the largest pos with prefix_sum(pos) <= roll.
size_t FenwickPick(const std::vector<uint64_t>& f, uint64_t roll) {
  const size_t n = f.size() - 1;
  size_t pos = 0;
  for (size_t bit = std::bit_floor(n); bit != 0; bit >>= 1) {
    const size_t next = pos + bit;
    if (next <= n && f[next] <= roll) {
      pos = next;
      roll -= f[next];
    }
  }
  return pos;  // pos entries lie fully below the roll; pick entry #pos.
}

}  // namespace

StoredProg::StoredProg(const Prog& prog)
    : target_(prog.target()),
      bytes_(SerializeProg(prog)),
      hash_(Corpus::ContentHash(bytes_)),
      calls_(static_cast<uint32_t>(prog.size())) {
  // The encoder's buffer grows ahead of the bytes; an entry at rest keeps
  // only the image.
  bytes_.shrink_to_fit();
}

StoredProg::StoredProg(const Target& target, std::vector<uint8_t> bytes,
                       size_t calls)
    : target_(&target),
      bytes_(std::move(bytes)),
      hash_(Corpus::ContentHash(bytes_)),
      calls_(static_cast<uint32_t>(calls)) {}

Prog StoredProg::CloneInto(ProgArena* arena) const {
  // The bytes came from SerializeProg or passed DecodedImage::Decode, so
  // they decode.
  Result<Prog> prog =
      DeserializeProg(*target_, bytes_.data(), bytes_.size(), arena);
  assert(prog.ok());
  return prog.ok() ? std::move(*prog) : Prog(target_);
}

const StoredProg& CorpusSnapshot::Choose(Rng* rng) const {
  assert(!progs.empty());
  return *progs[FenwickPick(fenwick, rng->Below(total_priority))];
}

uint64_t Corpus::ContentHash(const std::vector<uint8_t>& bytes) {
  return FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

uint64_t Corpus::ContentHash(const Prog& prog) {
  return ContentHash(SerializeProg(prog));
}

bool Corpus::Add(const Prog& prog, uint32_t priority) {
  if (entries_.size() >= kMaxEntries || prog.empty()) {
    return false;
  }
  return Add(StoredProg(prog), priority);
}

bool Corpus::Add(StoredProg prog, uint32_t priority) {
  if (entries_.size() >= kMaxEntries || prog.size() == 0) {
    return false;
  }
  if (!hashes_.insert(prog.hash()).second) {
    return false;
  }
  priority = std::max<uint32_t>(priority, 1);
  total_priority_ += priority;
  FenwickAppend(&fenwick_, priority);
  entries_.push_back(
      Entry{std::make_shared<const StoredProg>(std::move(prog)), priority});
  return true;
}

const StoredProg& Corpus::Choose(Rng* rng) const {
  assert(!entries_.empty());
  return *entries_[FenwickPick(fenwick_, rng->Below(total_priority_))].prog;
}

void Corpus::UpdatePriority(size_t index, uint32_t priority) {
  assert(index < entries_.size());
  priority = std::max<uint32_t>(priority, 1);
  Entry& entry = entries_[index];
  const uint64_t delta = static_cast<uint64_t>(priority) -
                         static_cast<uint64_t>(entry.priority);
  if (delta == 0) {
    return;
  }
  entry.priority = priority;
  total_priority_ += delta;
  FenwickAdd(&fenwick_, index + 1, delta);
}

std::shared_ptr<const CorpusSnapshot> Corpus::Snapshot() const {
  auto snap = std::make_shared<CorpusSnapshot>();
  snap->progs.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    snap->progs.push_back(entry.prog);
  }
  snap->fenwick = fenwick_;
  snap->total_priority = total_priority_;
  return snap;
}

std::vector<size_t> Corpus::LengthHistogram() const {
  std::vector<size_t> hist(5, 0);
  for (const Entry& entry : entries_) {
    const size_t len = entry.prog->size();
    if (len == 0) {
      continue;
    }
    hist[std::min<size_t>(len, 5) - 1] += 1;
  }
  return hist;
}

std::vector<Prog> Corpus::ExportAll() const {
  std::vector<Prog> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.prog->Clone());
  }
  return out;
}

double Corpus::MeanLength() const {
  if (entries_.empty()) {
    return 0.0;
  }
  size_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.prog->size();
  }
  return static_cast<double>(total) /
         static_cast<double>(entries_.size());
}

}  // namespace healer
