#include "src/fuzz/relation_table.h"

#include <algorithm>
#include <cstdio>

namespace healer {

bool RelationSnapshot::Contains(int from, int to) const {
  const int32_t* row = Row(from);
  const uint32_t deg = OutDegree(from);
  return std::binary_search(row, row + deg, static_cast<int32_t>(to));
}

bool RelationDelta::Add(int from, int to, RelationSource source,
                        SimClock::Nanos learned_at) {
  if (!seen_.insert(Key(from, to)).second) {
    return false;
  }
  edges_.push_back(RelationEdge{from, to, source, learned_at});
  return true;
}

void RelationDelta::clear() {
  edges_.clear();
  seen_.clear();
}

RelationTable::RelationTable(size_t num_syscalls)
    : n_(num_syscalls), cells_(num_syscalls * num_syscalls, 0) {
  // Publish the empty snapshot so readers never see a null pointer.
  auto snap = std::make_shared<RelationSnapshot>();
  snap->epoch_ = 0;
  snap->n_ = n_;
  snap->row_offset_.assign(n_ + 1, 0);
  snap->degree_.assign(n_, 0);
  snapshot_ = std::move(snap);
}

void RelationTable::PublishLocked() {
  auto snap = std::make_shared<RelationSnapshot>();
  snap->n_ = n_;
  // Bucket the edge log by row in O(n + E): count each row, prefix-sum the
  // counts into row offsets, scatter the columns (degree_ doubles as each
  // row's fill cursor), then sort every row. cells_ keeps the log free of
  // repeats, and ascending rows keep Contains() binary-searchable and the
  // selector's candidate order identical to a dense row scan.
  snap->row_offset_.assign(n_ + 1, 0);
  for (const RelationEdge& edge : edges_) {
    ++snap->row_offset_[static_cast<size_t>(edge.from) + 1];
  }
  for (size_t from = 0; from < n_; ++from) {
    snap->row_offset_[from + 1] += snap->row_offset_[from];
  }
  snap->degree_.assign(n_, 0);
  snap->cols_.resize(edges_.size());
  for (const RelationEdge& edge : edges_) {
    const size_t from = static_cast<size_t>(edge.from);
    snap->cols_[snap->row_offset_[from] + snap->degree_[from]++] = edge.to;
  }
  for (size_t from = 0; from < n_; ++from) {
    std::sort(snap->cols_.begin() + snap->row_offset_[from],
              snap->cols_.begin() + snap->row_offset_[from + 1]);
  }
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  snap->epoch_ = epoch;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snap);
  }
  // Publish the epoch after the pointer swap: a reader that sees the new
  // epoch and refreshes is guaranteed to copy the new (or a newer) pointer.
  epoch_.store(epoch, std::memory_order_release);
}

std::shared_ptr<const RelationSnapshot> RelationTable::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool RelationTable::Get(int from, int to) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return cells_[Index(from, to)] != 0;
}

bool RelationTable::Set(int from, int to, RelationSource source,
                        SimClock::Nanos learned_at) {
  std::lock_guard<std::mutex> lock(write_mu_);
  uint8_t& cell = cells_[Index(from, to)];
  if (cell != 0) {
    return false;
  }
  cell = 1;
  edges_.push_back(RelationEdge{from, to, source, learned_at});
  num_edges_.store(edges_.size(), std::memory_order_relaxed);
  PublishLocked();
  return true;
}

size_t RelationTable::Apply(const RelationDelta& delta) {
  if (delta.empty()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  size_t added = 0;
  for (const RelationEdge& edge : delta.edges()) {
    uint8_t& cell = cells_[Index(edge.from, edge.to)];
    if (cell != 0) {
      continue;  // Another batch already published this edge: zero credit.
    }
    cell = 1;
    edges_.push_back(edge);
    ++added;
  }
  if (added == 0) {
    return 0;  // Nothing new: no republish, no epoch bump.
  }
  num_edges_.store(edges_.size(), std::memory_order_relaxed);
  PublishLocked();
  return added;
}

size_t RelationTable::CountBySource(RelationSource source) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return static_cast<size_t>(
      std::count_if(edges_.begin(), edges_.end(),
                    [&](const RelationEdge& e) { return e.source == source; }));
}

std::vector<RelationEdge> RelationTable::EdgesBefore(
    SimClock::Nanos cutoff) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  std::vector<RelationEdge> out;
  for (const RelationEdge& edge : edges_) {
    if (edge.learned_at <= cutoff) {
      out.push_back(edge);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RelationEdge& a, const RelationEdge& b) {
              return a.learned_at < b.learned_at;
            });
  return out;
}

std::vector<RelationEdge> RelationTable::EdgesFrom(size_t start) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (start >= edges_.size()) {
    return {};
  }
  return std::vector<RelationEdge>(
      edges_.begin() + static_cast<ptrdiff_t>(start), edges_.end());
}

std::vector<int> RelationTable::InfluencedBy(int from) const {
  const std::shared_ptr<const RelationSnapshot> snap = snapshot();
  const int32_t* row = snap->Row(from);
  return std::vector<int>(row, row + snap->OutDegree(from));
}

namespace {

// True when producing `produced` is a *specific* way to satisfy `wanted`:
// either the exact kind, or `wanted` is itself a specific (non-root) kind
// that `produced` inherits from. Pairs related only through a root kind
// (e.g. any-fd-producer -> close(fd)) convey no influence information —
// every call would be related to every other — and are left to dynamic
// learning, which only records influences it has actually observed.
bool SpecificMatch(const ResourceDesc* produced, const ResourceDesc* wanted) {
  if (produced == wanted) {
    return wanted->parent != nullptr || produced == wanted;
  }
  return wanted->parent != nullptr && produced->IsCompatibleWith(wanted);
}

}  // namespace

Status RelationTable::SaveToFile(const std::string& path,
                                 const Target& target) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal("cannot open relation file for writing");
  }
  for (const RelationEdge& edge : EdgesBefore()) {
    std::fprintf(f, "%s %s\n", target.syscall(edge.from).name.c_str(),
                 target.syscall(edge.to).name.c_str());
  }
  std::fclose(f);
  return OkStatus();
}

Result<size_t> RelationTable::LoadFromFile(const std::string& path,
                                           const Target& target) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return NotFound("cannot open relation file");
  }
  RelationDelta delta;
  char from_name[256];
  char to_name[256];
  while (std::fscanf(f, "%255s %255s", from_name, to_name) == 2) {
    const Syscall* from = target.FindSyscall(from_name);
    const Syscall* to = target.FindSyscall(to_name);
    if (from == nullptr || to == nullptr) {
      continue;  // Description changed since the table was saved.
    }
    delta.Add(from->id, to->id, RelationSource::kDynamic, 0);
  }
  std::fclose(f);
  return Apply(delta);
}

size_t StaticRelationLearn(const Target& target, RelationTable* table) {
  RelationDelta delta;
  const size_t n = target.NumSyscalls();
  for (size_t i = 0; i < n; ++i) {
    const Syscall& producer = target.syscall(static_cast<int>(i));
    if (producer.produced_resources.empty()) {
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      const Syscall& consumer = target.syscall(static_cast<int>(j));
      bool influences = false;
      for (const ResourceDesc* produced : producer.produced_resources) {
        for (const ResourceDesc* wanted : consumer.consumed_resources) {
          if (SpecificMatch(produced, wanted)) {
            influences = true;
            break;
          }
        }
        if (influences) {
          break;
        }
      }
      if (influences) {
        delta.Add(static_cast<int>(i), static_cast<int>(j),
                  RelationSource::kStatic, 0);
      }
    }
  }
  return table->Apply(delta);
}

}  // namespace healer
