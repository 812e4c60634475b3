#include "src/fuzz/learner.h"

namespace healer {

size_t DynamicLearner::Learn(const Prog& minimized) {
  RelationDelta delta;
  if (LearnInto(minimized, &delta) == 0) {
    return 0;
  }
  return table_->Apply(delta);
}

size_t DynamicLearner::LearnInto(const Prog& minimized,
                                 RelationDelta* delta) {
  return LearnInto(ProgImage(minimized), CallMask(minimized.size(), 1),
                   delta);
}

size_t DynamicLearner::LearnInto(const ProgImage& base, const CallMask& keep,
                                 RelationDelta* delta) {
  // The sequence's calls, as indices into the base program.
  std::vector<size_t> seq;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] != 0) {
      seq.push_back(i);
    }
  }
  const size_t len = seq.size();
  if (len < 2) {
    return 0;
  }
  // Baseline per-call signals of the minimized sequence.
  ++execs_used_;
  const ExecResult baseline = exec_(base, keep);
  if (baseline.Failed() || baseline.calls.size() < len) {
    return 0;
  }

  const std::vector<Call>& calls = base.prog().calls();
  const std::shared_ptr<const RelationSnapshot> snap = table_->snapshot();
  CallMask cand = keep;
  size_t learned = 0;
  for (size_t idx = 1; idx < len; ++idx) {
    const int ci = calls[seq[idx - 1]].meta->id;
    const int cj = calls[seq[idx]].meta->id;
    // Line 6: skip pairs whose relation is already known (e.g. found by
    // static learning), either in the published snapshot or in the batch
    // this learner is building.
    if (snap->Contains(ci, cj) || delta->Contains(ci, cj)) {
      continue;
    }
    // Lines 7-8: remove C_i and re-execute.
    cand[seq[idx - 1]] = 0;
    ++execs_used_;
    const ExecResult res = exec_(base, cand);
    cand[seq[idx - 1]] = 1;
    if (res.Failed()) {
      // A faulted probe proves nothing about the relation — skipping the
      // pair keeps the table free of fault-induced edges.
      continue;
    }
    const size_t cj_pos = idx - 1;
    // Lines 9-10: if C_j's coverage changed, C_i influences C_j.
    const bool unchanged = cj_pos < res.calls.size() &&
                           res.calls[cj_pos].executed &&
                           res.calls[cj_pos].signal ==
                               baseline.calls[idx].signal;
    if (!unchanged) {
      if (delta->Add(ci, cj, RelationSource::kDynamic, clock_->now())) {
        ++learned;
      }
    }
  }
  return learned;
}

}  // namespace healer
