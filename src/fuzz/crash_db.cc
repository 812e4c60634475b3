#include "src/fuzz/crash_db.h"

#include <algorithm>

namespace healer {

bool CrashDb::Record(BugId bug, const std::string& title,
                     SimClock::Nanos when, uint64_t exec_index,
                     size_t repro_len) {
  auto it = records_.find(bug);
  if (it != records_.end()) {
    ++it->second.hits;
    it->second.shortest_repro =
        std::min(it->second.shortest_repro, repro_len);
    return false;
  }
  CrashRecord record;
  record.bug = bug;
  record.title = title;
  record.first_seen = when;
  record.first_exec = exec_index;
  record.shortest_repro = repro_len;
  record.hits = 1;
  records_.emplace(bug, std::move(record));
  return true;
}

void CrashDb::NoteRepro(BugId bug, size_t repro_len) {
  auto it = records_.find(bug);
  if (it != records_.end()) {
    it->second.shortest_repro =
        std::min(it->second.shortest_repro, repro_len);
  }
}

const CrashRecord* CrashDb::Find(BugId bug) const {
  auto it = records_.find(bug);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<CrashRecord> CrashDb::All() const {
  std::vector<CrashRecord> out;
  out.reserve(records_.size());
  for (const auto& [bug, record] : records_) {
    out.push_back(record);
  }
  std::sort(out.begin(), out.end(),
            [](const CrashRecord& a, const CrashRecord& b) {
              return a.first_seen < b.first_seen;
            });
  return out;
}

}  // namespace healer
