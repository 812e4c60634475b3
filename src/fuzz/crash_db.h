// Crash collection and deduplication. Crashes are deduplicated by bug id
// (standing in for syzkaller's report-title dedup) and keep the shortest
// reproducer length observed — the "Length to Reproduce" column of Table 4.

#ifndef SRC_FUZZ_CRASH_DB_H_
#define SRC_FUZZ_CRASH_DB_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/sim_clock.h"
#include "src/kernel/bugs.h"

namespace healer {

struct CrashRecord {
  BugId bug;
  std::string title;
  SimClock::Nanos first_seen = 0;
  uint64_t first_exec = 0;
  size_t shortest_repro = 0;
  uint64_t hits = 0;
};

class CrashDb {
 public:
  // Records one crash occurrence (one hit); `repro_len` is the triggering
  // program's length. Returns true if this bug was new.
  bool Record(BugId bug, const std::string& title, SimClock::Nanos when,
              uint64_t exec_index, size_t repro_len);
  // Lowers a recorded bug's shortest reproducer to `repro_len` (a minimized
  // reproducer's length). Not a crash occurrence: counts no hit.
  void NoteRepro(BugId bug, size_t repro_len);

  size_t UniqueBugs() const { return records_.size(); }
  bool Found(BugId bug) const { return records_.count(bug) != 0; }
  const CrashRecord* Find(BugId bug) const;

  std::vector<CrashRecord> All() const;

 private:
  std::map<BugId, CrashRecord> records_;
};

}  // namespace healer

#endif  // SRC_FUZZ_CRASH_DB_H_
