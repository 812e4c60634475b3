// Crash postmortem bundles: the black box that ships with every unique
// crash. When CrashDb sees a previously-unseen bug its on_new_crash hook
// assembles a PostmortemBundle — triggering program, the last-N flight-
// recorder window, a full metrics snapshot and the relation-table state —
// and writes it as one self-contained directory under --postmortem-dir:
//
//   bug-<id>-<slug>/
//     crash.json      bug id, title, trigger exec/time, campaign identity
//     program.txt     the triggering program (Prog::ToString)
//     journal.jsonl   newest <= kPostmortemJournalWindow journal records
//     journal.bin     the same window in the compact binary frame
//     metrics.prom    Prometheus text snapshot at trigger time
//     relations.json  epoch, edge counts by source, staged-delta backlog
//     repro.txt       minimized reproducer (appended after minimization)
//
// Every field is derived from simulated time and campaign state — never
// wall clock — so two same-seed campaigns write byte-identical bundles
// (tests/introspect_test.cc pins this).

#ifndef SRC_FUZZ_POSTMORTEM_H_
#define SRC_FUZZ_POSTMORTEM_H_

#include <string>
#include <vector>

#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/fuzz/crash_db.h"

namespace healer {

// Journal records captured into a bundle (newest window, oldest first).
inline constexpr size_t kPostmortemJournalWindow = 256;

struct PostmortemBundle {
  CrashRecord crash;
  // Campaign identity, so a bundle is interpretable standalone.
  uint64_t seed = 0;
  std::string tool;
  std::string program_text;  // Triggering program.
  std::vector<JournalRecord> journal_window;
  MetricsSnapshot metrics;
  uint64_t relation_epoch = 0;
  uint64_t relation_edges = 0;
  uint64_t relation_static = 0;
  uint64_t relation_dynamic = 0;
  // Learned-but-unpublished edges staged in deltas at trigger time.
  uint64_t relation_backlog = 0;
};

// Filesystem-safe directory slug for a crash title ("KASAN: use-after-free
// in tcp_close" -> "kasan-use-after-free-in-tcp-close", bounded length).
std::string PostmortemSlug(const std::string& title);

// Writes `bundle` under `dir` (created if needed) and returns the bundle
// directory path. An existing bundle directory for the same bug is
// overwritten file-by-file, which keeps re-runs idempotent.
Result<std::string> WritePostmortemBundle(const std::string& dir,
                                          const PostmortemBundle& bundle);

// Appends the minimized reproducer to an already-written bundle.
Status WritePostmortemRepro(const std::string& bundle_dir,
                            const std::string& repro_text);

}  // namespace healer

#endif  // SRC_FUZZ_POSTMORTEM_H_
