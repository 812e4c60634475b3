// healer_postmortem — pretty-printer for crash postmortem bundles.
//
//   healer_postmortem BUNDLE_DIR [--journal N] [--all-metrics]
//
// Reads the bundle directory written by --postmortem-dir (see
// src/fuzz/postmortem.h for the layout) and prints a human-readable
// summary: the crash identity, the triggering program (and minimized
// reproducer when present), the tail of the flight-recorder window decoded
// from the compact binary frame, the relation state at trigger time,
// and a headline subset of the metrics snapshot. --all-metrics dumps every
// sample line instead of the headline subset.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/journal.h"
#include "src/base/sim_clock.h"

namespace {

using namespace healer;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void PrintIndented(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::printf("  %s\n", line.c_str());
  }
}

// The metric names worth a glance before opening the full snapshot.
const char* kHeadlineMetrics[] = {
    "healer_fuzz_execs_total",  "healer_coverage_branches",
    "healer_corpus_programs",   "healer_relations_total",
    "healer_crashes_unique",    "healer_exec_failed_total",
    "healer_vm_quarantines_total",
};

void PrintMetrics(const std::string& prom, bool all) {
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!all) {
      bool headline = false;
      for (const char* name : kHeadlineMetrics) {
        if (line.rfind(name, 0) == 0) {
          headline = true;
          break;
        }
      }
      if (!headline) {
        continue;
      }
    }
    std::printf("  %s\n", line.c_str());
  }
}

void PrintJournal(const std::vector<JournalRecord>& records, size_t n) {
  const size_t start = records.size() > n ? records.size() - n : 0;
  std::printf("journal (last %zu of %zu records):\n", records.size() - start,
              records.size());
  std::printf("  %10s %-16s %3s %10s %10s %10s %s\n", "sim-ms", "kind", "w",
              "a", "b", "c", "detail");
  for (size_t i = start; i < records.size(); ++i) {
    const JournalRecord& r = records[i];
    std::printf("  %10.3f %-16s %3u %10llu %10llu %10llu %s\n",
                static_cast<double>(r.at) /
                    static_cast<double>(SimClock::kMillisecond),
                JournalKindName(r.kind), r.worker,
                (unsigned long long)r.a, (unsigned long long)r.b,
                (unsigned long long)r.c, r.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  size_t journal_n = 32;
  bool all_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_n = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--all-metrics") == 0) {
      all_metrics = true;
    } else {
      dir = argv[i];
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: healer_postmortem BUNDLE_DIR [--journal N] "
                 "[--all-metrics]\n");
    return 2;
  }

  std::string text;
  if (!ReadFile(dir + "/crash.json", &text)) {
    std::fprintf(stderr, "%s: not a postmortem bundle (no crash.json)\n",
                 dir.c_str());
    return 1;
  }
  std::printf("=== postmortem bundle %s ===\n", dir.c_str());
  std::printf("crash:\n");
  PrintIndented(text);

  if (ReadFile(dir + "/program.txt", &text)) {
    std::printf("triggering program:\n");
    PrintIndented(text);
  }
  if (ReadFile(dir + "/repro.txt", &text)) {
    std::printf("minimized reproducer:\n");
    PrintIndented(text);
  } else {
    std::printf("minimized reproducer: (not yet written)\n");
  }

  if (ReadFile(dir + "/journal.bin", &text)) {
    std::vector<JournalRecord> records;
    if (JournalRecordsFromBinary(text, &records)) {
      PrintJournal(records, journal_n);
    } else {
      std::fprintf(stderr, "journal.bin: corrupt binary frame\n");
    }
  }

  if (ReadFile(dir + "/relations.json", &text)) {
    std::printf("relations:\n");
    PrintIndented(text);
  }
  if (ReadFile(dir + "/metrics.prom", &text)) {
    std::printf("metrics%s:\n", all_metrics ? "" : " (headline)");
    PrintMetrics(text, all_metrics);
  }
  return 0;
}
