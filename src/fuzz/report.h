// Human-readable campaign reports, syz-manager-status style: coverage,
// throughput, corpus composition, learned-relation summary, and a crash
// list with reproducer lengths. When the result carries a telemetry
// snapshot (CampaignResult::telemetry), the report reads its numbers from
// the snapshot so the two can never disagree.
//
// FormatStatusLine renders the one-line live status the campaign loop
// emits every --status-period simulated seconds.

#ifndef SRC_FUZZ_REPORT_H_
#define SRC_FUZZ_REPORT_H_

#include <string>
#include <vector>

#include "src/fuzz/campaign.h"
#include "src/vm/vm_pool.h"

namespace healer {

struct ReportOptions {
  bool include_samples = false;   // Appends the full coverage curve.
  bool include_relations = false; // Appends every learned relation edge.
  // Crash-list cap: 0 suppresses the per-crash lines entirely (the unique
  // count is always printed).
  size_t max_crashes = 64;
  // Coverage-curve cap: longer curves are evenly thinned to this many
  // sample lines (endpoints kept). 0 means unlimited.
  size_t max_samples = 96;
};

// Formats `result` as a multi-line text report.
std::string FormatCampaignReport(const CampaignResult& result,
                                 const ReportOptions& options = {});

// One sampled moment of a running campaign, for the live status line.
struct StatusLineInfo {
  double hours = 0.0;        // Simulated hours elapsed.
  uint64_t execs = 0;        // Fuzzing executions so far.
  double execs_per_sec = 0;  // Simulated throughput since the last line.
  size_t coverage = 0;
  size_t corpus = 0;
  size_t relations = 0;
  size_t crashes = 0;
  size_t vms = 0;
  uint64_t failed_execs = 0;  // Infra faults surfaced so far.
  uint64_t quarantines = 0;
  // Share of wall time SharedFuzzState::mu was held (parallel fuzzer only;
  // 0 for the single-threaded loop, where there is no shared lock).
  double lock_held_share = 0.0;
  // Per fuzzing execution so far: Alg. 1/2 and reproduction probes, and
  // programs shipped to guests (every other execution replays a call mask
  // over the guest's resident program).
  double probes_per_exec = 0.0;
  double images_per_exec = 0.0;
  // Per-shard fleet census (empty in the legacy pinned-pool topology).
  std::vector<FleetShardSummary> fleet;
};

// syz-manager style: "12.5h: execs 48123 (22/sec sim), cover 1234, ...".
// The lock share is appended when it is non-zero.
std::string FormatStatusLine(const StatusLineInfo& info);

// The same sample as a single-line JSON object (the /status endpoint body).
std::string FormatStatusJson(const StatusLineInfo& info);

// The report line on what analysis costs (the paper's §6.2 "a few extra
// executions"): probes and program transfers per fuzzing execution.
std::string FormatProbeLine(uint64_t fuzz_execs, uint64_t analysis_execs,
                            uint64_t images_shipped, uint64_t mask_replays);

}  // namespace healer

#endif  // SRC_FUZZ_REPORT_H_
