// Campaign driver: runs a fuzzer for a simulated wall-clock duration,
// sampling the coverage curve the way the paper samples each fuzzer's
// statistics every minute over 24 hours. Campaigns are pure functions of
// (tool, kernel version, seed, duration), which the benches exploit to run
// repeated rounds.

#ifndef SRC_FUZZ_CAMPAIGN_H_
#define SRC_FUZZ_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/fuzz/fuzzer.h"

namespace healer {

class IntrospectionHub;  // src/base/introspect_server.h

struct CampaignOptions {
  ToolKind tool = ToolKind::kHealer;
  KernelVersion version = KernelVersion::kV5_11;
  uint64_t seed = 1;
  double hours = 24.0;
  uint64_t max_execs = ~0ull;
  size_t num_vms = 2;
  // Total simulated guests / reactor shards; see FuzzerOptions::fleet_size.
  // 0 keeps the legacy pinned pool.
  size_t fleet_size = 0;
  size_t fleet_shards = 0;
  size_t moonshine_traces = 64;
  SimClock::Nanos sample_period = 5 * SimClock::kMinute;
  VmLatencyModel latency;
  // HEALER guidance ablation knobs (see GuidanceMode).
  GuidanceMode guidance = GuidanceMode::kDefault;
  double fixed_alpha = 0.8;
  // Deterministic fault injection (empty = fault-free) and recovery policy;
  // campaigns stay pure functions of (options, seed, plan).
  FaultPlan fault_plan;
  RecoveryPolicy recovery;
  // Optional corpus persistence: seed programs loaded before fuzzing
  // (either container, auto-detected), and the final corpus written after
  // it as HCORP1.
  std::string initial_corpus_path;
  std::string save_corpus_path;
  // Optional relation persistence: edges from a previous campaign loaded
  // into the table before fuzzing (warm start), and the final table written
  // after it (RelationTable::SaveToFile name-pair format).
  std::string initial_relations_path;
  std::string save_relations_path;
  // Live status: a one-line summary through the log sink every
  // `status_period` of simulated time (0 disables).
  SimClock::Nanos status_period = 0;
  // Flight-recorder ring capacity (0 disables journaling, spans included);
  // the buffered window is copied into CampaignResult::journal.
  size_t journal_capacity = 4096;
  // When non-empty, every unique crash writes a self-contained postmortem
  // bundle directory here (see postmortem.h).
  std::string postmortem_dir;
  // When non-null, the campaign publishes metrics / status / journal
  // snapshots into the hub at every sample point, for the introspection
  // server to answer from. Not owned.
  IntrospectionHub* introspect = nullptr;
};

struct CoverageSample {
  double hours = 0.0;
  size_t branches = 0;
  uint64_t execs = 0;
  size_t relations = 0;
};

struct CampaignResult {
  CampaignOptions options;
  std::vector<CoverageSample> samples;
  size_t final_coverage = 0;
  uint64_t fuzz_execs = 0;
  uint64_t total_execs = 0;  // Including minimization / learning runs.
  size_t corpus_size = 0;
  double corpus_mean_len = 0.0;
  std::vector<size_t> corpus_length_hist;  // Buckets 1,2,3,4,5+.
  std::vector<CrashRecord> crashes;
  size_t relations_total = 0;
  size_t relations_static = 0;
  size_t relations_dynamic = 0;
  // Edges warm-started from initial_relations_path (0 when not used).
  size_t relations_loaded = 0;
  std::vector<RelationEdge> relation_edges;  // Timestamped learn log.
  double final_alpha = 0.0;
  // Injected faults and recovery outcomes (all zero for fault-free runs).
  FaultStats faults;
  // Full metric-registry snapshot at campaign end (counters, gauges,
  // histograms). Use ToPrometheusText()/ToJson() to export.
  MetricsSnapshot telemetry;
  // Flight-recorder window at campaign end, oldest first (empty when
  // journal_capacity is 0). Seed-deterministic like every other field.
  std::vector<JournalRecord> journal;

  bool FoundBug(BugId bug) const;
};

CampaignResult RunCampaign(const CampaignOptions& options);

// Simulated hours at which `result` first reached `coverage` branches, or a
// negative value if it never did. Linear interpolation between samples.
double HoursToReach(const CampaignResult& result, size_t coverage);

}  // namespace healer

#endif  // SRC_FUZZ_CAMPAIGN_H_
