#include "src/fuzz/campaign.h"

#include <algorithm>

#include "src/base/introspect_server.h"
#include "src/base/logging.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/report.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {

bool CampaignResult::FoundBug(BugId bug) const {
  return std::any_of(crashes.begin(), crashes.end(),
                     [&](const CrashRecord& r) { return r.bug == bug; });
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  const Target& target = BuiltinTarget();
  FuzzerOptions fuzz_options;
  fuzz_options.tool = options.tool;
  fuzz_options.version = options.version;
  fuzz_options.seed = options.seed;
  fuzz_options.num_vms = options.num_vms;
  fuzz_options.fleet_size = options.fleet_size;
  fuzz_options.fleet_shards = options.fleet_shards;
  fuzz_options.latency = options.latency;
  fuzz_options.moonshine_traces = options.moonshine_traces;
  fuzz_options.guidance = options.guidance;
  fuzz_options.fixed_alpha = options.fixed_alpha;
  fuzz_options.fault_plan = options.fault_plan;
  fuzz_options.recovery = options.recovery;
  fuzz_options.transport = options.transport;
  fuzz_options.trace_capacity =
      options.capture_trace ? options.trace_capacity : 0;
  fuzz_options.journal_capacity = options.journal_capacity;
  fuzz_options.postmortem_dir = options.postmortem_dir;
  Fuzzer fuzzer(target, fuzz_options);

  size_t relations_loaded = 0;
  if (!options.initial_relations_path.empty()) {
    Result<size_t> loaded =
        fuzzer.LoadRelations(options.initial_relations_path);
    if (loaded.ok()) {
      relations_loaded = *loaded;
    } else {
      LOG_WARNING << "failed to load initial relations: "
                  << loaded.status().ToString();
    }
  }

  if (!options.initial_corpus_path.empty()) {
    Result<std::vector<Prog>> seeds =
        LoadProgs(options.initial_corpus_path, target);
    if (seeds.ok()) {
      fuzzer.SeedWith(*seeds);
    } else {
      LOG_WARNING << "failed to load initial corpus: "
                  << seeds.status().ToString();
    }
  }

  const SimClock::Nanos deadline = static_cast<SimClock::Nanos>(
      options.hours * static_cast<double>(SimClock::kHour));

  CampaignResult result;
  result.options = options;
  SimClock::Nanos next_sample = 0;

  // Live status bookkeeping (status line + /status endpoint).
  SimClock::Nanos next_status = options.status_period;
  uint64_t last_status_execs = 0;
  SimClock::Nanos last_status_time = 0;
  auto make_status = [&] {
    StatusLineInfo info;
    info.hours = fuzzer.clock().hours();
    info.execs = fuzzer.FuzzExecs();
    const SimClock::Nanos dt = fuzzer.clock().now() - last_status_time;
    if (dt > 0) {
      info.execs_per_sec = static_cast<double>(info.execs -
                                               last_status_execs) *
                           static_cast<double>(SimClock::kSecond) /
                           static_cast<double>(dt);
    }
    info.coverage = fuzzer.CoverageCount();
    info.corpus = fuzzer.corpus().size();
    info.relations = fuzzer.relations().Count();
    info.crashes = fuzzer.crashes().UniqueBugs();
    info.vms = fuzzer.pool().size();
    if (fuzzer.pool().fleet()) {
      info.fleet = fuzzer.pool().ShardSummaries();
    }
    const FaultStats faults = fuzzer.fault_stats();
    info.failed_execs = faults.failed_execs;
    info.quarantines = faults.quarantines;
    // Ring/pipeline occupancy and lock share, read from the registry so the
    // status line can never disagree with /metrics.
    const MetricsSnapshot snap = fuzzer.metrics().Snapshot();
    info.ring_drains = snap.counter("healer_ring_drains_total");
    const auto drain_hist = snap.histograms.find("healer_ring_drain_programs");
    if (drain_hist != snap.histograms.end() && drain_hist->second.count > 0) {
      info.ring_depth_mean = static_cast<double>(drain_hist->second.sum) /
                             static_cast<double>(drain_hist->second.count);
    }
    info.ring_stalls = snap.counter("healer_ring_stalls_total");
    info.lock_held_share = snap.gauge("healer_parallel_lock_held_share");
    if (info.execs > 0) {
      const double execs = static_cast<double>(info.execs);
      info.probes_per_exec =
          static_cast<double>(snap.counter("healer_exec_analysis_total")) /
          execs;
      info.images_per_exec =
          static_cast<double>(
              snap.counter("healer_exec_images_shipped_total")) /
          execs;
    }
    return info;
  };
  auto emit_status = [&] {
    const StatusLineInfo info = make_status();
    LogToSink(LogLevel::kInfo, FormatStatusLine(info));
    last_status_execs = info.execs;
    last_status_time = fuzzer.clock().now();
  };

  // Snapshot publication for the introspection server: whole documents,
  // assembled off the hot path and swapped into the hub.
  auto publish = [&] {
    if (options.introspect == nullptr) {
      return;
    }
    fuzzer.RefreshGauges();
    options.introspect->PublishMetrics(fuzzer.metrics().ToPrometheusText());
    options.introspect->PublishStatus(FormatStatusJson(make_status()));
    options.introspect->PublishJournal(fuzzer.journal().ToJsonl(256));
    options.introspect->SetHealthy(true);
  };

  auto sample = [&] {
    CoverageSample s;
    s.hours = fuzzer.clock().hours();
    s.branches = fuzzer.CoverageCount();
    s.execs = fuzzer.FuzzExecs();
    s.relations = fuzzer.relations().Count();
    result.samples.push_back(s);
    publish();
  };

  while (fuzzer.clock().now() < deadline &&
         fuzzer.FuzzExecs() < options.max_execs) {
    if (fuzzer.clock().now() >= next_sample) {
      sample();
      next_sample += options.sample_period;
    }
    if (options.status_period > 0 && fuzzer.clock().now() >= next_status) {
      emit_status();
      next_status += options.status_period;
    }
    fuzzer.Step();
  }
  sample();
  if (options.status_period > 0) {
    emit_status();
  }

  result.final_coverage = fuzzer.CoverageCount();
  result.fuzz_execs = fuzzer.FuzzExecs();
  result.total_execs = fuzzer.TotalExecs();
  result.corpus_size = fuzzer.corpus().size();
  result.corpus_mean_len = fuzzer.corpus().MeanLength();
  result.corpus_length_hist = fuzzer.corpus().LengthHistogram();
  result.crashes = fuzzer.crashes().All();
  result.relations_total = fuzzer.relations().Count();
  result.relations_static =
      fuzzer.relations().CountBySource(RelationSource::kStatic);
  result.relations_dynamic =
      fuzzer.relations().CountBySource(RelationSource::kDynamic);
  result.relation_edges = fuzzer.relations().EdgesBefore();
  result.relations_loaded = relations_loaded;
  result.final_alpha = fuzzer.alpha();
  result.faults = fuzzer.fault_stats();
  fuzzer.RefreshGauges();
  result.telemetry = fuzzer.metrics().Snapshot();
  if (options.capture_trace) {
    result.trace_events = fuzzer.trace().Events();
  }
  result.journal = fuzzer.journal().Records();
  // Final publication so post-campaign scrapes (--serve-secs linger) see
  // the end-of-run state.
  publish();

  if (!options.save_corpus_path.empty()) {
    const Status saved =
        SaveProgs(options.save_corpus_path, fuzzer.corpus().ExportAll(),
                  options.corpus_format);
    if (!saved.ok()) {
      LOG_WARNING << "failed to save corpus: " << saved.ToString();
    }
  }
  if (!options.save_relations_path.empty()) {
    const Status saved = fuzzer.SaveRelations(options.save_relations_path);
    if (!saved.ok()) {
      LOG_WARNING << "failed to save relations: " << saved.ToString();
    }
  }
  return result;
}

double HoursToReach(const CampaignResult& result, size_t coverage) {
  const auto& samples = result.samples;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].branches >= coverage) {
      if (i == 0) {
        return samples[0].hours;
      }
      const auto& lo = samples[i - 1];
      const auto& hi = samples[i];
      if (hi.branches == lo.branches) {
        return hi.hours;
      }
      const double frac = static_cast<double>(coverage - lo.branches) /
                          static_cast<double>(hi.branches - lo.branches);
      return lo.hours + frac * (hi.hours - lo.hours);
    }
  }
  return -1.0;
}

}  // namespace healer
