#include "src/fuzz/report.h"

#include <algorithm>
#include <vector>

#include "src/base/string_util.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {

std::string FormatCampaignReport(const CampaignResult& result,
                                 const ReportOptions& options) {
  std::string out;
  const CampaignOptions& opts = result.options;
  // Prefer the telemetry snapshot when the campaign captured one: the report
  // then quotes the same registry the Prometheus/JSON exports come from.
  const MetricsSnapshot& t = result.telemetry;
  const bool has_telemetry = !t.empty();

  out += StrFormat("=== %s on sim-linux %s, %.1f simulated hours (seed %llu) "
                   "===\n",
                   ToolKindName(opts.tool), KernelVersionName(opts.version),
                   opts.hours, (unsigned long long)opts.seed);
  const size_t coverage = has_telemetry
                              ? static_cast<size_t>(
                                    t.gauge("healer_coverage_branches"))
                              : result.final_coverage;
  out += StrFormat("coverage   : %zu branches\n", coverage);
  const uint64_t fuzz_execs =
      has_telemetry ? t.counter("healer_fuzz_execs_total") : result.fuzz_execs;
  const uint64_t analysis_execs =
      has_telemetry ? t.counter("healer_exec_analysis_total")
                    : result.total_execs - result.fuzz_execs;
  out += StrFormat("executions : %llu fuzzing + %llu analysis\n",
                   (unsigned long long)fuzz_execs,
                   (unsigned long long)analysis_execs);
  if (has_telemetry) {
    out += FormatProbeLine(fuzz_execs, analysis_execs,
                           t.counter("healer_exec_images_shipped_total"),
                           t.counter("healer_exec_mask_replays_total"));
  }
  out += StrFormat("corpus     : %zu programs, mean length %.2f\n",
                   result.corpus_size, result.corpus_mean_len);
  if (result.corpus_length_hist.size() == 5) {
    out += StrFormat("  lengths  : 1:%zu 2:%zu 3:%zu 4:%zu 5+:%zu\n",
                     result.corpus_length_hist[0],
                     result.corpus_length_hist[1],
                     result.corpus_length_hist[2],
                     result.corpus_length_hist[3],
                     result.corpus_length_hist[4]);
  }
  out += StrFormat("relations  : %zu total (%zu static, %zu dynamic), "
                   "alpha %.2f\n",
                   result.relations_total, result.relations_static,
                   result.relations_dynamic, result.final_alpha);
  if (result.relations_loaded > 0) {
    out += StrFormat("  warm-up  : %zu edges loaded from a previous "
                     "campaign\n",
                     result.relations_loaded);
  }

  const FaultStats& faults = result.faults;
  if (faults.TotalInjected() > 0 || faults.failed_execs > 0) {
    out += StrFormat("faults     : %llu injected (",
                     (unsigned long long)faults.TotalInjected());
    for (size_t i = 0; i < kNumFaultKinds; ++i) {
      out += StrFormat("%s%s=%llu", i == 0 ? "" : " ",
                       FaultKindName(static_cast<FaultKind>(i)),
                       (unsigned long long)faults.injected[i]);
    }
    out += ")\n";
    const uint64_t failed = has_telemetry
                                ? t.counter("healer_exec_failed_total")
                                : faults.failed_execs;
    const uint64_t retries = has_telemetry
                                 ? t.counter("healer_exec_retries_total")
                                 : faults.retries;
    const uint64_t recovered = has_telemetry
                                   ? t.counter("healer_exec_recovered_total")
                                   : faults.recovered;
    const uint64_t discarded = has_telemetry
                                   ? t.counter("healer_exec_discarded_total")
                                   : faults.discarded;
    const uint64_t quarantines = has_telemetry
                                     ? t.counter("healer_vm_quarantines_total")
                                     : faults.quarantines;
    out += StrFormat("recovery   : %llu failed execs, %llu retries, "
                     "%llu recovered, %llu discarded, %llu quarantines\n",
                     (unsigned long long)failed, (unsigned long long)retries,
                     (unsigned long long)recovered,
                     (unsigned long long)discarded,
                     (unsigned long long)quarantines);
  }

  out += StrFormat("crashes    : %zu unique\n", result.crashes.size());
  if (options.max_crashes > 0) {
    size_t shown = 0;
    for (const CrashRecord& crash : result.crashes) {
      if (shown >= options.max_crashes) {
        out += StrFormat("  ... and %zu more\n",
                         result.crashes.size() - shown);
        break;
      }
      ++shown;
      out += StrFormat("  [%6.2fh] %-55s repro=%zu hits=%llu\n",
                       static_cast<double>(crash.first_seen) / SimClock::kHour,
                       crash.title.c_str(), crash.shortest_repro,
                       (unsigned long long)crash.hits);
    }
  } else if (!result.crashes.empty()) {
    out += StrFormat("  (crash list suppressed, %zu records)\n",
                     result.crashes.size());
  }

  if (options.include_samples) {
    out += "coverage curve (hours, branches, execs):\n";
    const std::vector<CoverageSample>& samples = result.samples;
    const size_t cap = options.max_samples;
    if (cap == 0 || samples.size() <= cap) {
      for (const CoverageSample& sample : samples) {
        out += StrFormat("  %6.2f %8zu %10llu\n", sample.hours,
                         sample.branches, (unsigned long long)sample.execs);
      }
    } else {
      // Evenly thin the curve, always keeping the first and last samples.
      for (size_t i = 0; i < cap; ++i) {
        const size_t idx = i * (samples.size() - 1) / (cap - 1);
        const CoverageSample& sample = samples[idx];
        out += StrFormat("  %6.2f %8zu %10llu\n", sample.hours,
                         sample.branches, (unsigned long long)sample.execs);
      }
      out += StrFormat("  (%zu of %zu samples shown)\n", cap, samples.size());
    }
  }
  if (options.include_relations) {
    const Target& target = BuiltinTarget();
    out += "learned relations (from -> to, hour):\n";
    for (const RelationEdge& edge : result.relation_edges) {
      if (edge.source != RelationSource::kDynamic) {
        continue;
      }
      out += StrFormat("  %-36s -> %-36s %6.2f\n",
                       target.syscall(edge.from).name.c_str(),
                       target.syscall(edge.to).name.c_str(),
                       static_cast<double>(edge.learned_at) /
                           SimClock::kHour);
    }
  }
  return out;
}

std::string FormatStatusLine(const StatusLineInfo& info) {
  std::string out = StrFormat(
      "%6.2fh: execs %llu (%.2f/sec sim), cover %zu, corpus %zu, "
      "relations %zu, crashes %zu, vms %zu",
      info.hours, (unsigned long long)info.execs, info.execs_per_sec,
      info.coverage, info.corpus, info.relations, info.crashes, info.vms);
  if (info.failed_execs > 0 || info.quarantines > 0) {
    out += StrFormat(", faults %llu (%llu quarantined)",
                     (unsigned long long)info.failed_execs,
                     (unsigned long long)info.quarantines);
  }
  if (info.ring_drains > 0) {
    out += StrFormat(", ring %.1f/drain (%llu stalls)", info.ring_depth_mean,
                     (unsigned long long)info.ring_stalls);
  }
  if (info.lock_held_share > 0) {
    out += StrFormat(", lock %.3f", info.lock_held_share);
  }
  if (info.probes_per_exec > 0 || info.images_per_exec > 0) {
    out += StrFormat(", probes %.2f/exec, images %.2f/exec",
                     info.probes_per_exec, info.images_per_exec);
  }
  if (!info.fleet.empty()) {
    out += ", fleet [";
    for (size_t i = 0; i < info.fleet.size(); ++i) {
      const FleetShardSummary& s = info.fleet[i];
      if (i > 0) {
        out += " ";
      }
      out += StrFormat("s%zu r%zu/b%zu/c%zu/q%zu", s.shard, s.ready,
                       s.booting + s.cold + s.rebooting,
                       s.crashed, s.quarantined);
    }
    out += "]";
  }
  return out;
}

std::string FormatStatusJson(const StatusLineInfo& info) {
  std::string out = StrFormat(
      "{\"hours\": %.4f, \"execs\": %llu, \"execs_per_sec\": %.2f, "
      "\"coverage\": %zu, \"corpus\": %zu, \"relations\": %zu, "
      "\"crashes\": %zu, \"vms\": %zu, \"failed_execs\": %llu, "
      "\"quarantines\": %llu, \"ring_drains\": %llu, "
      "\"ring_depth_mean\": %.2f, \"ring_stalls\": %llu, "
      "\"lock_held_share\": %.4f, \"probes_per_exec\": %.4f, "
      "\"images_per_exec\": %.4f",
      info.hours, (unsigned long long)info.execs, info.execs_per_sec,
      info.coverage, info.corpus, info.relations, info.crashes, info.vms,
      (unsigned long long)info.failed_execs,
      (unsigned long long)info.quarantines,
      (unsigned long long)info.ring_drains, info.ring_depth_mean,
      (unsigned long long)info.ring_stalls, info.lock_held_share,
      info.probes_per_exec, info.images_per_exec);
  if (!info.fleet.empty()) {
    out += ", \"fleet\": [";
    for (size_t i = 0; i < info.fleet.size(); ++i) {
      const FleetShardSummary& s = info.fleet[i];
      if (i > 0) {
        out += ", ";
      }
      out += StrFormat(
          "{\"shard\": %zu, \"vms\": %zu, \"ready\": %zu, \"booting\": %zu, "
          "\"executing\": %zu, \"crashed\": %zu, \"rebooting\": %zu, "
          "\"quarantined\": %zu, \"timers_pending\": %zu, "
          "\"events_dispatched\": %llu}",
          s.shard, s.vms, s.ready, s.booting + s.cold, s.executing, s.crashed,
          s.rebooting, s.quarantined, s.timers_pending,
          (unsigned long long)s.events_dispatched);
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string FormatProbeLine(uint64_t fuzz_execs, uint64_t analysis_execs,
                            uint64_t images_shipped, uint64_t mask_replays) {
  const double per_exec =
      static_cast<double>(std::max<uint64_t>(fuzz_execs, 1));
  return StrFormat("probes     : %.2f per fuzzing exec; %.2f images shipped "
                   "per fuzzing exec (%llu shipped, %llu mask replays)\n",
                   static_cast<double>(analysis_execs) / per_exec,
                   static_cast<double>(images_shipped) / per_exec,
                   (unsigned long long)images_shipped,
                   (unsigned long long)mask_replays);
}

}  // namespace healer
