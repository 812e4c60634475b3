// Benchmark driver: runs one workload for a fixed host-time window and prints
// one JSON line with its metrics, the correctness verdict and the host facts.
// perfbench/run.py builds this binary and turns the line into the benchmark
// result; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// Untraced runs (--trace 0) measure the end-to-end metrics through the
// repository's public entry points. Traced runs (--trace 1) measure the
// per-layer metrics: host-time spans recorded around each call into a layer,
// the program's own telemetry, a replay of executed programs through the
// wire and executor layers, and a VM-pool probe.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/traced_fuzzer.h"
#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/parallel.h"
#include "src/fuzz/shard.h"
#include "src/kernel/kernel.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace perfbench {
namespace {

using healer::Fuzzer;
using healer::FuzzerOptions;
using healer::Prog;
using healer::Target;

// ---- workload sizes --------------------------------------------------------

// single-cold: fresh campaigns on consecutive seeds, each stopped after
// kColdExecs fuzzing executions (inside the first simulated hours, where
// Algorithm 1/2 probes dominate). One cycle runs every seed once.
constexpr size_t kColdSeeds = 8;
constexpr uint64_t kColdExecs = 6000;
constexpr size_t kColdTarget = 900;  // Branches; ttc_s target.

// single-resume: each of kResumeInputs saturating campaigns of kPrepExecs
// builds a corpus and relation table (benchmark input, not measured); a
// cycle resumes once from each and fuzzes kResumeExecs more executions.
// Several inputs average out how much one seed's corpus speeds or slows
// the resumed campaign.
constexpr size_t kResumeInputs = 2;
constexpr uint64_t kPrepExecs = 200000;
constexpr uint64_t kResumeExecs = 20000;
// ttc_s target: this share of the preparing campaign's final coverage.
constexpr double kResumeTargetShare = 0.97;

// workers: the RunParallelFuzz exec budget, and the coverage it must reach.
constexpr uint64_t kWorkersExecs = 150000;
constexpr size_t kParallelTarget = 2000;
// The workers trace probes the VM pool in the reactor-fleet topology at
// this size. (A RunParallelFuzz campaign over such a fleet is not a
// workload: it intermittently aborts with heap corruption, see README.md.)
constexpr size_t kFleetGuests = 256;

// shards: kShardSeeds campaigns per cycle, each kShardRounds lockstep rounds
// of kShardExecsPerRound executions per shard, fanout 1.
constexpr size_t kShardSeeds = 3;
constexpr size_t kShardRounds = 12;
constexpr size_t kShardExecsPerRound = 2000;
constexpr size_t kShardTarget = 2000;  // Union branches; ttc_s target.

// Setup of single-cold and the multi-threaded workloads is measured
// kSetupRepeats times in each of kSetupProcesses fresh driver processes,
// pinned round-robin to the CPUs the driver may use. On a shared host one
// CPU can be steadily slower than the others (1.4x for this setup on one of
// four), and which CPU an unpinned process lands on would decide the
// result, so setup_s is the fastest CPU's median over its processes.
constexpr size_t kSetupRepeats = 21;
constexpr size_t kSetupProcesses = 16;

// The VM-pool probe executes on at most this many guests of the pool.
constexpr size_t kProbeGuests = 64;

// Every kSampleEvery-th traced fuzzing program is replayed through the
// wire and executor layers.
constexpr size_t kSampleEvery = 16;
constexpr size_t kMaxReplay = 4000;

size_t Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  // Child mode: print one median setup time.
  int cpu = -1;             // Child mode: the CPU to pin to, -1 for none.
  std::string workdir = ".";
};

// ---- process usage ---------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- host facts ------------------------------------------------------------

// Milliseconds one fixed CPU-bound loop of the benchmark's own code takes:
// the host's speed at the moment, independent of the repository code. The
// notes record it at the start and end of each run, so a result that moved
// with the host's speed rather than the program can be told apart. It is
// not a metric.
volatile uint64_t probe_sink = 0;

double HostProbeMs() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<uint64_t> table(1 << 15);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const uint64_t start = NowNs();
    for (int i = 0; i < (1 << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & (table.size() - 1)] += x;
    }
    samples.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    probe_sink = table[x & (table.size() - 1)];  // Keeps the loop alive.
  }
  return Median(samples);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HexHash(std::string_view text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(healer::Fnv1a(text)));
  return buf;
}

// ---- result ------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Report {
 public:
  // Sets a metric; a later value for the same name replaces the earlier.
  void Metric(const std::string& name, double value, const std::string& unit) {
    for (Entry& entry : metrics_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  // A correctness check failed: the run's outputs are wrong.
  void Fail(const std::string& what) { failures_.push_back(what); }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  void Note(const std::string& line) { notes_.push_back(line); }
  // Notes the median, the tail percentile and the sample count of a timing.
  void Timing(const std::string& name, const std::string& unit,
              const std::vector<double>& samples) {
    const TimingSummary s = Summarize(samples);
    std::ostringstream line;
    line << name << ": median " << s.median << " " << unit;
    if (s.tail_q > 0.0) {
      line << ", " << QuantileLabel(s.tail_q) << " " << s.tail << " " << unit;
    }
    line << " (n=" << s.n << ")";
    Note(line.str());
  }
  void AddExecs(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return failures_.empty(); }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\"facts\": {\"cores\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << JsonString(CpuModel())
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"source_path_hash\": "
        << JsonString(HexHash(PERFBENCH_SOURCE_ROOT)) << "}";
    out << ", \"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_;
    out << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << JsonString(metrics_[i].name)
          << ": {\"value\": " << JsonNumber(metrics_[i].value)
          << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
    }
    out << "}, \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << JsonString(failures_[i]);
    }
    out << "], \"notes\": [";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << JsonString(notes_[i]);
    }
    out << "]}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- setup -----------------------------------------------------------------

// Campaigns run against the process-wide builtin target, as RunCampaign
// does: a campaign against a second, separately compiled Target instance
// in the same process can end in a different state (its heap layout
// differs), which would break the same-seed checks. Target loading is
// timed by compiling — and discarding — a fresh copy of the descriptions.
const Target& CampaignTarget() { return healer::BuiltinTarget(); }

double TargetLoadSeconds() {
  const uint64_t start = NowNs();
  healer::Result<Target> compiled =
      Target::CompileSource(healer::BuiltinDescriptions(), "sim-linux-builtin");
  const double seconds = SecondsSince(start);
  if (!compiled.ok()) {
    std::fprintf(stderr, "target failed to compile: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(2);
  }
  return seconds;
}

FuzzerOptions SingleOptions(uint64_t seed) {
  FuzzerOptions options;  // Production defaults otherwise.
  options.seed = seed;
  return options;
}

// Host seconds of each setup stage of one single-threaded campaign.
struct SetupTimes {
  double target_s = 0.0;
  double fuzzer_s = 0.0;
  double resume_s = 0.0;
  double total() const { return target_s + fuzzer_s + resume_s; }
};

// Files a resumed campaign starts from.
struct ResumeInputs {
  std::string corpus_path;
  std::string relations_path;
  size_t coverage = 0;   // Final coverage of the preparing campaign.
  size_t corpus = 0;     // Its corpus size.
  size_t target = 0;     // ttc_s branch target for resumed campaigns.
};

// Loads the saved relations and corpus into `fuzzer` (a Fuzzer or a
// TracedFuzzer) and re-seeds it with the corpus, as a resumed campaign does.
template <typename F>
void Resume(const ResumeInputs& inputs, F* fuzzer) {
  healer::Result<size_t> loaded = fuzzer->LoadRelations(inputs.relations_path);
  healer::Result<std::vector<Prog>> seeds =
      healer::LoadProgs(inputs.corpus_path, CampaignTarget());
  if (!loaded.ok() || !seeds.ok()) {
    std::fprintf(stderr, "resume inputs failed to load\n");
    std::exit(2);
  }
  fuzzer->SeedWith(*seeds);
}

// One single-threaded campaign through the public Fuzzer entry point.
struct SingleRun {
  SetupTimes setup;
  double fuzz_s = 0.0;        // Host seconds spent in Step().
  uint64_t fuzz_execs = 0;    // Step() executions counted in fuzz_s.
  double ttc_s = NAN;         // Host seconds from setup start to target.
  CampaignFingerprint fingerprint;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t analysis_execs = 0;
  double sim_hours = 0.0;  // Latency-model output, for the notes only.
  Usage usage_delta;
};

// Runs a campaign of `execs` Step()s from an empty corpus (resume == null)
// or from `resume`'s corpus and relations. `target_branches` is the ttc_s
// target, timed from the start of setup.
SingleRun RunSingle(uint64_t seed, uint64_t execs, size_t target_branches,
                    const ResumeInputs* resume) {
  SingleRun run;
  const Usage usage_before = ReadUsage();
  run.setup.target_s = TargetLoadSeconds();
  const Target* target = &CampaignTarget();
  const uint64_t t1 = NowNs();
  Fuzzer fuzzer(*target, SingleOptions(seed));
  const uint64_t t2 = NowNs();
  run.setup.fuzzer_s = static_cast<double>(t2 - t1) * 1e-9;
  uint64_t seeded_execs = 0;
  uint64_t seeding_analysis = 0;
  if (resume != nullptr) {
    Resume(*resume, &fuzzer);
    seeded_execs = fuzzer.FuzzExecs();
    run.setup.resume_s = SecondsSince(t2);
    seeding_analysis =
        fuzzer.metrics().Snapshot().counter("healer_exec_analysis_total");
  }
  // ttc_s counts from the start of setup, target load included.
  const double setup_s = run.setup.target_s + SecondsSince(t1);
  if (fuzzer.CoverageCount() >= target_branches) {
    run.ttc_s = setup_s;
  }
  const uint64_t fuzz_start = NowNs();
  const uint64_t stop_at = seeded_execs + execs;
  while (fuzzer.FuzzExecs() < stop_at) {
    fuzzer.Step();
    if (std::isnan(run.ttc_s) && fuzzer.CoverageCount() >= target_branches) {
      run.ttc_s = setup_s + SecondsSince(fuzz_start);
    }
  }
  run.fuzz_s = SecondsSince(fuzz_start);
  run.fuzz_execs = fuzzer.FuzzExecs() - seeded_execs;
  run.fingerprint = FingerprintOf(fuzzer);
  run.sim_hours = fuzzer.clock().hours();
  const healer::MetricsSnapshot snap = fuzzer.metrics().Snapshot();
  run.attempted = snap.counter("healer_exec_attempts_total");
  run.failed = snap.counter("healer_exec_failed_total");
  run.analysis_execs =
      snap.counter("healer_exec_analysis_total") - seeding_analysis;
  const Usage usage_after = ReadUsage();
  run.usage_delta.user_s = usage_after.user_s - usage_before.user_s;
  run.usage_delta.sys_s = usage_after.sys_s - usage_before.sys_s;
  run.usage_delta.minor_faults =
      usage_after.minor_faults - usage_before.minor_faults;
  return run;
}

// Builds the saturated corpus and relation table a resumed campaign starts
// from. Deterministic in `seed`; written under `workdir`.
ResumeInputs PrepareResume(uint64_t seed, const std::string& workdir,
                           Report* report) {
  const uint64_t start = NowNs();
  const Target* target = &CampaignTarget();
  Fuzzer fuzzer(*target, SingleOptions(seed));
  while (fuzzer.FuzzExecs() < kPrepExecs) {
    fuzzer.Step();
  }
  ResumeInputs inputs;
  const std::string stem = workdir + "/resume-" + std::to_string(seed);
  inputs.corpus_path = stem + ".hcor";
  inputs.relations_path = stem + ".rel";
  inputs.coverage = fuzzer.CoverageCount();
  inputs.corpus = fuzzer.corpus().size();
  inputs.target = static_cast<size_t>(
      kResumeTargetShare * static_cast<double>(inputs.coverage));
  const healer::Status saved_corpus =
      healer::SaveProgs(inputs.corpus_path, fuzzer.corpus().ExportAll());
  const healer::Status saved_relations =
      fuzzer.SaveRelations(inputs.relations_path);
  if (!saved_corpus.ok() || !saved_relations.ok()) {
    std::fprintf(stderr, "cannot write resume inputs under %s\n",
                 workdir.c_str());
    std::exit(2);
  }
  std::ostringstream note;
  note << "resume input: " << kPrepExecs << " execs, coverage "
       << inputs.coverage << ", corpus " << inputs.corpus << ", relations "
       << fuzzer.relations().Count() << ", "
       << fuzzer.clock().hours() << " simulated h (model output), built in "
       << SecondsSince(start) << " s";
  report->Note(note.str());
  return inputs;
}

// Setup of one sharded campaign: target load plus one FuzzShard per shard.
SetupTimes ShardSetup(uint64_t seed, size_t shards) {
  SetupTimes times;
  times.target_s = TargetLoadSeconds();
  const uint64_t t0 = NowNs();
  const Target* target = &CampaignTarget();
  std::vector<std::unique_ptr<healer::FuzzShard>> built;
  for (size_t i = 0; i < shards; ++i) {
    built.push_back(std::make_unique<healer::FuzzShard>(
        *target, SingleOptions(seed + i), static_cast<uint32_t>(i)));
  }
  times.fuzzer_s = SecondsSince(t0);
  return times;
}

// Setup of one RunParallelFuzz campaign: target load, static learning into
// a fresh relation table, and one pinned VM per worker.
SetupTimes ParallelSetup(size_t workers) {
  SetupTimes times;
  times.target_s = TargetLoadSeconds();
  const uint64_t t0 = NowNs();
  const Target* target = &CampaignTarget();
  healer::RelationTable relations(target->NumSyscalls());
  healer::StaticRelationLearn(*target, &relations);
  healer::SimClock clock;
  healer::MetricRegistry metrics;
  healer::FleetOptions fleet;
  fleet.lanes = workers;
  healer::VmPool pool(
      *target, healer::KernelConfig::ForVersion(healer::KernelVersion::kV5_11),
      &clock, workers, healer::VmLatencyModel(), healer::FaultPlan(), 1,
      &metrics, fleet);
  times.fuzzer_s = SecondsSince(t0);
  return times;
}

// Setup of one fresh single-threaded campaign: target load and Fuzzer
// construction.
SetupTimes SingleSetup(uint64_t seed) {
  SetupTimes times;
  times.target_s = TargetLoadSeconds();
  const uint64_t t0 = NowNs();
  Fuzzer fuzzer(CampaignTarget(), SingleOptions(seed));
  times.fuzzer_s = SecondsSince(t0);
  return times;
}

std::vector<SetupTimes> SetupSamples(const Args& args) {
  std::vector<SetupTimes> setup;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (args.workload == "shards") {
      setup.push_back(ShardSetup(args.seed * 64, Threads()));
    } else if (args.workload == "workers") {
      setup.push_back(ParallelSetup(Threads()));
    } else {
      setup.push_back(SingleSetup(args.seed * 64 + i % kColdSeeds));
    }
  }
  return setup;
}

double MedianTotal(const std::vector<SetupTimes>& setup) {
  std::vector<double> total;
  for (const SetupTimes& s : setup) {
    total.push_back(s.total());
  }
  return Median(total);
}

// Runs kSetupProcesses children of this driver in setup-only mode, one at
// a time, each pinned to the next CPU this process may use, and returns
// each one's median setup seconds by CPU.
std::map<int, std::vector<double>> SetupAcrossProcesses(const Args& args,
                                                        Report* report) {
  std::map<int, std::vector<double>> medians;
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (len <= 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    report->Fail("setup: cannot locate the driver binary or its CPUs");
    return medians;
  }
  self[len] = '\0';
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  for (size_t p = 0; p < kSetupProcesses; ++p) {
    const int cpu = cpus[p % cpus.size()];
    const std::string command =
        std::string("'") + self + "' --workload " + args.workload +
        " --seed " + std::to_string(args.seed) + " --setup-only 1 --cpu " +
        std::to_string(cpu);
    FILE* child = popen(command.c_str(), "r");
    double median = NAN;
    const bool read =
        child != nullptr && std::fscanf(child, "%lf", &median) == 1;
    const bool exited = child != nullptr && pclose(child) == 0;
    if (!read || !exited || !std::isfinite(median)) {
      report->Fail("setup: a setup-only child process failed");
      continue;
    }
    medians[cpu].push_back(median);
  }
  return medians;
}

// ---- per-layer probes --------------------------------------------------------

// Replays executed programs through the layers under GuestVm::Exec:
// SerializeProg / DeserializeProg (prog wire), Executor::Run (exec) and the
// per-run Kernel construction (kernel), against a fresh GuestVm::Exec of the
// same program as the whole.
void ReplayWire(const Target& target, const std::vector<Prog>& progs,
                Report* report) {
  const healer::KernelConfig config =
      healer::KernelConfig::ForVersion(healer::KernelVersion::kV5_11);
  healer::SimClock clock;
  healer::GuestVm vm(target, config, &clock);
  healer::Executor executor(target, config);
  healer::Bitmap vm_cov(healer::CallCoverage::kMapBits);
  healer::Bitmap run_cov(healer::CallCoverage::kMapBits);
  double wire_ns = 0.0;
  double run_ns = 0.0;
  double vm_ns = 0.0;
  size_t replayed = 0;
  for (const Prog& prog : progs) {
    if (replayed == kMaxReplay) {
      break;
    }
    uint64_t t = NowNs();
    vm.Exec(prog, &vm_cov);
    vm_ns += static_cast<double>(NowNs() - t);
    t = NowNs();
    const std::vector<uint8_t> wire = healer::SerializeProg(prog);
    healer::Result<Prog> decoded =
        healer::DeserializeProg(target, wire.data(), wire.size());
    wire_ns += static_cast<double>(NowNs() - t);
    if (!decoded.ok()) {
      report->Fail("replay: an executed program does not decode");
      continue;
    }
    t = NowNs();
    executor.Run(*decoded, &run_cov);
    run_ns += static_cast<double>(NowNs() - t);
    ++replayed;
  }
  if (replayed == 0) {
    report->Fail("replay: no executed programs to replay");
  }
  // The kernel is built fresh for every Executor::Run.
  std::vector<double> boot_ns;
  healer::GuestMem mem;
  for (int i = 0; i < 2000; ++i) {
    mem.Reset();
    const uint64_t t = NowNs();
    healer::Kernel kernel(config, &mem);
    boot_ns.push_back(static_cast<double>(NowNs() - t));
  }
  report->Metric("prog.wire_share_of_exec", Ratio(wire_ns, vm_ns), "share");
  report->Metric("exec.run_share_of_exec", Ratio(run_ns, vm_ns), "share");
  report->Metric("kernel.boot_ns", Median(boot_ns), "ns");
  report->Timing("kernel.boot_ns", "ns", boot_ns);
  std::ostringstream note;
  note << "replay: " << replayed << " programs, GuestVm::Exec "
       << vm_ns / static_cast<double>(std::max<size_t>(replayed, 1)) * 1e-3
       << " us/program";
  report->Note(note.str());
}

// First and warm executions on up to kProbeGuests evenly spaced guests of a
// pool of the given topology, and the resident memory the first executions
// add per guest.
void ProbeVmPool(const Target& target, const std::vector<Prog>& progs,
                 size_t guests, size_t lanes, Report* report) {
  if (progs.empty()) {
    report->Fail("vm_pool probe: no program to execute");
    return;
  }
  healer::SimClock clock;
  healer::MetricRegistry metrics;
  healer::FleetOptions fleet;
  fleet.lanes = lanes;
  fleet.shards = std::clamp<size_t>(guests / 256, 1, lanes);
  healer::VmPool pool(
      target, healer::KernelConfig::ForVersion(healer::KernelVersion::kV5_11),
      &clock, guests, healer::VmLatencyModel(), healer::FaultPlan(), 1,
      &metrics, fleet);
  const double rss_before = CurrentRssMb();
  std::vector<double> first_us;
  std::vector<double> warm_us;
  const size_t stride = std::max<size_t>(1, guests / kProbeGuests);
  for (size_t i = 0; i < pool.size(); i += stride) {
    const Prog& prog = progs[i % progs.size()];
    uint64_t t = NowNs();
    pool.vm(i).Exec(prog, nullptr);
    first_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    t = NowNs();
    pool.vm(i).Exec(prog, nullptr);
    warm_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
  }
  const double rss_after = CurrentRssMb();
  report->Metric("vm_pool.first_exec_us", Median(first_us), "us");
  report->Metric("vm_pool.warm_exec_us", Median(warm_us), "us");
  report->Metric("vm_pool.rss_mb_per_guest",
                 (rss_after - rss_before) /
                     static_cast<double>(first_us.size()),
                 "MB");
  report->Timing("vm_pool.first_exec_us", "us", first_us);
  report->Timing("vm_pool.warm_exec_us", "us", warm_us);
}

void ProcessMetrics(const Usage& delta, double wall_s, size_t threads,
                    uint64_t execs, Report* report) {
  const double cpu = delta.user_s + delta.sys_s;
  report->Metric("proc.cpu_util",
                 Ratio(cpu, wall_s * static_cast<double>(threads)), "share");
  report->Metric("proc.sys_cpu_share", Ratio(delta.sys_s, cpu), "share");
  report->Metric("proc.minor_faults_per_exec",
                 Ratio(delta.minor_faults, static_cast<double>(execs)),
                 "count");
}

// Every per-layer metric a workload does not exercise reads 0: the layer
// does no work there. Emitted first so each traced result names them all.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"fuzz.step_us_p50", "us"},
          {"fuzz.step_us_p99", "us"},
          {"fuzz.analysis_execs_per_fuzz_exec", "ratio"},
          {"prog_builder.self_share", "share"},
          {"call_selector.select_ns_p50", "ns"},
          {"call_selector.selects_per_step", "count"},
          {"corpus.choose_ns_p50", "ns"},
          {"corpus.add_us_p50", "us"},
          {"vm.exec_us_p50", "us"},
          {"vm.exec_us_p99", "us"},
          {"vm.exec_share", "share"},
          {"vm.execs_per_step", "count"},
          {"prog.wire_share_of_exec", "share"},
          {"exec.run_share_of_exec", "share"},
          {"kernel.boot_ns", "ns"},
          {"minimizer.self_share", "share"},
          {"minimizer.probes_per_round", "count"},
          {"learner.self_share", "share"},
          {"learner.probes_per_round", "count"},
          {"learner.relations_dynamic", "count"},
          {"relation_table.apply_us_p50", "us"},
          {"relation_table.apply_share", "share"},
          {"repro.self_share", "share"},
          {"repro.probes", "count"},
          {"setup.target_s", "s"},
          {"setup.fuzzer_s", "s"},
          {"setup.resume_s", "s"},
          {"parallel.lock_wait_ms", "ms"},
          {"parallel.lock_held_share", "share"},
          {"parallel.publishes", "count"},
          {"parallel.snapshot_refreshes", "count"},
          {"proc.cpu_util", "share"},
          {"proc.sys_cpu_share", "share"},
          {"proc.minor_faults_per_exec", "count"},
          {"shard.fuzz_s", "s"},
          {"shard.barrier_wait_share", "share"},
          {"gossip.emit_ms", "ms"},
          {"gossip.ingest_ms", "ms"},
          {"gossip.apply_ms", "ms"},
          {"gossip.bytes_per_exec", "B/exec"},
          {"gossip.bytes_per_imported_bit", "B/bit"},
          {"gossip.frames_replayed", "count"},
          {"vm_pool.first_exec_us", "us"},
          {"vm_pool.warm_exec_us", "us"},
          {"vm_pool.rss_mb_per_guest", "MB"},
          {"trace.covered_share", "share"},
          {"trace.overhead", "ratio"},
      };
  return *metrics;
}

// ---- single-threaded workloads -------------------------------------------------

uint64_t CampaignSeed(const Args& args, size_t index) {
  return args.seed * 64 + index;
}

// The per-stage setup.* medians (traced runs).
void ReportSetupStages(const std::vector<SetupTimes>& setups, Report* report) {
  std::vector<double> target;
  std::vector<double> fuzzer;
  std::vector<double> resume;
  for (const SetupTimes& s : setups) {
    target.push_back(s.target_s);
    fuzzer.push_back(s.fuzzer_s);
    resume.push_back(s.resume_s);
  }
  report->Metric("setup.target_s", Median(target), "s");
  report->Metric("setup.fuzzer_s", Median(fuzzer), "s");
  report->Metric("setup.resume_s", Median(resume), "s");
}

void ReportPeakRss(Report* report) {
  report->Metric("peak_rss_mb", ReadUsage().max_rss_mb, "MB");
}

void ReportMultiProcessSetup(const Args& args, Report* report) {
  double fastest = INFINITY;
  std::ostringstream note;
  note << "setup_s by CPU (median over its processes):";
  for (const auto& [cpu, medians] : SetupAcrossProcesses(args, report)) {
    fastest = std::min(fastest, Median(medians));
    note << " cpu" << cpu << "=" << Median(medians);
  }
  report->Metric("setup_s", fastest, "s");
  report->Note(note.str());
}

// Aggregates the spans of traced single-threaded campaigns.
class LoopTrace {
 public:
  explicit LoopTrace(SpanRecorder* recorder)
      : rec_(recorder), layers_(recorder) {}
  const LoopLayers& layers() const { return layers_; }

  // Folds the recorder's spans into the totals and clears it.
  void Collect(uint64_t fuzz_execs) {
    const std::vector<SpanRecord>& spans = rec_->spans();
    const std::vector<uint64_t> self = SelfTimes(spans);
    std::vector<size_t> exec_children(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.layer == layers_.vm_exec && span.parent >= 0) {
        ++exec_children[static_cast<size_t>(span.parent)];
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      const double dur = static_cast<double>(span.duration_ns());
      self_ns_[span.layer] += static_cast<double>(self[i]);
      if (span.layer == layers_.step) {
        step_us_.push_back(dur * 1e-3);
      } else if (span.layer == layers_.call_selector) {
        select_ns_.push_back(dur);
      } else if (span.layer == layers_.corpus_choose) {
        choose_ns_.push_back(dur);
      } else if (span.layer == layers_.corpus_add) {
        add_us_.push_back(dur * 1e-3);
      } else if (span.layer == layers_.vm_exec) {
        exec_us_.push_back(dur * 1e-3);
      } else if (span.layer == layers_.relation_apply) {
        apply_us_.push_back(dur * 1e-3);
      } else if (span.layer == layers_.minimizer) {
        min_probes_.push_back(static_cast<double>(exec_children[i]));
      } else if (span.layer == layers_.learner) {
        learn_probes_.push_back(static_cast<double>(exec_children[i]));
      } else if (span.layer == layers_.repro) {
        repro_probes_ += exec_children[i];
      }
    }
    fuzz_execs_ += fuzz_execs;
    rec_->Clear();
  }

  void Report(perfbench::Report* report) const {
    double step_total_ns = 0.0;
    for (double us : step_us_) {
      step_total_ns += us * 1e3;
    }
    const auto share = [&](int layer) {
      auto it = self_ns_.find(layer);
      return Ratio(it == self_ns_.end() ? 0.0 : it->second, step_total_ns);
    };
    const TimingSummary steps = Summarize(step_us_);
    const double steps_n = static_cast<double>(step_us_.size());
    report->Metric("fuzz.step_us_p50", steps.median, "us");
    report->Metric("fuzz.step_us_p99",
                   QuantileSorted(Sorted(step_us_), 0.99), "us");
    report->Timing("fuzz.step_us", "us", step_us_);
    report->Metric("prog_builder.self_share", share(layers_.prog_builder),
                   "share");
    report->Metric("call_selector.select_ns_p50", Median(select_ns_), "ns");
    report->Metric("call_selector.selects_per_step",
                   Ratio(static_cast<double>(select_ns_.size()), steps_n),
                   "count");
    report->Metric("corpus.choose_ns_p50", Median(choose_ns_), "ns");
    report->Metric("corpus.add_us_p50", Median(add_us_), "us");
    report->Metric("vm.exec_us_p50", Median(exec_us_), "us");
    report->Metric("vm.exec_us_p99", QuantileSorted(Sorted(exec_us_), 0.99),
                   "us");
    report->Timing("vm.exec_us", "us", exec_us_);
    report->Metric("vm.exec_share", share(layers_.vm_exec), "share");
    report->Metric("vm.execs_per_step",
                   Ratio(static_cast<double>(exec_us_.size()), steps_n),
                   "count");
    report->Metric("minimizer.self_share", share(layers_.minimizer), "share");
    report->Metric("minimizer.probes_per_round", Mean(min_probes_), "count");
    report->Metric("learner.self_share", share(layers_.learner), "share");
    report->Metric("learner.probes_per_round", Mean(learn_probes_), "count");
    report->Metric("relation_table.apply_us_p50", Median(apply_us_), "us");
    report->Metric("relation_table.apply_share",
                   share(layers_.relation_apply), "share");
    report->Metric("repro.self_share", share(layers_.repro), "share");
    report->Metric("repro.probes", static_cast<double>(repro_probes_),
                   "count");
    report->Metric("trace.covered_share", 1.0 - share(layers_.step), "share");
    std::ostringstream note;
    note << "traced steps " << step_us_.size() << ", fuzz execs "
         << fuzz_execs_ << ", self share by layer:";
    for (const auto& [layer, ns] : self_ns_) {
      note << " " << rec_->layer_names()[static_cast<size_t>(layer)] << "="
           << Ratio(ns, step_total_ns);
    }
    report->Note(note.str());
  }

 private:
  static std::vector<double> Sorted(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  }
  static double Mean(const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) {
      sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  }

  SpanRecorder* rec_;
  LoopLayers layers_;
  std::map<int, double> self_ns_;
  std::vector<double> step_us_;
  std::vector<double> select_ns_;
  std::vector<double> choose_ns_;
  std::vector<double> add_us_;
  std::vector<double> exec_us_;
  std::vector<double> apply_us_;
  std::vector<double> min_probes_;
  std::vector<double> learn_probes_;
  uint64_t repro_probes_ = 0;
  uint64_t fuzz_execs_ = 0;
};

struct TracedRun {
  double fuzz_s = 0.0;
  uint64_t fuzz_execs = 0;
  CampaignFingerprint fingerprint;
  size_t relations_dynamic = 0;
};

// The traced twin of RunSingle (setup is not timed here).
TracedRun RunTracedSingle(uint64_t seed, uint64_t execs,
                          const ResumeInputs* resume, LoopTrace* trace,
                          SpanRecorder* recorder, std::vector<Prog>* samples) {
  TracedRun run;
  const Target* target = &CampaignTarget();
  TracedFuzzer fuzzer(*target, SingleOptions(seed), recorder, trace->layers());
  uint64_t seeded_execs = 0;
  if (resume != nullptr) {
    Resume(*resume, &fuzzer);
    seeded_execs = fuzzer.FuzzExecs();
    recorder->Clear();  // Seeding is setup, not part of the fuzzing loop.
  }
  fuzzer.set_sample_every(kSampleEvery);
  const uint64_t start = NowNs();
  const uint64_t stop_at = seeded_execs + execs;
  while (fuzzer.FuzzExecs() < stop_at) {
    fuzzer.Step();
  }
  run.fuzz_s = SecondsSince(start);
  run.fuzz_execs = fuzzer.FuzzExecs() - seeded_execs;
  run.fingerprint = fuzzer.Fingerprint();
  run.relations_dynamic = fuzzer.DynamicRelations();
  trace->Collect(run.fuzz_execs);
  for (const Prog& prog : fuzzer.samples()) {
    if (samples->size() < kMaxReplay) {
      samples->push_back(prog.Clone());
    }
  }
  return run;
}

// single-cold and single-resume share one measurement scheme. A cycle runs
// each campaign seed once; cycles repeat until the time window closes, at
// least twice, so every campaign is also run twice with the same seed and
// must repeat exactly.
void RunSingleWorkload(const Args& args, bool resume, Report* report) {
  std::vector<ResumeInputs> inputs;
  for (size_t i = 0; resume && i < kResumeInputs; ++i) {
    inputs.push_back(
        PrepareResume(CampaignSeed(args, 63 - i), args.workdir, report));
  }
  const size_t seeds = resume ? kResumeInputs : kColdSeeds;
  const uint64_t execs = resume ? kResumeExecs : kColdExecs;

  std::vector<CampaignFingerprint> first_cycle(seeds);
  std::vector<SetupTimes> setups;
  std::vector<double> untraced_rates;  // Per campaign.
  std::vector<std::vector<double>> seed_fuzz_s(seeds);  // Per seed, per cycle.
  std::vector<double> seed_ttc(seeds, INFINITY);  // Fastest cycle per seed.
  std::vector<double> seed_setup(seeds, INFINITY);  // Fastest cycle per seed.
  std::vector<double> ttc;
  Usage usage;
  double usage_wall_s = 0.0;
  uint64_t usage_execs = 0;
  uint64_t analysis_execs = 0;
  uint64_t fuzz_execs_total = 0;

  SpanRecorder recorder;
  LoopTrace trace(&recorder);
  std::vector<Prog> samples;
  std::vector<double> traced_rates;
  size_t relations_dynamic = 0;

  const uint64_t window_start = NowNs();
  for (size_t cycle = 0;
       cycle < 2 || SecondsSince(window_start) < args.seconds; ++cycle) {
    for (size_t i = 0; i < seeds; ++i) {
      const uint64_t seed = CampaignSeed(args, i);
      const ResumeInputs* resume_inputs = resume ? &inputs[i] : nullptr;
      const size_t target = resume ? inputs[i].target : kColdTarget;
      const uint64_t wall_start = NowNs();
      const SingleRun run = RunSingle(seed, execs, target, resume_inputs);
      usage_wall_s += SecondsSince(wall_start);
      usage.user_s += run.usage_delta.user_s;
      usage.sys_s += run.usage_delta.sys_s;
      usage.minor_faults += run.usage_delta.minor_faults;
      usage_execs += run.fingerprint.total_execs;
      report->AddExecs(run.attempted, run.failed);
      setups.push_back(run.setup);
      seed_setup[i] = std::min(seed_setup[i], run.setup.total());
      untraced_rates.push_back(static_cast<double>(run.fuzz_execs) /
                               run.fuzz_s);
      seed_fuzz_s[i].push_back(run.fuzz_s);
      analysis_execs += run.analysis_execs;
      fuzz_execs_total += run.fuzz_execs;
      if (std::isnan(run.ttc_s)) {
        report->Fail("seed " + std::to_string(seed) + " never reached " +
                     std::to_string(target) + " branches");
      } else {
        ttc.push_back(run.ttc_s);
        seed_ttc[i] = std::min(seed_ttc[i], run.ttc_s);
      }
      report->Check(run.fuzz_execs == execs,
                    "seed " + std::to_string(seed) + " ran " +
                        std::to_string(run.fuzz_execs) + " of " +
                        std::to_string(execs) + " fuzzing execs");
      report->Check(run.fingerprint.relations ==
                        run.fingerprint.relations_static +
                            run.fingerprint.relations_dynamic,
                    "relations != static + dynamic");
      if (cycle == 0) {
        first_cycle[i] = run.fingerprint;
        std::ostringstream note;
        note << "campaign seed " << seed << ": "
             << run.fingerprint.ToString() << ", " << run.sim_hours
             << " simulated h (model output)";
        report->Note(note.str());
      } else {
        report->Check(run.fingerprint == first_cycle[i],
                      "same-seed campaigns differ: " +
                          first_cycle[i].ToString() + " vs " +
                          run.fingerprint.ToString());
      }
      if (args.trace) {
        const TracedRun traced = RunTracedSingle(
            seed, execs, resume_inputs, &trace, &recorder, &samples);
        traced_rates.push_back(static_cast<double>(traced.fuzz_execs) /
                               traced.fuzz_s);
        relations_dynamic = traced.relations_dynamic;
        if (!(traced.fingerprint == run.fingerprint)) {
          report->Fail("traced loop diverged from Fuzzer::Step: " +
                       run.fingerprint.ToString() + " vs traced " +
                       traced.fingerprint.ToString());
        }
      }
    }
  }

  // Count metrics: means over the cycle's campaigns.
  double coverage = 0.0;
  double bugs = 0.0;
  for (const CampaignFingerprint& fp : first_cycle) {
    coverage += static_cast<double>(fp.coverage) / static_cast<double>(seeds);
    bugs += static_cast<double>(fp.bugs.size()) / static_cast<double>(seeds);
  }

  const double analysis_ratio =
      Ratio(static_cast<double>(analysis_execs),
            static_cast<double>(fuzz_execs_total));
  // Throughput of one pass over every campaign seed, each seed timed by its
  // fastest cycle. Every seed runs the same program in every cycle, so its
  // slower cycles differ only by what else the shared host was running.
  double pass_s = 0.0;
  std::ostringstream per_seed;
  per_seed << "fuzz_execs_per_s per seed (fastest cycle):";
  for (const std::vector<double>& fuzz_s : seed_fuzz_s) {
    const double fastest = *std::min_element(fuzz_s.begin(), fuzz_s.end());
    pass_s += fastest;
    per_seed << " " << static_cast<double>(execs) / fastest;
  }
  if (!args.trace) {
    report->Metric("fuzz_execs_per_s",
                   static_cast<double>(seeds * execs) / pass_s, "1/s");
    report->Note(per_seed.str());
    report->Metric("ttc_s", Median(seed_ttc), "s");
    report->Metric("coverage", coverage, "count");
    report->Metric("unique_bugs", bugs, "count");
    // A resumed campaign's setup re-seeds ~2.8k programs (~0.17 s): too long
    // to repeat in child processes, so it is timed like ttc_s, per seed.
    if (resume) {
      report->Metric("setup_s", Median(seed_setup), "s");
    } else {
      ReportMultiProcessSetup(args, report);
    }
    ReportPeakRss(report);
    report->Timing("fuzz_execs_per_s (per campaign)", "1/s", untraced_rates);
    report->Timing("ttc_s (per campaign)", "s", ttc);
    std::ostringstream note;
    note << "analysis execs per fuzzing exec " << analysis_ratio
         << " (Alg. 1/2 and repro probes)";
    report->Note(note.str());
    return;
  }
  std::vector<double> overhead;
  for (size_t i = 0; i < traced_rates.size(); ++i) {
    overhead.push_back(traced_rates[i] / untraced_rates[i]);
  }
  trace.Report(report);
  report->Metric("fuzz.analysis_execs_per_fuzz_exec", analysis_ratio, "ratio");
  report->Metric("learner.relations_dynamic",
                 static_cast<double>(relations_dynamic), "count");
  ReportSetupStages(setups, report);
  ProcessMetrics(usage, usage_wall_s, 1, usage_execs, report);
  report->Metric("trace.overhead", Median(overhead), "ratio");
  ReplayWire(CampaignTarget(), samples, report);
  ProbeVmPool(CampaignTarget(), samples, SingleOptions(1).num_vms,
              SingleOptions(1).num_vms, report);
}

// ---- multi-threaded workloads ------------------------------------------------

void RunWorkersWorkload(const Args& args, Report* report) {
  healer::ParallelOptions options;  // Production defaults otherwise.
  options.seed = args.seed;
  options.num_workers = Threads();
  options.total_execs = kWorkersExecs;
  const Target* target = &CampaignTarget();
  std::vector<double> rates;
  std::vector<double> walls;
  std::vector<double> coverage;
  std::vector<double> bugs;
  healer::ParallelResult last;
  Usage usage;
  double usage_wall_s = 0.0;
  uint64_t usage_execs = 0;
  const uint64_t window_start = NowNs();
  for (size_t run = 0;
       run < 3 || SecondsSince(window_start) < args.seconds; ++run) {
    const Usage before = ReadUsage();
    const uint64_t start = NowNs();
    healer::ParallelResult result = healer::RunParallelFuzz(*target, options);
    const double wall = SecondsSince(start);
    const Usage after = ReadUsage();
    usage.user_s += after.user_s - before.user_s;
    usage.sys_s += after.sys_s - before.sys_s;
    usage.minor_faults += after.minor_faults - before.minor_faults;
    usage_wall_s += wall;
    const uint64_t analysis =
        result.telemetry.counter("healer_exec_analysis_total");
    usage_execs += result.fuzz_execs + analysis;
    rates.push_back(static_cast<double>(result.fuzz_execs) / wall);
    walls.push_back(wall);
    coverage.push_back(static_cast<double>(result.coverage));
    bugs.push_back(static_cast<double>(result.unique_bugs));
    report->AddExecs(result.telemetry.counter("healer_exec_attempts_total"),
                     result.telemetry.counter("healer_exec_failed_total"));
    report->Check(result.fuzz_execs == options.total_execs,
                  "ran " + std::to_string(result.fuzz_execs) + " of " +
                      std::to_string(options.total_execs) + " execs");
    report->Check(result.relations ==
                      result.relations_static + result.relations_dynamic,
                  "relations != static + dynamic");
    report->Check(result.coverage >= kParallelTarget,
                  "coverage " + std::to_string(result.coverage) +
                      " below the target " + std::to_string(kParallelTarget));
    last = std::move(result);
  }
  if (!args.trace) {
    // Every run repeats the same campaign: the fastest is the one the
    // shared host slowed least.
    const double fastest = *std::min_element(walls.begin(), walls.end());
    report->Metric("fuzz_execs_per_s",
                   static_cast<double>(options.total_execs) / fastest, "1/s");
    report->Metric("ttc_s", fastest, "s");
    report->Metric("coverage", Median(coverage), "count");
    report->Metric("unique_bugs", Median(bugs), "count");
    ReportMultiProcessSetup(args, report);
    ReportPeakRss(report);
    report->Timing("fuzz_execs_per_s (per campaign)", "1/s", rates);
    report->Timing("ttc_s (campaign wall)", "s", walls);
    return;
  }
  ReportSetupStages(SetupSamples(args), report);
  const healer::MetricsSnapshot& t = last.telemetry;
  const auto wait = t.histograms.find("healer_parallel_lock_wait_ns");
  report->Metric("parallel.lock_wait_ms",
                 wait == t.histograms.end()
                     ? 0.0
                     : static_cast<double>(wait->second.sum) * 1e-6,
                 "ms");
  report->Metric("parallel.lock_held_share",
                 t.gauge("healer_parallel_lock_held_share"), "share");
  report->Metric("parallel.publishes",
                 static_cast<double>(
                     t.counter("healer_parallel_batch_publish_total")),
                 "count");
  report->Metric("parallel.snapshot_refreshes",
                 static_cast<double>(
                     t.counter("healer_parallel_snapshot_refresh_total")),
                 "count");
  report->Metric("fuzz.analysis_execs_per_fuzz_exec",
                 Ratio(static_cast<double>(
                           t.counter("healer_exec_analysis_total")),
                       static_cast<double>(last.fuzz_execs)),
                 "ratio");
  report->Metric("learner.relations_dynamic",
                 static_cast<double>(last.relations_dynamic), "count");
  ProcessMetrics(usage, usage_wall_s, options.num_workers, usage_execs,
                 report);
  // RunParallelFuzz is measured through its own telemetry: no spans.
  report->Metric("trace.overhead", 1.0, "ratio");
  ReplayWire(*target, last.corpus_progs, report);
  ProbeVmPool(*target, last.corpus_progs, kFleetGuests, options.num_workers,
              report);
}

// ---- sharded workload ----------------------------------------------------------

// Campaign `index` of a cycle; shard i of it fuzzes with seed + i.
healer::ShardedCampaignOptions ShardOptions(const Args& args, size_t index,
                                            uint64_t net_seed) {
  healer::ShardedCampaignOptions options;
  options.shards = Threads();
  options.rounds = kShardRounds;
  options.execs_per_round = kShardExecsPerRound;
  options.fanout = 1;
  options.seed = args.seed * 64 + index * 8;
  options.net_seed = net_seed;
  return options;
}

struct ShardOutcome {
  uint64_t reconciled_hash = 0;
  std::vector<uint64_t> corpus_fingerprints;
  std::vector<size_t> shard_coverage;
  size_t union_coverage = 0;
  bool operator==(const ShardOutcome& other) const = default;
};

ShardOutcome OutcomeOf(const healer::ShardedCampaignResult& r) {
  return {r.reconciled_relations_hash, r.corpus_fingerprints, r.shard_coverage,
          r.union_coverage};
}

// The lockstep loop of RunShardedCampaign, rebuilt from FuzzShard calls with
// host timers around each phase.
struct ShardTrace {
  double round_s = 0.0;
  double fuzz_phase_s = 0.0;
  double shard_fuzz_s = 0.0;  // Sum over shards of their own fuzz time.
  double emit_s = 0.0;
  double ingest_s = 0.0;
  double apply_s = 0.0;
  uint64_t bytes = 0;
  uint64_t execs = 0;
  uint64_t imported_bits = 0;
  uint64_t frames_replayed = 0;
  uint64_t analysis_execs = 0;
  size_t relations_dynamic = 0;
  double unique_bugs = 0.0;  // Mean over shards of each one's unique bugs.
  ShardOutcome outcome;
};

ShardTrace RunTracedShards(const Target& target,
                           const healer::ShardedCampaignOptions& options,
                           Report* report) {
  ShardTrace trace;
  const size_t n = options.shards;
  std::vector<std::unique_ptr<healer::FuzzShard>> shards;
  for (size_t i = 0; i < n; ++i) {
    FuzzerOptions shard_options = options.base;
    shard_options.seed = options.seed + i;
    shards.push_back(std::make_unique<healer::FuzzShard>(
        target, shard_options, static_cast<uint32_t>(i)));
  }
  healer::Rng net_rng(options.net_seed);
  std::vector<double> fuzz_s(n);
  for (size_t round = 0; round < options.rounds; ++round) {
    const uint64_t round_start = NowNs();
    std::vector<std::thread> workers;
    for (size_t i = 0; i < n; ++i) {
      workers.emplace_back([&, i] {
        const uint64_t start = NowNs();
        shards[i]->RunExecs(options.execs_per_round);
        fuzz_s[i] = SecondsSince(start);
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
    trace.fuzz_phase_s += SecondsSince(round_start);
    for (double s : fuzz_s) {
      trace.shard_fuzz_s += s;
    }

    uint64_t t = NowNs();
    std::vector<std::vector<uint8_t>> batches(n);
    for (size_t i = 0; i < n; ++i) {
      batches[i] = shards[i]->EmitGossip();
    }
    trace.emit_s += SecondsSince(t);

    t = NowNs();
    std::vector<std::pair<size_t, const std::vector<uint8_t>*>> deliveries;
    for (size_t i = 0; i < n; ++i) {
      if (batches[i].empty()) {
        continue;
      }
      for (size_t peer : healer::GossipPeers(i, n, options.fanout, round)) {
        deliveries.push_back({peer, &batches[i]});
      }
    }
    if (options.net_seed != 0) {
      for (size_t i = deliveries.size(); i > 1; --i) {
        std::swap(deliveries[i - 1], deliveries[net_rng.Below(i)]);
      }
      const size_t original = deliveries.size();
      for (size_t i = 0; i < original; i += 3) {
        deliveries.push_back(deliveries[i]);
      }
    }
    for (const auto& [to, bytes] : deliveries) {
      if (!shards[to]->Ingest(bytes->data(), bytes->size()).ok()) {
        report->Fail("traced shards: a gossip batch failed to decode");
      }
      trace.bytes += bytes->size();
    }
    trace.ingest_s += SecondsSince(t);

    t = NowNs();
    for (size_t i = 0; i < n; ++i) {
      shards[i]->ApplyInbox();
    }
    trace.apply_s += SecondsSince(t);
    trace.round_s += SecondsSince(round_start);
  }
  std::vector<const healer::FuzzShard*> views;
  healer::Bitmap union_map(shards[0]->fuzzer().coverage().size_bits());
  for (size_t i = 0; i < n; ++i) {
    views.push_back(shards[i].get());
    report->Check(shards[i]->CheckRelationIdentity(),
                  "traced shards: relation identity broken");
    trace.execs += shards[i]->fuzzer().FuzzExecs();
    trace.imported_bits += shards[i]->stats().coverage_bits_imported;
    trace.frames_replayed += shards[i]->stats().frames_replayed;
    trace.analysis_execs += shards[i]->fuzzer().metrics().Snapshot().counter(
        "healer_exec_analysis_total");
    trace.relations_dynamic += shards[i]->fuzzer().relations().CountBySource(
        healer::RelationSource::kDynamic);
    trace.outcome.corpus_fingerprints.push_back(
        shards[i]->CorpusFingerprint());
    trace.outcome.shard_coverage.push_back(
        shards[i]->fuzzer().CoverageCount());
    union_map.MergeNew(shards[i]->fuzzer().coverage());
    trace.unique_bugs +=
        static_cast<double>(shards[i]->fuzzer().crashes().UniqueBugs()) /
        static_cast<double>(n);
  }
  trace.outcome.union_coverage = union_map.Count();
  const std::vector<uint8_t> reconciled = healer::ReconcileRelations(views);
  trace.outcome.reconciled_hash = healer::FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(reconciled.data()), reconciled.size()));
  return trace;
}

void RunShardWorkload(const Args& args, Report* report) {
  const Target* target = &CampaignTarget();
  std::vector<double> rates;  // Per campaign.
  std::vector<double> ttc;
  // Fastest cycle per campaign index: every cycle repeats the same work.
  std::vector<double> fastest_wall(kShardSeeds, INFINITY);
  std::vector<double> fastest_ttc(kShardSeeds, INFINITY);
  uint64_t cycle_execs = 0;
  std::vector<ShardOutcome> first(kShardSeeds);
  double coverage = 0.0;
  double unique_bugs = 0.0;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  Usage usage;
  double usage_wall_s = 0.0;
  uint64_t usage_execs = 0;
  ShardTrace sum;
  const uint64_t window_start = NowNs();
  for (size_t cycle = 0;
       cycle < 2 || SecondsSince(window_start) < args.seconds; ++cycle) {
    // Alternate two delivery seeds: reconciliation must not depend on them.
    const uint64_t net_seed = args.seed * 2 + 1 + cycle % 2;
    for (size_t k = 0; k < kShardSeeds; ++k) {
      const healer::ShardedCampaignOptions options =
          ShardOptions(args, k, net_seed);
      const Usage before = ReadUsage();
      const healer::ShardedCampaignResult r =
          healer::RunShardedCampaign(*target, options);
      const Usage after = ReadUsage();
      const double wall = static_cast<double>(r.wall_ns) * 1e-9;
      usage.user_s += after.user_s - before.user_s;
      usage.sys_s += after.sys_s - before.sys_s;
      usage.minor_faults += after.minor_faults - before.minor_faults;
      usage_wall_s += wall;
      usage_execs += r.total_execs;
      rates.push_back(static_cast<double>(r.total_execs) / wall);
      fastest_wall[k] = std::min(fastest_wall[k], wall);
      double reached = NAN;
      for (const healer::RoundSample& sample : r.samples) {
        if (sample.union_coverage >= kShardTarget) {
          reached = static_cast<double>(sample.wall_ns) * 1e-9;
          break;
        }
      }
      if (std::isnan(reached)) {
        report->Fail("shards never reached " + std::to_string(kShardTarget) +
                     " union branches");
      } else {
        ttc.push_back(reached);
        fastest_ttc[k] = std::min(fastest_ttc[k], reached);
      }
      report->Check(r.identities_ok, "shard relation identities broken");
      report->Check(r.total_execs == options.shards * options.rounds *
                                         options.execs_per_round,
                    "shards ran " + std::to_string(r.total_execs) + " execs");
      // FuzzShard runs Fuzzer::Step, whose attempts equal its executions on
      // the fault-free default; failures would show as missing executions.
      report->AddExecs(r.total_execs, 0);
      const ShardOutcome outcome = OutcomeOf(r);
      if (cycle > 0) {
        report->Check(outcome == first[k],
                      "reconciled state differs between net seeds");
        continue;
      }
      first[k] = outcome;
      cycle_execs += r.total_execs;
      coverage += static_cast<double>(r.union_coverage) /
                  static_cast<double>(kShardSeeds);
      std::ostringstream note;
      note << "shards seed " << options.seed << ": union coverage "
           << r.union_coverage << ", union relations " << r.union_relations
           << ", gossip bytes " << r.gossip_bytes << " for " << r.total_execs
           << " execs";
      report->Note(note.str());
      // RunShardedCampaign reports no crashes: the lockstep loop rebuilt
      // from FuzzShard calls gives the bug count (and must end in the same
      // state). It is also the traced run.
      const uint64_t start = NowNs();
      const ShardTrace t = RunTracedShards(*target, options, report);
      const double traced_wall = SecondsSince(start);
      report->Check(t.outcome == outcome,
                    "traced shard loop diverged from RunShardedCampaign");
      unique_bugs += t.unique_bugs / static_cast<double>(kShardSeeds);
      untraced_rates.push_back(static_cast<double>(r.total_execs) / wall);
      traced_rates.push_back(static_cast<double>(t.execs) / traced_wall);
      sum.round_s += t.round_s;
      sum.fuzz_phase_s += t.fuzz_phase_s;
      sum.shard_fuzz_s += t.shard_fuzz_s;
      sum.emit_s += t.emit_s;
      sum.ingest_s += t.ingest_s;
      sum.apply_s += t.apply_s;
      sum.bytes += t.bytes;
      sum.execs += t.execs;
      sum.imported_bits += t.imported_bits;
      sum.frames_replayed += t.frames_replayed;
      sum.analysis_execs += t.analysis_execs;
      sum.relations_dynamic = t.relations_dynamic;
    }
  }
  if (!args.trace) {
    double cycle_s = 0.0;
    for (double wall : fastest_wall) {
      cycle_s += wall;
    }
    report->Metric("fuzz_execs_per_s",
                   static_cast<double>(cycle_execs) / cycle_s, "1/s");
    report->Metric("ttc_s", Median(fastest_ttc), "s");
    report->Metric("coverage", coverage, "count");
    report->Metric("unique_bugs", unique_bugs, "count");
    ReportMultiProcessSetup(args, report);
    ReportPeakRss(report);
    report->Timing("fuzz_execs_per_s (per campaign)", "1/s", rates);
    report->Timing("ttc_s (per campaign)", "s", ttc);
    return;
  }
  ReportSetupStages(SetupSamples(args), report);
  const double traced_runs = static_cast<double>(traced_rates.size());
  report->Metric("shard.fuzz_s", sum.fuzz_phase_s / traced_runs, "s");
  report->Metric("shard.barrier_wait_share",
                 1.0 - Ratio(sum.shard_fuzz_s,
                             sum.fuzz_phase_s *
                                 static_cast<double>(Threads())),
                 "share");
  report->Metric("gossip.emit_ms", sum.emit_s * 1e3 / traced_runs, "ms");
  report->Metric("gossip.ingest_ms", sum.ingest_s * 1e3 / traced_runs, "ms");
  report->Metric("gossip.apply_ms", sum.apply_s * 1e3 / traced_runs, "ms");
  report->Metric("gossip.bytes_per_exec",
                 Ratio(static_cast<double>(sum.bytes),
                       static_cast<double>(sum.execs)),
                 "B/exec");
  report->Metric("gossip.bytes_per_imported_bit",
                 Ratio(static_cast<double>(sum.bytes),
                       static_cast<double>(sum.imported_bits)),
                 "B/bit");
  report->Metric("gossip.frames_replayed",
                 static_cast<double>(sum.frames_replayed) / traced_runs,
                 "count");
  report->Metric("fuzz.analysis_execs_per_fuzz_exec",
                 Ratio(static_cast<double>(sum.analysis_execs),
                       static_cast<double>(sum.execs)),
                 "ratio");
  report->Metric("learner.relations_dynamic",
                 static_cast<double>(sum.relations_dynamic), "count");
  report->Metric("trace.covered_share",
                 Ratio(sum.fuzz_phase_s + sum.emit_s + sum.ingest_s +
                           sum.apply_s,
                       sum.round_s),
                 "share");
  std::vector<double> overhead;
  for (size_t i = 0; i < traced_rates.size(); ++i) {
    overhead.push_back(traced_rates[i] / untraced_rates[i]);
  }
  report->Metric("trace.overhead", Median(overhead), "ratio");
  ProcessMetrics(usage, usage_wall_s, Threads(), usage_execs, report);
  // The shards' programs for the wire replay and the pool probe: one
  // shard's corpus from a short sequential campaign of the same seed.
  healer::FuzzShard shard(*target, SingleOptions(args.seed * 64), 0);
  shard.RunExecs(kShardExecsPerRound);
  std::vector<Prog> progs = shard.fuzzer().corpus().ExportAll();
  ReplayWire(*target, progs, report);
  ProbeVmPool(*target, progs, SingleOptions(1).num_vms,
              SingleOptions(1).num_vms, report);
}

// ---- main ------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--setup-only") {
      args->setup_only = value == "1";
    } else if (flag == "--cpu") {
      args->cpu = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  healer::SetLogLevel(healer::LogLevel::kError);
  if (args.cpu >= 0) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(args.cpu, &cpus);
    if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
      std::fprintf(stderr, "cannot pin to cpu %d\n", args.cpu);
      return 2;
    }
  }
  CampaignTarget();  // Compiled first, at the same point in every process.
  if (args.setup_only) {
    std::printf("%.17g\n", MedianTotal(SetupSamples(args)));
    return 0;
  }
  const double probe_before = HostProbeMs();
  Report report;
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      report.Metric(name, 0.0, unit);
    }
  }
  if (args.workload == "single-cold") {
    RunSingleWorkload(args, false, &report);
  } else if (args.workload == "single-resume") {
    RunSingleWorkload(args, true, &report);
  } else if (args.workload == "workers") {
    RunWorkersWorkload(args, &report);
  } else if (args.workload == "shards") {
    RunShardWorkload(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::ostringstream probe;
  probe << "host speed probe: " << probe_before << " ms at start, "
        << HostProbeMs() << " ms at end (lower is a faster host)";
  report.Note(probe.str());
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
