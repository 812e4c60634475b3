// Parallel-fuzzing scaling bench: runs the batched-publish loop at 1/2/4/8
// workers and reports execs/sec plus time-under-lock. On a 1-CPU box the
// headline number is the critical-section share (healer_parallel_
// lock_held_share), not wall-clock speedup: the old design held the shared
// mutex across the whole generate→execute→minimize→learn cycle (share ~1.0);
// the snapshot/batch design must keep workers out of the lock.
//
// Emits BENCH_parallel_scaling.json; scripts/check.sh's `parallel` stage
// runs a smoke config and fails if the 8-worker lock-held share exceeds its
// threshold.
//
// The second section scales the reactor fleet instead of the workers: the
// same 4 worker threads drive 8 / 64 / 512 / 2048 simulated guests through
// the sharded EventLoop topology (DESIGN.md §12), reporting wall time,
// execs/sec, and the peak OS-thread count and resident memory sampled from
// /proc/self/status. The fleet's scaling claim is structural — guests are
// state machines, not threads, and pay only for the pages they touch — so
// peak threads must stay at workers + harness regardless of fleet size.
// Emits BENCH_fleet.json; scripts/check.sh's `fleet` stage guards the
// thread ceiling, the 2048-guest wall-clock budget and its peak RSS.
//
// Usage: bench_parallel_scaling [total_execs] [fleet_execs]
//        (defaults 4000 and total_execs)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/fuzz/parallel.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

struct ScalingRow {
  size_t workers;
  double execs_per_sec;
  double lock_held_share;
  double lock_held_ms;
  double lock_wait_ms;
  double publishes;
};

ScalingRow RunOne(size_t workers, uint64_t total_execs) {
  ParallelOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 7;
  options.num_workers = workers;
  options.total_execs = total_execs;
  options.batch_size = 32;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  const MetricsSnapshot& t = result.telemetry;
  const double wall_ns = t.gauge("healer_parallel_wall_ns");
  ScalingRow row;
  row.workers = workers;
  row.execs_per_sec =
      wall_ns > 0.0
          ? static_cast<double>(result.fuzz_execs) / (wall_ns / 1e9)
          : 0.0;
  row.lock_held_share = t.gauge("healer_parallel_lock_held_share");
  const auto held = t.histograms.find("healer_parallel_lock_held_ns");
  const auto wait = t.histograms.find("healer_parallel_lock_wait_ns");
  row.lock_held_ms =
      held != t.histograms.end()
          ? static_cast<double>(held->second.sum) / 1e6
          : 0.0;
  row.lock_wait_ms =
      wait != t.histograms.end()
          ? static_cast<double>(wait->second.sum) / 1e6
          : 0.0;
  row.publishes = static_cast<double>(
      t.counter("healer_parallel_batch_publish_total"));
  return row;
}

// This process's current OS-thread count and resident set (Threads: and
// VmRSS: in /proc/self/status); both read 0 when the file is unavailable
// (non-Linux), which disables the guards.
struct ProcStatus {
  size_t threads = 0;
  size_t rss_kb = 0;
};

ProcStatus ReadProcStatus() {
  ProcStatus status;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return status;
  }
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::sscanf(line, "Threads: %zu", &status.threads);
    std::sscanf(line, "VmRSS: %zu", &status.rss_kb);
  }
  std::fclose(f);
  return status;
}

// Raises `peak` to `value` if it is higher.
void RaisePeak(std::atomic<size_t>* peak, size_t value) {
  size_t p = peak->load(std::memory_order_relaxed);
  while (value > p && !peak->compare_exchange_weak(p, value)) {
  }
}

struct FleetRow {
  size_t fleet = 0;
  size_t shards = 0;
  double wall_secs = 0.0;
  double execs_per_sec = 0.0;
  size_t peak_threads = 0;
  double peak_rss_mb = 0.0;
};

constexpr size_t kFleetWorkers = 4;

FleetRow RunFleet(size_t fleet_size, uint64_t total_execs) {
  // Peak sampler: polls the thread count and resident set while the
  // campaign runs. It is itself one of the threads it counts, as is the
  // main thread; the thread guard budgets for both.
  std::atomic<bool> stop{false};
  const ProcStatus start_status = ReadProcStatus();
  std::atomic<size_t> peak_threads{start_status.threads};
  std::atomic<size_t> peak_rss_kb{start_status.rss_kb};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ProcStatus now = ReadProcStatus();
      RaisePeak(&peak_threads, now.threads);
      RaisePeak(&peak_rss_kb, now.rss_kb);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ParallelOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 7;
  options.num_workers = kFleetWorkers;
  options.total_execs = total_execs;
  options.batch_size = 32;
  options.fleet_size = fleet_size;
  // A light fault mix keeps the reboot path (parked guests, shard
  // doorbells, async reboot timers) in play at every scale.
  options.fault_plan.set_rate(FaultKind::kVmCrash, 0.01);
  options.fault_plan.set_rate(FaultKind::kBootFailure, 0.02);
  const auto start = std::chrono::steady_clock::now();
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true);
  sampler.join();

  FleetRow row;
  row.fleet = fleet_size;
  row.shards = result.fleet.size();
  row.wall_secs = wall_secs;
  row.execs_per_sec =
      wall_secs > 0.0 ? static_cast<double>(result.fuzz_execs) / wall_secs
                      : 0.0;
  row.peak_threads = peak_threads.load();
  row.peak_rss_mb = static_cast<double>(peak_rss_kb.load()) / 1024.0;
  return row;
}

int Main(int argc, char** argv) {
  const uint64_t total_execs =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  const uint64_t fleet_execs =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : total_execs;
  bench::PrintHeader(
      "Parallel scaling: execs/sec and time-under-lock by worker count",
      "Figure 3's shared-state design; lock-held share is the headline on "
      "single-CPU hosts");
  std::printf("%8s %14s %12s %14s %14s %10s\n", "workers", "execs/sec",
              "lock-share", "lock-held-ms", "lock-wait-ms", "publishes");

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("total_execs", static_cast<double>(total_execs));
  double share8 = 0.0;
  for (size_t workers : {1, 2, 4, 8}) {
    const ScalingRow row = RunOne(workers, total_execs);
    std::printf("%8zu %14.0f %12.4f %14.3f %14.3f %10.0f\n", row.workers,
                row.execs_per_sec, row.lock_held_share, row.lock_held_ms,
                row.lock_wait_ms, row.publishes);
    const std::string prefix = "workers" + std::to_string(workers) + "_";
    metrics.emplace_back(prefix + "execs_per_sec", row.execs_per_sec);
    metrics.emplace_back(prefix + "lock_held_share", row.lock_held_share);
    metrics.emplace_back(prefix + "lock_held_ms", row.lock_held_ms);
    metrics.emplace_back(prefix + "lock_wait_ms", row.lock_wait_ms);
    metrics.emplace_back(prefix + "batch_publishes", row.publishes);
    if (workers == 8) {
      share8 = row.lock_held_share;
    }
  }
  bench::PrintRule();
  std::printf("8-worker critical-section share: %.4f "
              "(old hold-everything design ~= 1.0)\n",
              share8);
  bench::WriteBenchJson("parallel_scaling", metrics);

  bench::PrintHeader(
      "Reactor fleet scaling: simulated guests on a fixed 4-worker pool",
      "DESIGN.md §12; guests are event-loop state machines, not threads");
  std::printf("%8s %8s %12s %14s %14s %14s\n", "guests", "shards",
              "wall-secs", "execs/sec", "peak-threads", "peak-rss-mb");
  std::vector<std::pair<std::string, double>> fleet_metrics;
  fleet_metrics.emplace_back("workers", static_cast<double>(kFleetWorkers));
  fleet_metrics.emplace_back("fleet_execs",
                             static_cast<double>(fleet_execs));
  for (size_t fleet : {8, 64, 512, 2048}) {
    const FleetRow row = RunFleet(fleet, fleet_execs);
    std::printf("%8zu %8zu %12.3f %14.0f %14zu %14.1f\n", row.fleet,
                row.shards, row.wall_secs, row.execs_per_sec,
                row.peak_threads, row.peak_rss_mb);
    const std::string prefix = "fleet" + std::to_string(fleet) + "_";
    fleet_metrics.emplace_back(prefix + "shards",
                               static_cast<double>(row.shards));
    fleet_metrics.emplace_back(prefix + "wall_secs", row.wall_secs);
    fleet_metrics.emplace_back(prefix + "execs_per_sec", row.execs_per_sec);
    fleet_metrics.emplace_back(prefix + "peak_threads",
                               static_cast<double>(row.peak_threads));
    fleet_metrics.emplace_back(prefix + "peak_rss_mb", row.peak_rss_mb);
    // The structural budget: workers + shards + the harness's own main and
    // sampler threads. The check.sh guard compares peak against this.
    fleet_metrics.emplace_back(
        prefix + "thread_budget",
        static_cast<double>(kFleetWorkers + row.shards + 2));
  }
  bench::PrintRule();
  std::printf("guests are reactor state machines: the thread count must not "
              "scale with the fleet\n");
  bench::WriteBenchJson("fleet", fleet_metrics);
  return 0;
}

}  // namespace
}  // namespace healer

int main(int argc, char** argv) { return healer::Main(argc, argv); }
