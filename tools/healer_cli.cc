// healer — command-line driver for the library.
//
//   healer fuzz   [--tool healer|healer-|syzkaller|moonshine]
//                 [--version 4.19|5.0|5.4|5.6|5.11] [--hours H] [--seed N]
//                 [--corpus-in FILE]       # HCORP1 or legacy HCOR
//                 [--corpus-out FILE]      # written as HCORP1
//                 [--relations-in FILE]    # warm-start the relation table
//                 [--relations-out FILE]   # save learned relations
//                 [--curve] [--edges]
//                 [--fault-rate P | --faults crash=0.01,timeout=0.005,...]
//                 [--fault-retries N]
//                 [--fleet-size N] [--fleet-shards S]  # reactor fleet
//                 [--status-period SECS]   # live status line (simulated s)
//                 [--metrics-out FILE]     # Prometheus text (.json -> JSON)
//                 [--trace-out FILE]       # Chrome trace JSON (Perfetto) of
//                                          # the journal window
//                 [--journal-out FILE]     # flight-recorder JSONL (.bin ->
//                                          # compact binary frame)
//                 [--journal-capacity N]   # journal ring size (0 disables)
//                 [--postmortem-dir DIR]   # bundle per unique crash
//                 [--http-port P]          # live introspection server on
//                                          # 127.0.0.1:P (0 = ephemeral)
//                 [--serve-secs S]         # keep serving S wall seconds
//                                          # after the campaign ends
//                 [--shards N]             # sharded campaign (DESIGN.md §13):
//                                          # N in-process fuzzer shards
//                                          # exchanging HGSP1 gossip
//                 [--rounds R] [--execs-per-round E] [--fanout F]
//                 [--net-seed S]           # adversarial delivery shuffle
//                 [--sequential]           # fuzz phase on one thread
//                 [--reconcile-every K]
//                 # Numeric values are checked strictly, and a flag the
//                 # chosen path does not read is an error (exit 2).
//   healer relations [--version V] [--probe]      # static (+dynamic) table
//   healer convert HEADER_FILE                    # C header -> HealLang
//   healer replay CORPUS_FILE [--version V]       # run saved programs
//   healer bugs   [--version V]                   # list live injected bugs
//   healer shard  --shard-index I --shards N --gossip-dir DIR
//                 [--rounds R] [--execs-per-round E] [--fanout F] [--seed S]
//                 [--poll-timeout SECS] [--tool T] [--version V]
//                 # one shard as an OS process; gossip batches travel as
//                 # files in DIR (r{round}_s{from}_to{to}.gsp, written
//                 # tmp+rename, polled by the receiver). Run N of these
//                 # with the same flags and distinct --shard-index.
//   healer reconcile --shards N --gossip-dir DIR
//                 # union the shard{I}.rel canonical tables written by
//                 # `healer shard` and print the reconciled hash
//                 # (shard and reconcile check flags like fuzz does)

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/introspect_server.h"
#include "src/base/journal.h"
#include "src/base/string_util.h"
#include "src/exec/executor.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/gossip.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/report.h"
#include "src/fuzz/shard.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
#include "src/syzlang/header_gen.h"

namespace {

using namespace healer;

using Flags = std::map<std::string, std::string>;

// Minimal flag parsing: --name value pairs after the subcommand.
Flags ParseFlags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags["__positional"] = arg;
      continue;
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  return flags;
}

// Parses the value of --`flag` into `*out`. A bad value prints the parse
// error, which names the accepted values; the subcommand then exits 2.
template <typename T>
bool ParseFlag(const char* flag, Result<T> parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --%s: %s\n", flag,
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

// Numeric flags: --`name`'s value (`fallback` when the flag is absent)
// through the strict parsers, so a bad value exits 2 naming the accepted
// range instead of being read as 0 or truncated.
template <typename T>
bool UintFlag(const Flags& flags, const char* name, T fallback, uint64_t max,
              T* out) {
  auto it = flags.find(name);
  uint64_t value = fallback;
  if (it != flags.end() && !ParseFlag(name, ParseUint(it->second, max),
                                      &value)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

bool RealFlag(const Flags& flags, const char* name, double fallback,
              double* out) {
  auto it = flags.find(name);
  *out = fallback;
  return it == flags.end() ||
         ParseFlag(name, ParseNonNegativeReal(it->second), out);
}

// A subcommand path lists the flags it reads; any other flag (a typo, or
// one the path would silently ignore) exits 2 naming it.
bool OnlyFlags(const Flags& flags, const char* path,
               const std::vector<std::string_view>& accepted) {
  for (const auto& [name, value] : flags) {
    if (std::find(accepted.begin(), accepted.end(), name) != accepted.end()) {
      continue;
    }
    if (name == "__positional") {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", path,
                   value.c_str());
    } else {
      std::string list;
      for (std::string_view flag : accepted) {
        list += list.empty() ? "--" : " --";
        list += flag;
      }
      std::fprintf(stderr, "%s: unsupported flag --%s (accepted: %s)\n",
                   path, name.c_str(), list.c_str());
    }
    return false;
  }
  return true;
}

// --tool and --version, with the defaults every subcommand uses.
bool ParseToolFlag(const Flags& flags, ToolKind* tool) {
  auto it = flags.find("tool");
  return ParseFlag("tool",
                   ParseToolKind(it == flags.end() ? "healer" : it->second),
                   tool);
}

bool ParseVersionFlag(const Flags& flags, KernelVersion* version) {
  auto it = flags.find("version");
  return ParseFlag(
      "version", ParseKernelVersion(it == flags.end() ? "5.11" : it->second),
      version);
}

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// ---- sharded campaign (fuzz --shards N) ----

// Each in-process shard is a full fuzzer and, unless --sequential, a thread.
constexpr uint64_t kMaxShards = 256;

void PrintShardedReport(const ShardedCampaignResult& result) {
  const double secs =
      static_cast<double>(result.wall_ns) / 1e9;
  std::printf("shards: %zu\n", result.shards);
  std::printf("total execs: %llu (%.0f execs/sec aggregate)\n",
              static_cast<unsigned long long>(result.total_execs),
              secs > 0 ? static_cast<double>(result.total_execs) / secs : 0);
  std::fputs(FormatProbeLine(result.total_execs, result.analysis_execs,
                             result.images_shipped, result.mask_replays)
                 .c_str(),
             stdout);
  std::printf("union coverage: %zu branches\n", result.union_coverage);
  std::printf("union relations: %zu edges (reconciled hash %016llx)\n",
              result.union_relations,
              static_cast<unsigned long long>(
                  result.reconciled_relations_hash));
  std::printf("gossip: %llu bytes, %llu frames applied, %llu replays "
              "dropped\n",
              static_cast<unsigned long long>(result.gossip_bytes),
              static_cast<unsigned long long>(result.frames_exchanged),
              static_cast<unsigned long long>(result.frames_replayed));
  for (size_t i = 0; i < result.shard_coverage.size(); ++i) {
    std::printf("  shard %zu: %zu branches, corpus fingerprint %016llx\n",
                i, result.shard_coverage[i],
                static_cast<unsigned long long>(
                    result.corpus_fingerprints[i]));
  }
  std::printf("identities: %s\n", result.identities_ok ? "OK" : "FAILED");
}

int CmdShardedFuzz(const Flags& flags, size_t shards) {
  if (!OnlyFlags(flags, "fuzz --shards",
                 {"shards", "rounds", "execs-per-round", "fanout", "seed",
                  "net-seed", "sequential", "reconcile-every", "tool",
                  "version"})) {
    return 2;
  }
  ShardedCampaignOptions options;
  options.shards = shards;
  options.use_threads = flags.count("sequential") == 0;
  if (!UintFlag(flags, "rounds", size_t{8}, 1 << 20, &options.rounds) ||
      !UintFlag(flags, "execs-per-round", size_t{128}, 1 << 30,
                &options.execs_per_round) ||
      !UintFlag(flags, "fanout", size_t{1}, kMaxShards, &options.fanout) ||
      !UintFlag(flags, "seed", uint64_t{1}, UINT64_MAX, &options.seed) ||
      !UintFlag(flags, "net-seed", uint64_t{0}, UINT64_MAX,
                &options.net_seed) ||
      !UintFlag(flags, "reconcile-every", size_t{4}, 1 << 20,
                &options.reconcile_every) ||
      !ParseToolFlag(flags, &options.base.tool) ||
      !ParseVersionFlag(flags, &options.base.version)) {
    return 2;
  }

  const ShardedCampaignResult result =
      RunShardedCampaign(BuiltinTarget(), options);
  PrintShardedReport(result);
  return result.identities_ok ? 0 : 1;
}

// ---- file-based gossip transport (multi-process shard mode) ----
//
// Frames travel as files in a shared --gossip-dir: round R's batch from
// shard A to shard B is r{R}_s{A}_to{B}.gsp, written tmp+rename (rename is
// atomic on POSIX, so an openable file is a complete file) and polled for
// by the receiver. A file is written every scheduled edge, even when the
// batch is empty — its appearance is the lockstep barrier.

std::string FramePath(const std::string& dir, size_t round, size_t from,
                      size_t to) {
  char name[64];
  std::snprintf(name, sizeof(name), "r%zu_s%zu_to%zu.gsp", round, from, to);
  return dir + "/" + name;
}

bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    if (!bytes.empty()) {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    if (!out) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool WaitReadFile(const std::string& path, double timeout_secs,
                  std::vector<uint8_t>* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_secs);
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string& s = buf.str();
      out->assign(s.begin(), s.end());
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int CmdShard(const Flags& flags) {
  if (!OnlyFlags(flags, "shard",
                 {"shard-index", "shards", "gossip-dir", "rounds",
                  "execs-per-round", "fanout", "seed", "poll-timeout", "tool",
                  "version"})) {
    return 2;
  }
  size_t n = 0;
  size_t me = 0;
  size_t rounds = 0;
  size_t execs = 0;
  size_t fanout = 0;
  double timeout = 0.0;
  FuzzerOptions base;
  if (!UintFlag(flags, "shards", size_t{0}, kMaxShards, &n) ||
      !UintFlag(flags, "shard-index", size_t{0}, kMaxShards, &me) ||
      !UintFlag(flags, "rounds", size_t{8}, 1 << 20, &rounds) ||
      !UintFlag(flags, "execs-per-round", size_t{128}, 1 << 30, &execs) ||
      !UintFlag(flags, "fanout", size_t{1}, kMaxShards, &fanout) ||
      !UintFlag(flags, "seed", uint64_t{1}, UINT64_MAX, &base.seed) ||
      !RealFlag(flags, "poll-timeout", 120.0, &timeout) ||
      !ParseToolFlag(flags, &base.tool) ||
      !ParseVersionFlag(flags, &base.version)) {
    return 2;
  }
  const auto dir_it = flags.find("gossip-dir");
  const std::string dir = dir_it == flags.end() ? "" : dir_it->second;
  if (n < 1 || me >= n || dir.empty()) {
    std::fprintf(stderr,
                 "usage: healer shard --shard-index I --shards N "
                 "--gossip-dir DIR (I < N)\n");
    return 2;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  // Same seed schedule as the in-process campaign: shard i fuzzes with
  // seed + i, so an N-process run reproduces `fuzz --shards N --sequential`.
  base.seed += me;

  const Target& target = BuiltinTarget();
  FuzzShard shard(target, base, static_cast<uint32_t>(me));

  for (size_t round = 0; round < rounds; ++round) {
    shard.RunExecs(execs);
    const std::vector<uint8_t> batch = shard.EmitGossip();
    for (size_t peer : GossipPeers(me, n, fanout, round)) {
      if (!WriteFileAtomic(FramePath(dir, round, me, peer), batch)) {
        std::fprintf(stderr, "shard %zu: cannot write gossip for round "
                     "%zu\n", me, round);
        return 1;
      }
    }
    // Everyone whose schedule lists us this round will write us a file;
    // block until each arrives (the lockstep barrier).
    for (size_t from = 0; from < n; ++from) {
      if (from == me) {
        continue;
      }
      const std::vector<size_t> peers = GossipPeers(from, n, fanout, round);
      if (std::find(peers.begin(), peers.end(), me) == peers.end()) {
        continue;
      }
      std::vector<uint8_t> bytes;
      if (!WaitReadFile(FramePath(dir, round, from, me), timeout, &bytes)) {
        std::fprintf(stderr, "shard %zu: timed out waiting for shard %zu "
                     "in round %zu\n", me, from, round);
        return 1;
      }
      if (!bytes.empty()) {
        const Status status = shard.Ingest(bytes.data(), bytes.size());
        if (!status.ok()) {
          std::fprintf(stderr, "shard %zu: hostile batch from shard %zu: "
                       "%s\n", me, from, status.ToString().c_str());
          return 1;
        }
      }
    }
    shard.ApplyInbox();
  }

  // Final artifacts for `healer reconcile`: the canonical relation table
  // bytes plus a small JSON summary.
  const std::vector<uint8_t> canonical = shard.CanonicalRelationBytes();
  char path[512];
  std::snprintf(path, sizeof(path), "%s/shard%zu.rel", dir.c_str(), me);
  if (!WriteFileAtomic(path, canonical)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const bool identity_ok = shard.CheckRelationIdentity();
  std::snprintf(path, sizeof(path), "%s/shard%zu.json", dir.c_str(), me);
  {
    std::ofstream out(path);
    out << "{\"shard\": " << me
        << ", \"execs\": " << shard.fuzzer().FuzzExecs()
        << ", \"coverage\": " << shard.fuzzer().CoverageCount()
        << ", \"relations\": " << shard.fuzzer().relations().Count()
        << ", \"corpus_fingerprint\": \"" << std::hex
        << shard.CorpusFingerprint() << std::dec << "\""
        << ", \"gossip_bytes_out\": " << shard.stats().gossip_bytes_out
        << ", \"identity_ok\": " << (identity_ok ? "true" : "false")
        << "}\n";
  }
  std::printf("shard %zu: %llu execs, %zu branches, %zu relations, "
              "identity %s\n",
              me,
              static_cast<unsigned long long>(shard.fuzzer().FuzzExecs()),
              shard.fuzzer().CoverageCount(),
              shard.fuzzer().relations().Count(),
              identity_ok ? "OK" : "FAILED");
  return identity_ok ? 0 : 1;
}

int CmdReconcile(const Flags& flags) {
  size_t n = 0;
  if (!OnlyFlags(flags, "reconcile", {"shards", "gossip-dir"}) ||
      !UintFlag(flags, "shards", size_t{0}, kMaxShards, &n)) {
    return 2;
  }
  const auto dir_it = flags.find("gossip-dir");
  const std::string dir = dir_it == flags.end() ? "" : dir_it->second;
  if (n < 1 || dir.empty()) {
    std::fprintf(stderr,
                 "usage: healer reconcile --shards N --gossip-dir DIR\n");
    return 2;
  }
  const Target& target = BuiltinTarget();
  std::set<std::pair<uint32_t, uint32_t>> unioned;
  for (size_t i = 0; i < n; ++i) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/shard%zu.rel", dir.c_str(), i);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s (did every shard finish?)\n",
                   path);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string& s = buf.str();
    const std::vector<uint8_t> bytes(s.begin(), s.end());
    // Shard artifacts cross a filesystem boundary, so they get the same
    // hostile-input treatment as gossip frames off the wire.
    Result<std::vector<WireRelationEdge>> edges =
        DecodeRelationsPayload(bytes, target.NumSyscalls());
    if (!edges.ok()) {
      std::fprintf(stderr, "%s: %s\n", path,
                   edges.status().ToString().c_str());
      return 1;
    }
    std::printf("shard %zu: %zu edges\n", i, edges->size());
    for (const WireRelationEdge& e : *edges) {
      unioned.insert({e.from, e.to});
    }
  }
  std::vector<RelationEdge> all;
  all.reserve(unioned.size());
  for (const auto& [from, to] : unioned) {
    all.push_back({static_cast<int>(from), static_cast<int>(to),
                   RelationSource::kDynamic, 0});
  }
  const std::vector<uint8_t> canonical = EncodeRelationsPayload(all);
  const uint64_t hash = FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(canonical.data()), canonical.size()));
  std::printf("reconciled: %zu edges, hash %016llx\n", unioned.size(),
              static_cast<unsigned long long>(hash));
  return 0;
}

int CmdFuzz(const Flags& flags) {
  size_t shards = 1;
  if (!UintFlag(flags, "shards", size_t{1}, kMaxShards, &shards)) {
    return 2;
  }
  if (shards > 1) {
    return CmdShardedFuzz(flags, shards);
  }
  if (!OnlyFlags(flags, "fuzz",
                 {"shards", "tool", "version", "hours", "seed", "corpus-in",
                  "corpus-out", "relations-in",
                  "relations-out", "curve", "edges", "fault-rate", "faults",
                  "fault-retries", "fleet-size", "fleet-shards",
                  "status-period", "metrics-out", "trace-out", "journal-out",
                  "journal-capacity", "postmortem-dir", "http-port",
                  "serve-secs"})) {
    return 2;
  }
  CampaignOptions options;
  auto get = [&](const char* name, const char* fallback) {
    auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  if (!ParseToolFlag(flags, &options.tool) ||
      !ParseVersionFlag(flags, &options.version) ||
      !RealFlag(flags, "hours", 4.0, &options.hours) ||
      !UintFlag(flags, "seed", uint64_t{1}, UINT64_MAX, &options.seed)) {
    return 2;
  }
  options.initial_corpus_path = get("corpus-in", "");
  options.save_corpus_path = get("corpus-out", "");
  options.initial_relations_path = get("relations-in", "");
  options.save_relations_path = get("relations-out", "");

  // Fault injection: --fault-rate P applies one rate to every kind;
  // --faults gives per-kind rates ("crash=0.01,timeout=0.005").
  if (flags.count("fault-rate") != 0) {
    double rate = 0.0;
    if (!ParseFlag("fault-rate", ParseFaultRate(flags.at("fault-rate")),
                   &rate)) {
      return 2;
    }
    options.fault_plan = FaultPlan::Uniform(rate);
  }
  const std::string fault_spec = get("faults", "");
  if (!fault_spec.empty()) {
    Result<FaultPlan> plan = ParseFaultPlan(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    options.fault_plan = *plan;
  }
  // The retry backoff doubles per retry; 30 keeps it far from overflow.
  if (!UintFlag(flags, "fault-retries", 3, 30,
                &options.recovery.max_retries)) {
    return 2;
  }

  // Fleet topology: --fleet-size N simulates N guests on the reactor
  // shards (0 = legacy pinned pool); --fleet-shards overrides the
  // auto-derived shard count (fleet_size / 256).
  if (!UintFlag(flags, "fleet-size", size_t{0}, 1 << 16,
                &options.fleet_size) ||
      !UintFlag(flags, "fleet-shards", size_t{0}, 1 << 16,
                &options.fleet_shards)) {
    return 2;
  }

  // Telemetry surfaces: live status, metric dump, and the Chrome trace,
  // which renders the journal window.
  double status_secs = 0.0;
  if (!RealFlag(flags, "status-period", 0.0, &status_secs)) {
    return 2;
  }
  if (status_secs > 0) {
    options.status_period = static_cast<SimClock::Nanos>(
        status_secs * static_cast<double>(SimClock::kSecond));
  }
  const std::string metrics_out = get("metrics-out", "");
  const std::string trace_out = get("trace-out", "");

  // Flight recorder and crash postmortems. Every slot of the ring is
  // constructed upfront, which bounds the capacity.
  const std::string journal_out = get("journal-out", "");
  if (!UintFlag(flags, "journal-capacity", size_t{4096}, 1 << 24,
                &options.journal_capacity)) {
    return 2;
  }
  if (!trace_out.empty() && options.journal_capacity == 0) {
    std::fprintf(stderr,
                 "--trace-out renders the journal: it needs "
                 "--journal-capacity > 0\n");
    return 2;
  }
  options.postmortem_dir = get("postmortem-dir", "");
  uint16_t http_port = 0;
  double serve_secs = 0.0;
  if (!UintFlag(flags, "http-port", uint16_t{0}, 65535, &http_port) ||
      !RealFlag(flags, "serve-secs", 0.0, &serve_secs)) {
    return 2;
  }

  // Live introspection: --http-port binds a localhost-only HTTP server
  // (port 0 picks an ephemeral one; the bound port goes to stderr so
  // scripts can scrape it). The campaign publishes snapshots into the hub
  // at every sample point; the server answers from them off the hot path.
  IntrospectionHub hub;
  IntrospectServer server(&hub);
  if (flags.count("http-port") != 0) {
    if (!server.Start(http_port)) {
      std::fprintf(stderr, "cannot bind introspection server (port %u)\n",
                   static_cast<unsigned>(http_port));
      return 1;
    }
    std::fprintf(stderr, "introspection server listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));
    std::fflush(stderr);
    options.introspect = &hub;
  }

  const CampaignResult result = RunCampaign(options);
  ReportOptions ropts;
  ropts.include_samples = flags.count("curve") != 0;
  ropts.include_relations = flags.count("edges") != 0;
  std::fputs(FormatCampaignReport(result, ropts).c_str(), stdout);

  if (!metrics_out.empty()) {
    // A .json suffix selects the JSON encoding; anything else gets the
    // Prometheus text exposition format.
    const bool json = metrics_out.size() >= 5 &&
                      metrics_out.compare(metrics_out.size() - 5, 5,
                                          ".json") == 0;
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << (json ? result.telemetry.ToJson()
                 : result.telemetry.ToPrometheusText());
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    out << JournalRecordsToChromeJson(result.journal);
  }
  if (!journal_out.empty()) {
    // A .bin suffix selects the compact binary frame; anything else JSONL.
    const bool bin = journal_out.size() >= 4 &&
                     journal_out.compare(journal_out.size() - 4, 4,
                                         ".bin") == 0;
    std::ofstream out(journal_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", journal_out.c_str());
      return 1;
    }
    out << (bin ? JournalRecordsToBinary(result.journal)
                : JournalRecordsToJsonl(result.journal));
  }
  if (server.running()) {
    if (serve_secs > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(serve_secs));
    }
    server.Stop();
  }
  return 0;
}

int CmdRelations(const Flags& flags) {
  KernelVersion version;
  if (!ParseVersionFlag(flags, &version)) {
    return 2;
  }
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  const size_t statics = StaticRelationLearn(target, &table);
  std::printf("# static relations: %zu\n", statics);
  if (flags.count("probe") != 0) {
    Executor executor(target, KernelConfig::ForVersion(version));
    SimClock clock;
    DynamicLearner learner(
        &table, [&](const Prog& p) { return executor.Run(p, nullptr); },
        &clock);
    Rng rng(1);
    size_t dynamic = 0;
    for (const auto& chain : TemplateChains()) {
      Prog prog = BuildChain(target, AllIds(target), chain, &rng);
      if (!prog.empty()) {
        dynamic += learner.Learn(prog);
      }
    }
    std::printf("# dynamic relations from template probing: %zu\n", dynamic);
  }
  for (const RelationEdge& edge : table.EdgesBefore()) {
    std::printf("%s %s\n", target.syscall(edge.from).name.c_str(),
                target.syscall(edge.to).name.c_str());
  }
  return 0;
}

int CmdConvert(const Flags& flags) {
  auto it = flags.find("__positional");
  if (it == flags.end()) {
    std::fprintf(stderr, "usage: healer convert HEADER_FILE\n");
    return 2;
  }
  std::ifstream in(it->second);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", it->second.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto converted = ConvertHeaderToDescriptions(buf.str());
  if (!converted.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n",
                 converted.status().ToString().c_str());
    return 1;
  }
  std::fputs(converted->c_str(), stdout);
  return 0;
}

int CmdReplay(const Flags& flags) {
  auto it = flags.find("__positional");
  if (it == flags.end()) {
    std::fprintf(stderr, "usage: healer replay CORPUS_FILE [--version V]\n");
    return 2;
  }
  KernelVersion version;
  if (!ParseVersionFlag(flags, &version)) {
    return 2;
  }
  const Target& target = BuiltinTarget();
  size_t skipped = 0;
  auto progs = LoadProgs(it->second, target, &skipped);
  if (!progs.ok()) {
    std::fprintf(stderr, "%s\n", progs.status().ToString().c_str());
    return 1;
  }
  Executor executor(target, KernelConfig::ForVersion(version));
  Bitmap coverage(CallCoverage::kMapBits);
  size_t crashes = 0;
  for (const Prog& prog : *progs) {
    const ExecResult result = executor.Run(prog, &coverage);
    if (result.Crashed()) {
      ++crashes;
      std::printf("CRASH %s\n%s", result.crash->title.c_str(),
                  prog.ToString().c_str());
    }
  }
  std::printf("replayed %zu programs (%zu skipped): %zu branches, "
              "%zu crashes\n",
              progs->size(), skipped, coverage.Count(), crashes);
  return 0;
}

int CmdBugs(const Flags& flags) {
  KernelVersion version;
  if (!ParseVersionFlag(flags, &version)) {
    return 2;
  }
  std::printf("%-55s %-25s %-9s %s\n", "title", "class", "subsystem",
              "min-repro");
  size_t live = 0;
  for (const BugInfo& info : AllBugs()) {
    if (!BugLiveIn(info.id, version)) {
      continue;
    }
    ++live;
    std::printf("%-55s %-25s %-9s %d\n", info.title,
                BugClassName(info.bug_class), info.subsystem,
                info.repro_len);
  }
  std::printf("# %zu bugs live in v%s\n", live, KernelVersionName(version));
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: healer <fuzz|relations|convert|replay|bugs|"
               "shard|reconcile> [flags]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "fuzz") {
    return CmdFuzz(flags);
  }
  if (cmd == "relations") {
    return CmdRelations(flags);
  }
  if (cmd == "convert") {
    return CmdConvert(flags);
  }
  if (cmd == "replay") {
    return CmdReplay(flags);
  }
  if (cmd == "bugs") {
    return CmdBugs(flags);
  }
  if (cmd == "shard") {
    return CmdShard(flags);
  }
  if (cmd == "reconcile") {
    return CmdReconcile(flags);
  }
  Usage();
  return 2;
}
