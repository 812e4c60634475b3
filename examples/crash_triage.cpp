// Domain example: crash triage across kernel versions. Runs a HEALER
// campaign on every modelled version and produces a syzbot-style report:
// which bugs exist on which versions, and the shortest reproducer length
// seen for each.
//
//   ./build/examples/crash_triage [hours-per-version]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/fuzz/campaign.h"

namespace {

using namespace healer;

}  // namespace

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::atof(argv[1]) : 8.0;
  const KernelVersion versions[] = {
      KernelVersion::kV4_19, KernelVersion::kV5_0, KernelVersion::kV5_4,
      KernelVersion::kV5_6, KernelVersion::kV5_11};

  std::map<BugId, std::vector<std::string>> sightings;
  std::map<BugId, size_t> repro_len;
  for (KernelVersion version : versions) {
    CampaignOptions options;
    options.tool = ToolKind::kHealer;
    options.version = version;
    options.hours = hours;
    options.seed = 11;
    const CampaignResult result = RunCampaign(options);
    std::printf("v%-5s: %6llu execs, %5zu branches, %2zu unique crashes\n",
                KernelVersionName(version),
                (unsigned long long)result.fuzz_execs, result.final_coverage,
                result.crashes.size());
    for (const CrashRecord& crash : result.crashes) {
      sightings[crash.bug].push_back(KernelVersionName(version));
      auto it = repro_len.find(crash.bug);
      if (it == repro_len.end() || crash.shortest_repro < it->second) {
        repro_len[crash.bug] = crash.shortest_repro;
      }
    }
  }

  std::printf("\n== triage report ==\n");
  std::printf("%-55s %-25s %-7s %s\n", "title", "class", "repro", "seen on");
  for (const auto& [bug, versions_seen] : sightings) {
    const BugInfo& info = GetBugInfo(bug);
    std::string seen;
    for (size_t i = 0; i < versions_seen.size(); ++i) {
      seen += (i != 0 ? "," : "") + versions_seen[i];
    }
    std::printf("%-55s %-25s %-7zu %s\n", info.title,
                BugClassName(info.bug_class), repro_len[bug], seen.c_str());
  }
  std::printf("\n%zu distinct bugs triaged.\n", sightings.size());
  return 0;
}
