#include "src/fuzz/postmortem.h"

#include <filesystem>
#include <fstream>

#include "src/base/string_util.h"

namespace healer {

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char ch : in) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += StrFormat("\\u%04x",
                       static_cast<unsigned>(static_cast<unsigned char>(ch)));
    } else {
      out += ch;
    }
  }
  return out;
}

Status WriteFile(const std::filesystem::path& path,
                 const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status(StatusCode::kInternal,
                  StrFormat("cannot open %s", path.string().c_str()));
  }
  out << contents;
  out.close();
  if (!out) {
    return Status(StatusCode::kInternal,
                  StrFormat("short write to %s", path.string().c_str()));
  }
  return OkStatus();
}

std::string CrashJson(const PostmortemBundle& bundle) {
  const CrashRecord& crash = bundle.crash;
  std::string out = "{\n";
  out += StrFormat("  \"bug\": %d,\n", static_cast<int>(crash.bug));
  out += StrFormat("  \"title\": \"%s\",\n", JsonEscape(crash.title).c_str());
  out += StrFormat("  \"first_seen_ns\": %llu,\n",
                   (unsigned long long)crash.first_seen);
  out += StrFormat("  \"first_exec\": %llu,\n",
                   (unsigned long long)crash.first_exec);
  out += StrFormat("  \"shortest_repro\": %zu,\n", crash.shortest_repro);
  out += StrFormat("  \"seed\": %llu,\n", (unsigned long long)bundle.seed);
  out += StrFormat("  \"tool\": \"%s\"\n", JsonEscape(bundle.tool).c_str());
  out += "}\n";
  return out;
}

std::string RelationsJson(const PostmortemBundle& bundle) {
  std::string out = "{\n";
  out += StrFormat("  \"epoch\": %llu,\n",
                   (unsigned long long)bundle.relation_epoch);
  out += StrFormat("  \"edges\": %llu,\n",
                   (unsigned long long)bundle.relation_edges);
  out += StrFormat("  \"static\": %llu,\n",
                   (unsigned long long)bundle.relation_static);
  out += StrFormat("  \"dynamic\": %llu,\n",
                   (unsigned long long)bundle.relation_dynamic);
  out += StrFormat("  \"backlog\": %llu\n",
                   (unsigned long long)bundle.relation_backlog);
  out += "}\n";
  return out;
}

}  // namespace

std::string PostmortemSlug(const std::string& title) {
  std::string slug;
  slug.reserve(title.size());
  bool last_dash = true;  // Suppress a leading dash.
  for (char ch : title) {
    if (slug.size() >= 48) {
      break;
    }
    if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')) {
      slug += ch;
      last_dash = false;
    } else if (ch >= 'A' && ch <= 'Z') {
      slug += static_cast<char>(ch - 'A' + 'a');
      last_dash = false;
    } else if (!last_dash) {
      slug += '-';
      last_dash = true;
    }
  }
  while (!slug.empty() && slug.back() == '-') {
    slug.pop_back();
  }
  return slug.empty() ? "crash" : slug;
}

Result<std::string> WritePostmortemBundle(const std::string& dir,
                                          const PostmortemBundle& bundle) {
  const std::filesystem::path bundle_dir =
      std::filesystem::path(dir) /
      StrFormat("bug-%d-%s", static_cast<int>(bundle.crash.bug),
                PostmortemSlug(bundle.crash.title).c_str());
  std::error_code ec;
  std::filesystem::create_directories(bundle_dir, ec);
  if (ec) {
    return Status(StatusCode::kInternal,
                  StrFormat("cannot create %s: %s",
                            bundle_dir.string().c_str(),
                            ec.message().c_str()));
  }
  Status status = WriteFile(bundle_dir / "crash.json", CrashJson(bundle));
  if (status.ok()) {
    status = WriteFile(bundle_dir / "program.txt", bundle.program_text);
  }
  if (status.ok()) {
    status = WriteFile(bundle_dir / "journal.jsonl",
                       JournalRecordsToJsonl(bundle.journal_window));
  }
  if (status.ok()) {
    status = WriteFile(bundle_dir / "journal.bin",
                       JournalRecordsToBinary(bundle.journal_window));
  }
  if (status.ok()) {
    status = WriteFile(bundle_dir / "metrics.prom",
                       bundle.metrics.ToPrometheusText());
  }
  if (status.ok()) {
    status = WriteFile(bundle_dir / "relations.json", RelationsJson(bundle));
  }
  if (!status.ok()) {
    return status;
  }
  return bundle_dir.string();
}

Status WritePostmortemRepro(const std::string& bundle_dir,
                            const std::string& repro_text) {
  return WriteFile(std::filesystem::path(bundle_dir) / "repro.txt",
                   repro_text);
}

}  // namespace healer
