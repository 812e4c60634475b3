#include "src/base/journal.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#include "src/base/string_util.h"

namespace healer {

namespace {

// JSON string escaping for `detail` payloads (control chars, quote,
// backslash), shared by the JSONL and Chrome exports.
void AppendJsonEscaped(const std::string& in, std::string* out) {
  for (char ch : in) {
    switch (ch) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          *out += buf;
        } else {
          *out += ch;
        }
    }
  }
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) {
    return false;
  }
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + i]))
         << (8 * i);
  }
  *pos += 4;
  *v = r;
  return true;
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) {
    return false;
  }
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *v = r;
  return true;
}

constexpr char kBinaryMagic[4] = {'H', 'J', 'B', '1'};

}  // namespace

const char* JournalKindName(JournalKind kind) {
  switch (kind) {
    case JournalKind::kExec:
      return "exec";
    case JournalKind::kCorpusAdd:
      return "corpus-add";
    case JournalKind::kRelationLearned:
      return "relation-learned";
    case JournalKind::kFault:
      return "fault";
    case JournalKind::kRecovery:
      return "recovery";
    case JournalKind::kVmLifecycle:
      return "vm-lifecycle";
    case JournalKind::kRingStall:
      return "ring-stall";
    case JournalKind::kCrash:
      return "crash";
    case JournalKind::kSpan:
      return "span";
  }
  return "unknown";
}

std::string JournalRecord::ToJsonLine() const {
  std::string out;
  out.reserve(96 + detail.size());
  out += "{\"at\":";
  out += std::to_string(at);
  out += ",\"kind\":\"";
  out += JournalKindName(kind);
  out += "\",\"worker\":";
  out += std::to_string(worker);
  out += ",\"a\":";
  out += std::to_string(a);
  out += ",\"b\":";
  out += std::to_string(b);
  out += ",\"c\":";
  out += std::to_string(c);
  if (!detail.empty()) {
    out += ",\"detail\":\"";
    AppendJsonEscaped(detail, &out);
    out += "\"";
  }
  out += "}";
  return out;
}

Journal::Journal(size_t capacity)
    : capacity_(kTelemetryEnabled ? capacity : 0),
      ring_(capacity_ * sizeof(JournalRecord), std::nothrow),
      slots_(reinterpret_cast<JournalRecord*>(ring_.data())) {
  if (slots_ == nullptr) {
    capacity_ = 0;  // Degrade to a disabled journal rather than crash.
  }
}

Journal::~Journal() {
  for (size_t i = 0; i < size_; ++i) {
    slots_[i].~JournalRecord();
  }
}

void Journal::Append(JournalRecord record) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Push(std::move(record));
}

void Journal::AppendBatch(std::vector<JournalRecord>* records) {
  if (!enabled()) {
    records->clear();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (JournalRecord& record : *records) {
    Push(std::move(record));
  }
  records->clear();
}

void Journal::Push(JournalRecord&& record) {
  ++total_;
  if (size_ < capacity_) {
    // A slot is built the first time the ring reaches it, so only written
    // slots touch their pages.
    new (&slots_[size_++]) JournalRecord(std::move(record));
    return;
  }
  slots_[next_] = std::move(record);
  next_ = (next_ + 1) % capacity_;
}

std::vector<JournalRecord> Journal::Records() const {
  return Tail(std::numeric_limits<size_t>::max());
}

std::vector<JournalRecord> Journal::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = std::min(n, size_);
  std::vector<JournalRecord> out;
  out.reserve(count);
  // Logical index i (0 = oldest) lives at slot (next_ + i) % size_: next_
  // stays 0 until the ring wraps, and is the oldest slot afterwards.
  for (size_t i = size_ - count; i < size_; ++i) {
    out.push_back(slots_[(next_ + i) % size_]);
  }
  return out;
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - size_;
}

std::string Journal::ToJsonl(size_t n) const {
  return JournalRecordsToJsonl(n == 0 ? Records() : Tail(n));
}

std::string JournalRecordsToJsonl(const std::vector<JournalRecord>& records) {
  std::string out;
  for (const JournalRecord& record : records) {
    out += record.ToJsonLine();
    out += "\n";
  }
  return out;
}

std::string JournalRecordsToChromeJson(
    const std::vector<JournalRecord>& records) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"";
    if (r.kind == JournalKind::kSpan) {
      AppendJsonEscaped(r.detail, &out);
      out += StrFormat("\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                       "\"ts\": %.3f, \"dur\": %.3f}",
                       r.worker, static_cast<double>(r.at) / 1000.0,
                       static_cast<double>(r.a) / 1000.0);
      continue;
    }
    out += JournalKindName(r.kind);
    out += StrFormat("\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"args\": {\"a\": %llu, "
                     "\"b\": %llu, \"c\": %llu, \"detail\": \"",
                     r.worker, static_cast<double>(r.at) / 1000.0,
                     static_cast<unsigned long long>(r.a),
                     static_cast<unsigned long long>(r.b),
                     static_cast<unsigned long long>(r.c));
    AppendJsonEscaped(r.detail, &out);
    out += "\"}}";
  }
  out += "\n]}\n";
  return out;
}

std::string JournalRecordsToBinary(const std::vector<JournalRecord>& records) {
  std::string out;
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  PutU32(static_cast<uint32_t>(records.size()), &out);
  for (const JournalRecord& record : records) {
    out.push_back(static_cast<char>(record.kind));
    PutU32(record.worker, &out);
    PutU64(record.at, &out);
    PutU64(record.a, &out);
    PutU64(record.b, &out);
    PutU64(record.c, &out);
    PutU32(static_cast<uint32_t>(record.detail.size()), &out);
    out += record.detail;
  }
  return out;
}

bool JournalRecordsFromBinary(const std::string& data,
                              std::vector<JournalRecord>* out) {
  out->clear();
  if (data.size() < sizeof(kBinaryMagic) ||
      std::memcmp(data.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return false;
  }
  size_t pos = sizeof(kBinaryMagic);
  uint32_t count = 0;
  if (!GetU32(data, &pos, &count)) {
    return false;
  }
  // Defensive cap: a frame cannot hold more records than bytes.
  if (count > data.size()) {
    return false;
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JournalRecord record;
    if (pos >= data.size()) {
      return false;
    }
    const uint8_t kind = static_cast<uint8_t>(data[pos++]);
    if (kind >= kNumJournalKinds) {
      return false;
    }
    record.kind = static_cast<JournalKind>(kind);
    uint32_t detail_len = 0;
    if (!GetU32(data, &pos, &record.worker) ||
        !GetU64(data, &pos, &record.at) || !GetU64(data, &pos, &record.a) ||
        !GetU64(data, &pos, &record.b) || !GetU64(data, &pos, &record.c) ||
        !GetU32(data, &pos, &detail_len)) {
      return false;
    }
    if (pos + detail_len > data.size()) {
      return false;
    }
    record.detail.assign(data, pos, detail_len);
    pos += detail_len;
    out->push_back(std::move(record));
  }
  return pos == data.size();
}

}  // namespace healer
