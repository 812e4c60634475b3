#include "src/fuzz/corpus_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "src/base/hash.h"
#include "src/base/string_util.h"
#include "src/prog/serialize.h"

namespace healer {

namespace {

constexpr char kMagic[4] = {'H', 'C', 'O', 'R'};

// HCORP1 container constants. The header is a fixed 64 bytes; the index is
// 16 bytes per program; payload starts at the first page boundary after the
// index so a warm restart maps it with no copy or realignment.
constexpr char kHcorpMagic[8] = {'H', 'C', 'O', 'R', 'P', '1', '\n', '\0'};
// Version 2 switched every container checksum (header, index, per-entry
// payload) from byte-serial FNV-1a to the word-at-a-time FastBytesHash —
// same corruption detection, ~8x cheaper on the warm-start path where the
// per-entry payload hashes dominated the mmap load (BENCH_hotpath
// warmstart_speedup was below 1x with the byte-serial hash). Version-1
// files are rejected with a clear error; corpora are regenerated per
// campaign, so no migration path is kept.
constexpr uint32_t kHcorpVersion = 2;
constexpr uint64_t kHcorpPageSize = 4096;
constexpr uint64_t kHcorpHeaderBytes = 64;
constexpr uint64_t kHcorpEntryBytes = 16;
constexpr uint64_t kMaxProgs = 1u << 20;
constexpr uint64_t kMaxProgBytes = 1u << 24;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool ReadU32(std::FILE* f, uint32_t* v) {
  return std::fread(v, 4, 1, f) == 1;
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint64_t BytesHash(const uint8_t* data, size_t len) {
  return FastBytesHash(
      std::string_view(reinterpret_cast<const char*>(data), len));
}

// Read-only view of a whole file: mmap when possible (the HCORP1 fast
// path — one syscall, zero copies, page-cache-warm on restart), falling
// back to a heap read for filesystems that refuse to map.
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path) {
    MappedFile mf;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return NotFound(StrFormat("cannot open '%s'", path.c_str()));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return ParseError(StrFormat("cannot stat '%s'", path.c_str()));
    }
    mf.size_ = static_cast<size_t>(st.st_size);
    if (mf.size_ > 0) {
      void* base = ::mmap(nullptr, mf.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        mf.map_base_ = base;
        mf.data_ = static_cast<const uint8_t*>(base);
      } else {
        mf.fallback_.resize(mf.size_);
        size_t got = 0;
        while (got < mf.size_) {
          const ssize_t n =
              ::read(fd, mf.fallback_.data() + got, mf.size_ - got);
          if (n <= 0) {
            ::close(fd);
            return ParseError(StrFormat("cannot read '%s'", path.c_str()));
          }
          got += static_cast<size_t>(n);
        }
        mf.data_ = mf.fallback_.data();
      }
    }
    ::close(fd);
    return mf;
  }

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    Unmap();
    map_base_ = other.map_base_;
    data_ = other.data_;
    size_ = other.size_;
    dropped_ = other.dropped_;
    fallback_ = std::move(other.fallback_);
    if (!fallback_.empty()) {
      data_ = fallback_.data();
    }
    other.map_base_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { Unmap(); }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  // Drops the mapped pages below `end`, rounded down to kDropChunk, so a
  // front-to-back reader keeps a bounded window of the file resident
  // instead of all of it. Reading a dropped page faults it back in from
  // the file. A no-op for the heap fallback.
  void DropBelow(size_t end) {
    end &= ~(kDropChunk - 1);
    if (map_base_ != nullptr && end > dropped_) {
      ::madvise(static_cast<uint8_t*>(map_base_) + dropped_, end - dropped_,
                MADV_DONTNEED);
      dropped_ = end;
    }
  }

 private:
  // A multiple of every page size in use, so each drop is page-aligned.
  static constexpr size_t kDropChunk = 256 << 10;

  void Unmap() {
    if (map_base_ != nullptr) {
      ::munmap(map_base_, size_);
      map_base_ = nullptr;
    }
  }

  void* map_base_ = nullptr;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t dropped_ = 0;  // Mapping bytes [0, dropped_) already dropped.
  std::vector<uint8_t> fallback_;
};

Result<std::vector<Prog>> LoadLegacy(const std::string& path,
                                     const Target& target, size_t* skipped) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  // The file size bounds every length field, so a hostile header can never
  // force an allocation larger than the file itself.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return ParseError(StrFormat("cannot stat '%s'", path.c_str()));
  }
  const long file_size = std::ftell(file.get());
  std::rewind(file.get());
  if (file_size < 8) {
    return ParseError(StrFormat("'%s' is not a corpus file", path.c_str()));
  }
  uint64_t remaining = static_cast<uint64_t>(file_size) - 8;
  char magic[4];
  if (std::fread(magic, 4, 1, file.get()) != 1 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return ParseError(StrFormat("'%s' is not a corpus file", path.c_str()));
  }
  uint32_t count;
  if (!ReadU32(file.get(), &count) || count > kMaxProgs ||
      count > remaining / 4) {
    return ParseError("bad corpus count");
  }
  std::vector<Prog> progs;
  progs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len;
    if (!ReadU32(file.get(), &len)) {
      return ParseError(StrFormat("bad program length at entry %u", i));
    }
    remaining -= 4;
    if (len > kMaxProgBytes || len > remaining) {
      return ParseError(
          StrFormat("oversized program length at entry %u", i));
    }
    remaining -= len;
    std::vector<uint8_t> bytes(len);
    if (len > 0 && std::fread(bytes.data(), len, 1, file.get()) != 1) {
      return ParseError(StrFormat("truncated program at entry %u", i));
    }
    // DeserializeProg validates resource refs inline; a program it accepts
    // already satisfies Prog::Validate(), so no second walk here.
    Result<Prog> prog = DeserializeProg(target, bytes.data(), bytes.size());
    if (!prog.ok()) {
      if (skipped != nullptr) {
        ++*skipped;
      }
      continue;
    }
    progs.push_back(std::move(prog).value());
  }
  return progs;
}

Result<std::vector<Prog>> LoadHcorp1(MappedFile& file,
                                     const std::string& path,
                                     const Target& target, size_t* skipped) {
  const uint8_t* base = file.data();
  const uint64_t file_size = file.size();
  if (file_size < kHcorpHeaderBytes) {
    return ParseError(StrFormat("'%s': truncated hcorp1 header", path.c_str()));
  }
  // Header integrity first: nothing else in the file is trusted until the
  // header checksum matches.
  const uint64_t header_checksum = GetU64(base + 56);
  if (BytesHash(base, 56) != header_checksum) {
    return ParseError(StrFormat("'%s': hcorp1 header checksum mismatch",
                                path.c_str()));
  }
  const uint32_t version = GetU32(base + 8);
  const uint32_t page_size = GetU32(base + 12);
  const uint64_t count = GetU64(base + 16);
  const uint64_t index_off = GetU64(base + 24);
  const uint64_t payload_off = GetU64(base + 32);
  const uint64_t payload_len = GetU64(base + 40);
  const uint64_t index_checksum = GetU64(base + 48);
  if (version != kHcorpVersion) {
    return ParseError(StrFormat("'%s': unsupported hcorp1 version %u",
                                path.c_str(), version));
  }
  if (page_size != kHcorpPageSize) {
    return ParseError(StrFormat("'%s': unsupported hcorp1 page size %u",
                                path.c_str(), page_size));
  }
  if (count > kMaxProgs) {
    return ParseError("bad corpus count");
  }
  const uint64_t index_len = count * kHcorpEntryBytes;
  // All extents are validated against the actual file size before any
  // dereference: index within [header, payload), payload page-aligned and
  // exactly filling the rest of the file.
  if (index_off != kHcorpHeaderBytes || index_len > file_size - index_off ||
      index_off + index_len > payload_off) {
    return ParseError(StrFormat("'%s': hcorp1 index out of bounds",
                                path.c_str()));
  }
  if (payload_off % page_size != 0 || payload_off > file_size ||
      payload_len != file_size - payload_off) {
    return ParseError(StrFormat("'%s': hcorp1 payload extent mismatch",
                                path.c_str()));
  }
  const uint8_t* index = base + index_off;
  if (BytesHash(index, index_len) != index_checksum) {
    return ParseError(StrFormat("'%s': hcorp1 index checksum mismatch",
                                path.c_str()));
  }
  const uint8_t* payload = base + payload_off;
  std::vector<Prog> progs;
  progs.reserve(count);
  uint64_t prev_end = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* entry = index + i * kHcorpEntryBytes;
    const uint64_t offset = GetU64(entry);
    const uint32_t len = GetU32(entry + 8);
    const uint32_t checksum = GetU32(entry + 12);
    if (len > kMaxProgBytes || offset > payload_len ||
        len > payload_len - offset) {
      return ParseError(StrFormat(
          "'%s': hcorp1 entry %llu extent out of bounds", path.c_str(),
          static_cast<unsigned long long>(i)));
    }
    if (offset < prev_end) {
      return ParseError(StrFormat(
          "'%s': hcorp1 entry %llu overlaps its predecessor", path.c_str(),
          static_cast<unsigned long long>(i)));
    }
    prev_end = offset + len;
    // Entries ascend, so every payload byte below this one has been read.
    file.DropBelow(payload_off + offset);
    if (static_cast<uint32_t>(BytesHash(payload + offset, len)) != checksum) {
      return ParseError(StrFormat(
          "'%s': hcorp1 entry %llu payload checksum mismatch", path.c_str(),
          static_cast<unsigned long long>(i)));
    }
    // Container structure is sound from here on; a program that fails to
    // decode (DeserializeProg validates resource refs inline — no second
    // per-program walk) is individually skipped, like the legacy loader.
    Result<Prog> prog = DeserializeProg(target, payload + offset, len);
    if (!prog.ok()) {
      if (skipped != nullptr) {
        ++*skipped;
      }
      continue;
    }
    progs.push_back(std::move(prog).value());
  }
  return progs;
}

}  // namespace

Status SaveProgs(const std::string& path, const std::vector<Prog>& progs) {
  // The index (offsets, lengths, checksums) precedes the payloads, so each
  // program is serialized twice: once here for its index entry and once
  // when its bytes are written. Keeping the payloads between the two passes
  // would hold a second copy of the corpus while the caller's program trees
  // are still alive.
  const uint64_t count = progs.size();
  const uint64_t index_off = kHcorpHeaderBytes;
  const uint64_t index_len = count * kHcorpEntryBytes;
  const uint64_t payload_off =
      (index_off + index_len + kHcorpPageSize - 1) & ~(kHcorpPageSize - 1);
  std::vector<uint8_t> index;
  index.reserve(index_len);
  uint64_t payload_len = 0;
  for (const Prog& prog : progs) {
    const std::vector<uint8_t> bytes = SerializeProg(prog);
    PutU64(&index, payload_len);
    PutU32(&index, static_cast<uint32_t>(bytes.size()));
    PutU32(&index, static_cast<uint32_t>(BytesHash(bytes.data(),
                                                   bytes.size())));
    payload_len += bytes.size();
  }

  // Header, index and zero padding to the payload page boundary.
  std::vector<uint8_t> head;
  head.reserve(payload_off);
  head.insert(head.end(), kHcorpMagic, kHcorpMagic + 8);
  PutU32(&head, kHcorpVersion);
  PutU32(&head, static_cast<uint32_t>(kHcorpPageSize));
  PutU64(&head, count);
  PutU64(&head, index_off);
  PutU64(&head, payload_off);
  PutU64(&head, payload_len);
  PutU64(&head, BytesHash(index.data(), index.size()));
  PutU64(&head, BytesHash(head.data(), head.size()));
  head.insert(head.end(), index.begin(), index.end());
  head.resize(payload_off, 0);

  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Internal(StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  // One deterministic byte stream: saving the same corpus twice produces
  // byte-identical files (tests pin this).
  if (std::fwrite(head.data(), head.size(), 1, file.get()) != 1) {
    return Internal("short write");
  }
  for (const Prog& prog : progs) {
    const std::vector<uint8_t> bytes = SerializeProg(prog);
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), bytes.size(), 1, file.get()) != 1) {
      return Internal("short write");
    }
  }
  if (std::fflush(file.get()) != 0) {
    return Internal("short write");
  }
  return OkStatus();
}

Result<std::vector<Prog>> LoadProgs(const std::string& path,
                                    const Target& target, size_t* skipped) {
  if (skipped != nullptr) {
    *skipped = 0;
  }
  // Detect the container by magic. The 8-byte hcorp1 magic is checked
  // first; it cannot collide with a legacy file (a legacy header would need
  // its count field to spell "P1\n\0").
  {
    FilePtr probe(std::fopen(path.c_str(), "rb"));
    if (probe == nullptr) {
      return NotFound(StrFormat("cannot open '%s'", path.c_str()));
    }
    char magic[8] = {};
    const size_t got = std::fread(magic, 1, 8, probe.get());
    if (got == 8 && std::memcmp(magic, kHcorpMagic, 8) == 0) {
      HEALER_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
      return LoadHcorp1(file, path, target, skipped);
    }
  }
  return LoadLegacy(path, target, skipped);
}

}  // namespace healer
