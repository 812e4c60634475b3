// Corpus persistence: save/load program sets in the wire format, so a
// campaign can start from "an initial corpus provided by the user"
// (Section 4) and corpora can be carried across runs.
//
// SaveProgs writes HCORP1 ("HCORP1\n\0"; DESIGN.md §11 has the layout): a
// checksummed, page-aligned container built for instant warm restart — a
// 64-byte header, a flat index of {offset, length, checksum} entries, zero
// padding to a page boundary, then the packed program payloads. Loading is
// a single mmap plus an index scan; no per-program reads, and the page
// cache keeps repeat restarts effectively free.
//
// LoadProgs auto-detects the container from the magic and also reads the
// legacy "HCOR" stream (magic, u32 count, then per program u32 length +
// SerializeProg bytes), which is no longer written.

#ifndef SRC_FUZZ_CORPUS_IO_H_
#define SRC_FUZZ_CORPUS_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/prog/prog.h"

namespace healer {

// Writes `progs` as an HCORP1 container. Saving the same program sequence
// twice produces byte-identical files.
Status SaveProgs(const std::string& path, const std::vector<Prog>& progs);

// Loads and validates programs against `target`; the container format is
// auto-detected from the file magic. Programs that fail to decode or
// validate are skipped (counted in *skipped when non-null); structural
// container damage (bad magic/checksums, truncation, overlapping or
// out-of-bounds extents) is a typed ParseError.
Result<std::vector<Prog>> LoadProgs(const std::string& path,
                                    const Target& target,
                                    size_t* skipped = nullptr);

}  // namespace healer

#endif  // SRC_FUZZ_CORPUS_IO_H_
