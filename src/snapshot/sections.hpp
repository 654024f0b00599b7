#pragma once

// The snapshot container (DESIGN.md §5f): every checkpoint file — a day
// loop's, a sweep point's, the flight recorder's cluster.snap — is one
// "BAATSECT" file, an ordered sequence of independently CRC-protected
// sections. A day-loop checkpoint holds section 0 (the loop state) and one
// section per shard, so a corrupted shard is reported by index.
//
// Layout (all little-endian, same scalar encoding as serialize.hpp):
//   magic   "BAATSECT"                      8 bytes
//   version u32                             4
//   config  u64 scenario config hash        8
//   count   u64 number of sections          8
//   then per section:
//     size  u64 payload bytes
//     crc   u32 CRC-32 of the payload
//     payload
//
// Writing goes through `<path>.tmp` + atomic rename: a crash mid-checkpoint
// leaves the previous checkpoint intact, never a half-written file. Small
// files are assembled in memory and only hit the disk at commit, so the
// tmp file exists for as short a window as possible; a file that outgrows
// kSectionBufferBytes (one large datacenter shard) streams its sections to
// the tmp file as they are appended, so peak memory stays one section.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "snapshot/serialize.hpp"

namespace baat::snapshot {

inline constexpr std::uint32_t kSectionFormatVersion = 2;

/// A SectionFileWriter keeps appended sections in memory until commit, or
/// until they pass this many bytes — then it creates the tmp file and
/// streams. Sits well above a single-cluster checkpoint (a few MB) and well
/// below one shard of a large datacenter (tens of MB).
inline constexpr std::size_t kSectionBufferBytes = std::size_t{8} << 20;

/// Parsed "BAATSECT" file header.
struct SectionFileHeader {
  std::uint32_t version = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t section_count = 0;
};

/// Writes a sectioned file at `path`. Sections are buffered in memory (see
/// kSectionBufferBytes); commit() writes whatever is buffered to
/// `<path>.tmp` and renames it over `path` once every declared section has
/// been appended. If the writer is destroyed before commit() no tmp file is
/// left behind, so an exception mid-checkpoint cannot clobber the previous
/// good checkpoint.
class SectionFileWriter {
 public:
  /// `section_count` is declared up front so a truncated file is
  /// detectable without a trailer.
  SectionFileWriter(std::string path, std::uint64_t config_hash, std::uint64_t section_count);
  ~SectionFileWriter();

  SectionFileWriter(const SectionFileWriter&) = delete;
  SectionFileWriter& operator=(const SectionFileWriter&) = delete;

  /// Appends one section (size + CRC + payload).
  void append(std::span<const std::uint8_t> payload);

  /// Validates that exactly `section_count` sections were appended, then
  /// atomically renames the tmp file over the target path.
  void commit();

 private:
  /// Creates the tmp file on first use and moves the buffered bytes to it.
  void spill();
  void write_out(std::span<const std::uint8_t> bytes);

  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  std::vector<std::uint8_t> pending_;  ///< encoded bytes not yet in the tmp file
  std::uint64_t declared_ = 0;
  std::uint64_t written_ = 0;
  bool committed_ = false;
};

/// The exact bytes SectionFileWriter commits for `sections`, assembled in
/// memory — for artefacts that carry a snapshot inside another container
/// (the flight recorder's cluster.snap).
std::vector<std::uint8_t> section_file_bytes(std::uint64_t config_hash,
                                             const std::vector<std::vector<std::uint8_t>>& sections);

/// Reads a "BAATSECT" file section by section, CRC-checking each payload
/// as it is pulled, so only one section's bytes are resident at a time.
class SectionFileReader {
 public:
  /// Opens the file and validates magic/version/config hash. Pass
  /// `expected_config_hash == 0` to skip the config check (used by
  /// inspection tooling). A file in the retired flat "BAATSNAP" container
  /// is refused with an error naming it.
  SectionFileReader(std::string path, std::uint64_t expected_config_hash);

  [[nodiscard]] const SectionFileHeader& header() const { return header_; }
  [[nodiscard]] std::uint64_t sections_read() const { return read_; }

  /// Reads and CRC-checks the next section's payload. Throws SnapshotError
  /// if all declared sections were already consumed, on truncation, or on
  /// CRC mismatch (the message names the section index).
  std::vector<std::uint8_t> read_section();

  /// Throws unless every declared section was read and the file ends
  /// exactly there — trailing garbage means corruption.
  void finish();

 private:
  std::string path_;
  std::ifstream in_;
  SectionFileHeader header_;
  std::uint64_t read_ = 0;
};

}  // namespace baat::snapshot
