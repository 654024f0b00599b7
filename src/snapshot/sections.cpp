#include "snapshot/sections.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace baat::snapshot {

namespace {

constexpr char kSectMagic[8] = {'B', 'A', 'A', 'T', 'S', 'E', 'C', 'T'};
constexpr char kRetiredMagic[8] = {'B', 'A', 'A', 'T', 'S', 'N', 'A', 'P'};
constexpr std::size_t kSectHeaderSize = 28;
constexpr std::size_t kSectionPrefixSize = 12;  // u64 size + u32 crc

void put_header(std::vector<std::uint8_t>& out, std::uint64_t config_hash,
                std::uint64_t section_count) {
  SnapshotWriter header;
  for (char c : kSectMagic) header.write_u8(static_cast<std::uint8_t>(c));
  header.write_u32(kSectionFormatVersion);
  header.write_u64(config_hash);
  header.write_u64(section_count);
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
}

void put_section_prefix(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload) {
  SnapshotWriter prefix;
  prefix.write_u64(payload.size());
  prefix.write_u32(crc32(payload));
  out.insert(out.end(), prefix.bytes().begin(), prefix.bytes().end());
}

}  // namespace

std::vector<std::uint8_t> section_file_bytes(
    std::uint64_t config_hash, const std::vector<std::vector<std::uint8_t>>& sections) {
  std::vector<std::uint8_t> out;
  put_header(out, config_hash, sections.size());
  for (const std::vector<std::uint8_t>& payload : sections) {
    put_section_prefix(out, payload);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

SectionFileWriter::SectionFileWriter(std::string path, std::uint64_t config_hash,
                                     std::uint64_t section_count)
    : path_(std::move(path)), tmp_(path_ + ".tmp"), declared_(section_count) {
  put_header(pending_, config_hash, section_count);
}

SectionFileWriter::~SectionFileWriter() {
  if (!committed_ && out_.is_open()) {
    out_.close();
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
  }
}

void SectionFileWriter::write_out(std::span<const std::uint8_t> bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) {
    throw SnapshotError("I/O error writing snapshot section " + std::to_string(written_) +
                        " to '" + tmp_ + "'");
  }
}

void SectionFileWriter::spill() {
  if (!out_.is_open()) {
    out_.open(tmp_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw SnapshotError("cannot open '" + tmp_ + "' for writing");
    }
  }
  write_out(pending_);
  pending_.clear();
}

void SectionFileWriter::append(std::span<const std::uint8_t> payload) {
  if (committed_) {
    throw SnapshotError("snapshot '" + path_ + "' is already committed");
  }
  if (written_ == declared_) {
    throw SnapshotError("snapshot '" + path_ + "' declared " + std::to_string(declared_) +
                        " sections but more were appended");
  }
  put_section_prefix(pending_, payload);
  if (!out_.is_open() && pending_.size() + payload.size() <= kSectionBufferBytes) {
    pending_.insert(pending_.end(), payload.begin(), payload.end());
  } else {
    // Too large to buffer: stream this section (and everything after it)
    // straight to the tmp file instead of copying it, and hand the buffer
    // back. A buffered file keeps it until after the rename: freeing it
    // inside the commit window would only lengthen the window.
    spill();
    pending_.shrink_to_fit();
    write_out(payload);
    out_.flush();
  }
  ++written_;
}

void SectionFileWriter::commit() {
  if (committed_) {
    throw SnapshotError("snapshot '" + path_ + "' is already committed");
  }
  if (written_ != declared_) {
    throw SnapshotError("snapshot '" + path_ + "' declared " + std::to_string(declared_) +
                        " sections but only " + std::to_string(written_) + " were appended");
  }
  spill();
  out_.close();
  if (out_.fail()) {
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
    throw SnapshotError("I/O error finishing snapshot '" + tmp_ + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
    throw SnapshotError("cannot rename '" + tmp_ + "' to '" + path_ + "': " + ec.message());
  }
  committed_ = true;
}

SectionFileReader::SectionFileReader(std::string path, std::uint64_t expected_config_hash)
    : path_(std::move(path)) {
  in_.open(path_, std::ios::binary);
  if (!in_) {
    throw SnapshotError("cannot open snapshot file '" + path_ + "'");
  }
  std::vector<std::uint8_t> raw(kSectHeaderSize);
  in_.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(raw.size()));
  if (in_.gcount() != static_cast<std::streamsize>(kSectHeaderSize)) {
    throw SnapshotError("snapshot file '" + path_ + "' is truncated: " +
                        std::to_string(in_.gcount()) + " bytes, header needs " +
                        std::to_string(kSectHeaderSize));
  }
  if (std::equal(raw.begin(), raw.begin() + 8, std::begin(kRetiredMagic))) {
    throw SnapshotError("snapshot file '" + path_ +
                        "' uses the retired flat BAATSNAP container; this build reads "
                        "only sectioned (BAATSECT) snapshots — re-run from scratch or use "
                        "a matching build");
  }
  if (!std::equal(raw.begin(), raw.begin() + 8, std::begin(kSectMagic))) {
    throw SnapshotError("'" + path_ + "' is not a BAAT sectioned snapshot (bad magic)");
  }
  SnapshotReader reader(std::span<const std::uint8_t>(raw).subspan(8));
  header_.version = reader.read_u32();
  header_.config_hash = reader.read_u64();
  header_.section_count = reader.read_u64();
  if (header_.version != kSectionFormatVersion) {
    throw SnapshotError("snapshot file '" + path_ + "' has format version " +
                        std::to_string(header_.version) + " but this build reads version " +
                        std::to_string(kSectionFormatVersion) +
                        "; re-run from scratch or use a matching build");
  }
  if (expected_config_hash != 0 && header_.config_hash != expected_config_hash) {
    char got[32];
    char want[32];
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(header_.config_hash));
    std::snprintf(want, sizeof want, "%016llx",
                  static_cast<unsigned long long>(expected_config_hash));
    throw SnapshotError("snapshot file '" + path_ + "' was produced under config hash " +
                        std::string(got) + " but the current scenario hashes to " + want +
                        "; resuming a different scenario is refused (same seed, shards, nodes, "
                        "days, policy, faults, demand and math mode are required)");
  }
}

std::vector<std::uint8_t> SectionFileReader::read_section() {
  if (read_ == header_.section_count) {
    throw SnapshotError("snapshot file '" + path_ + "' holds " +
                        std::to_string(header_.section_count) +
                        " sections but more were requested");
  }
  std::vector<std::uint8_t> prefix(kSectionPrefixSize);
  in_.read(reinterpret_cast<char*>(prefix.data()), static_cast<std::streamsize>(prefix.size()));
  if (in_.gcount() != static_cast<std::streamsize>(kSectionPrefixSize)) {
    throw SnapshotError("snapshot file '" + path_ + "' is truncated in section " +
                        std::to_string(read_) + " header");
  }
  SnapshotReader reader{std::span<const std::uint8_t>(prefix)};
  const std::uint64_t size = reader.read_u64();
  const std::uint32_t crc = reader.read_u32();
  std::vector<std::uint8_t> payload;
  // Grow in bounded chunks so a corrupted size field cannot drive a
  // multi-gigabyte allocation before the truncation is noticed.
  constexpr std::uint64_t kChunk = 1 << 20;
  std::uint64_t left = size;
  while (left > 0) {
    const std::uint64_t take = left < kChunk ? left : kChunk;
    const std::size_t base = payload.size();
    payload.resize(base + static_cast<std::size_t>(take));
    in_.read(reinterpret_cast<char*>(payload.data() + base),
             static_cast<std::streamsize>(take));
    if (in_.gcount() != static_cast<std::streamsize>(take)) {
      throw SnapshotError("snapshot file '" + path_ + "' is truncated: section " +
                          std::to_string(read_) + " declares " + std::to_string(size) +
                          " bytes but the file ends early");
    }
    left -= take;
  }
  if (crc32(payload) != crc) {
    throw SnapshotError("snapshot file '" + path_ + "' is corrupted: section " +
                        std::to_string(read_) + " CRC mismatch");
  }
  ++read_;
  return payload;
}

void SectionFileReader::finish() {
  if (read_ != header_.section_count) {
    throw SnapshotError("snapshot file '" + path_ + "' holds " +
                        std::to_string(header_.section_count) + " sections but only " +
                        std::to_string(read_) + " were read");
  }
  char extra = 0;
  in_.read(&extra, 1);
  if (in_.gcount() != 0) {
    throw SnapshotError("snapshot file '" + path_ + "' has trailing bytes after the last "
                        "section; the file is corrupted");
  }
}

}  // namespace baat::snapshot
