#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/sections.hpp"
#include "snapshot/serialize.hpp"

namespace baat::snapshot {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("baat_snapshot_test_" + name)).string();
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, ScalarRoundTrip) {
  SnapshotWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0xFFFFFFFFFFFFFFFFull);
  w.write_i64(-42);
  w.write_f64(3.141592653589793);
  w.write_bool(true);
  w.write_bool(false);
  w.write_string("hello\0world");  // embedded NUL truncates the literal; still round-trips
  w.write_string("");

  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.141592653589793);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, DoublesTransportRawBits) {
  // Bit identity is the whole point: NaN payloads, signed zero, denormals
  // and the extremes must survive a round trip exactly.
  const double nan_payload =
      std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF0001ull});
  const std::vector<double> values = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(),
      nan_payload,
  };
  SnapshotWriter w;
  for (double v : values) w.write_f64(v);
  SnapshotReader r{w.bytes()};
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.read_f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Serialize, VectorRoundTrip) {
  SnapshotWriter w;
  w.write_f64_vec({1.5, -2.5, 0.0});
  w.write_u64_vec({7, 0, 0xFFFFFFFFFFFFFFFFull});
  w.write_u8_vec({1, 2, 3});
  w.write_bool_vec({true, false, true, true});
  w.write_f64_vec({});

  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_f64_vec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.read_u64_vec(), (std::vector<std::uint64_t>{7, 0, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_EQ(r.read_u8_vec(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.read_bool_vec(), (std::vector<bool>{true, false, true, true}));
  EXPECT_TRUE(r.read_f64_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, ReaderUnderrunThrowsNotUB) {
  SnapshotWriter w;
  w.write_u32(1);
  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u8(), SnapshotError);
  SnapshotReader r2{w.bytes()};
  EXPECT_THROW(r2.read_u64(), SnapshotError);  // partial bytes available
}

TEST(Serialize, CorruptedLengthPrefixCannotDriveHugeAllocation) {
  // A length prefix claiming more elements than there are bytes left must
  // fail before materializing the vector, not after a multi-GB reserve.
  SnapshotWriter w;
  w.write_u64(0x7FFFFFFFFFFFFFFFull);  // absurd element count, no payload
  SnapshotReader r{w.bytes()};
  EXPECT_THROW(r.read_f64_vec(), SnapshotError);
}

TEST(Serialize, Crc32KnownAnswer) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

// ---- the "BAATSECT" container (snapshot/sections.hpp) ---------------------

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

void write_three_sections(const std::string& path, std::uint64_t hash) {
  SectionFileWriter w(path, hash, 3);
  w.append(payload_of({1, 2, 3}));
  w.append(payload_of({}));  // empty sections are legal
  w.append(payload_of({9, 8, 7, 6}));
  w.commit();
}

TEST(SectionFile, RoundTripsSectionsInOrder) {
  const std::string path = temp_path("sect_roundtrip.snap");
  write_three_sections(path, 0xFEED);
  // The atomic-commit tmp file must not linger after a successful write.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  SectionFileReader r(path, 0xFEED);
  EXPECT_EQ(r.header().version, kSectionFormatVersion);
  EXPECT_EQ(r.header().config_hash, 0xFEEDu);
  EXPECT_EQ(r.header().section_count, 3u);
  EXPECT_EQ(r.read_section(), payload_of({1, 2, 3}));
  EXPECT_EQ(r.read_section(), payload_of({}));
  EXPECT_EQ(r.read_section(), payload_of({9, 8, 7, 6}));
  r.finish();
  fs::remove(path);
}

TEST(SectionFile, CommitDemandsTheDeclaredSectionCount) {
  const std::string path = temp_path("sect_short.snap");
  {
    SectionFileWriter w(path, 1, 2);
    w.append(payload_of({1}));
    EXPECT_THROW(w.commit(), SnapshotError);
  }
  // Uncommitted writer leaves no file behind (tmp removed, target untouched).
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SectionFile, AbandonedWriterPreservesThePreviousFile) {
  const std::string path = temp_path("sect_abandon.snap");
  write_three_sections(path, 5);
  {
    SectionFileWriter w(path, 5, 3);
    w.append(payload_of({42}));
    // destroyed without commit — simulated crash mid-checkpoint
  }
  SectionFileReader r(path, 5);
  EXPECT_EQ(r.read_section(), payload_of({1, 2, 3}));
  fs::remove(path);
}

TEST(SectionFile, ConfigHashMismatchRefusedAndZeroSkips) {
  const std::string path = temp_path("sect_hash.snap");
  write_three_sections(path, 1234);
  try {
    SectionFileReader r(path, 999);
    FAIL() << "mismatched config hash must be refused";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("config hash"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW(SectionFileReader(path, 0));
  fs::remove(path);
}

TEST(SectionFile, PayloadCorruptionNamesTheSectionIndex) {
  const std::string path = temp_path("sect_crc.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[bytes.size() - 1] ^= 0xFF;  // last byte of section 2's payload
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  try {
    r.read_section();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("section 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  fs::remove(path);
}

TEST(SectionFile, TruncationAtEveryPrefixIsAReadableError) {
  const std::string path = temp_path("sect_trunc.snap");
  write_three_sections(path, 7);
  const std::vector<std::uint8_t> whole = file_bytes(path);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    put_bytes(path, {whole.begin(), whole.begin() + static_cast<long>(len)});
    try {
      SectionFileReader r(path, 7);
      while (r.sections_read() < r.header().section_count) r.read_section();
      r.finish();
      FAIL() << "truncation to " << len << " bytes went unnoticed";
    } catch (const SnapshotError&) {
      // expected: every prefix must fail loudly, never crash or hang
    }
  }
  fs::remove(path);
}

TEST(SectionFile, TrailingGarbageRefusedByFinish) {
  const std::string path = temp_path("sect_trailing.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes.push_back(0);
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  r.read_section();
  EXPECT_THROW(r.finish(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, ReadingPastTheDeclaredCountThrows) {
  const std::string path = temp_path("sect_overread.snap");
  write_three_sections(path, 7);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  r.read_section();
  EXPECT_THROW(r.read_section(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, FinishBeforeAllSectionsReadThrows) {
  const std::string path = temp_path("sect_underread.snap");
  write_three_sections(path, 7);
  SectionFileReader r(path, 7);
  r.read_section();
  EXPECT_THROW(r.finish(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, CorruptedSizePrefixCannotDriveHugeAllocation) {
  const std::string path = temp_path("sect_hugesize.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  // Section 0's u64 size field starts right after the 28-byte header; stamp
  // an absurd size and make sure the reader errors instead of allocating.
  for (int i = 0; i < 8; ++i) bytes[28 + i] = 0xFF;
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  EXPECT_THROW(r.read_section(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, BadMagicAndVersionRefused) {
  // Every refusal names the file and the reason.
  const std::string path = temp_path("sect_magic.snap");
  write_three_sections(path, 7);
  const std::vector<std::uint8_t> good = file_bytes(path);
  struct Case {
    const char* label;
    std::size_t offset;  // byte to overwrite; SIZE_MAX = delete the file
    std::uint8_t value;
    const char* needle;
  };
  const Case cases[] = {
      {"bad magic", 0, 'X', "bad magic"},
      {"garbage version", 8, 0xEE, "format version"},
      {"future version", 8, static_cast<std::uint8_t>(kSectionFormatVersion + 1),
       "format version"},
      // v1 clusters carried a count plus a 1024-reading sensor ring per power
      // table; parsing one as v2 would misalign, so the header refuses it.
      {"v1 file", 8, 1, "format version"},
      {"missing file", SIZE_MAX, 0, "cannot open"},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes = good;
    if (c.offset == SIZE_MAX) {
      fs::remove(path);
    } else {
      bytes[c.offset] = c.value;
      put_bytes(path, bytes);
    }
    try {
      SectionFileReader r(path, 7);
      ADD_FAILURE() << c.label << " was accepted";
    } catch (const SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << c.label << ": " << msg;
      EXPECT_NE(msg.find(c.needle), std::string::npos) << c.label << ": " << msg;
    }
  }
  fs::remove(path);
}

TEST(SectionFile, RetiredFlatContainerRefusedByName) {
  // A checkpoint from before the single container ("BAATSNAP" header) is
  // refused with an error that says what it is, not just "bad magic".
  const std::string path = temp_path("retired.snap");
  std::vector<std::uint8_t> bytes = {'B', 'A', 'A', 'T', 'S', 'N', 'A', 'P'};
  bytes.resize(64, 0);
  put_bytes(path, bytes);
  try {
    SectionFileReader r(path, 0);
    FAIL() << "a BAATSNAP file must be refused";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("retired flat BAATSNAP container"), std::string::npos) << msg;
  }
  fs::remove(path);
}

TEST(SectionFile, OverwriteIsAtomicReplace) {
  // Writing over an existing file replaces it wholesale: afterwards the file
  // holds exactly the new sections and no tmp residue.
  const std::string path = temp_path("sect_overwrite.snap");
  write_three_sections(path, 10);
  {
    SectionFileWriter w(path, 20, 1);
    w.append(payload_of({4, 5}));
    w.commit();
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  SectionFileReader r(path, 20);
  EXPECT_EQ(r.header().section_count, 1u);
  EXPECT_EQ(r.read_section(), payload_of({4, 5}));
  r.finish();
  fs::remove(path);
}

TEST(SectionFile, UnwritableDestinationIsReadableError) {
  const std::string path =
      temp_path("no_such_dir_for_snapshots") + "/nested/deep/file.snap";
  SectionFileWriter w(path, 0, 1);
  w.append(payload_of({1}));
  try {
    w.commit();
    FAIL() << "an unwritable destination must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ".tmp"), std::string::npos) << e.what();
  }
}

TEST(SectionFile, SmallFilesTouchTheDiskOnlyAtCommit) {
  // The commit window — tmp file created to rename — must not include
  // encoding: a file that fits the buffer creates its tmp file in commit().
  const std::string path = temp_path("sect_buffered.snap");
  SectionFileWriter w(path, 3, 2);
  w.append(payload_of({1, 2}));
  w.append(std::vector<std::uint8_t>(1000, 7));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  w.commit();
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(SectionFile, LargeSectionsStreamAndRoundTrip) {
  // Past kSectionBufferBytes the writer streams instead of buffering, so a
  // large datacenter shard is never copied into a second buffer.
  const std::string path = temp_path("sect_streamed.snap");
  std::vector<std::uint8_t> big(kSectionBufferBytes + 1);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  {
    SectionFileWriter w(path, 9, 3);
    w.append(payload_of({1}));
    w.append(big);
    EXPECT_TRUE(fs::exists(path + ".tmp"));
    w.append(payload_of({2, 3}));
    w.commit();
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  SectionFileReader r(path, 9);
  EXPECT_EQ(r.read_section(), payload_of({1}));
  EXPECT_EQ(r.read_section(), big);
  EXPECT_EQ(r.read_section(), payload_of({2, 3}));
  r.finish();
  fs::remove(path);
}

TEST(SectionFile, InMemoryImageMatchesTheCommittedFile) {
  const std::string path = temp_path("sect_image.snap");
  write_three_sections(path, 0xFEED);
  EXPECT_EQ(section_file_bytes(0xFEED, {payload_of({1, 2, 3}), payload_of({}),
                                        payload_of({9, 8, 7, 6})}),
            file_bytes(path));
  fs::remove(path);
}

}  // namespace
}  // namespace baat::snapshot
