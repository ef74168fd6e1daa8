/// Tests for the write-ahead journal primitive (src/util/journal.hpp,
/// docs/robustness.md): CRC framing, torn-tail tolerance (scan stops at the
/// last complete record), fsync batching bookkeeping, atomic snapshot
/// replacement, and the journal.write_fail / journal.torn_tail fault sites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/fault.hpp"
#include "util/journal.hpp"

namespace dominosyn::journal {
namespace {

/// Per-test scratch file under gtest's temp dir, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(testing::TempDir() + "dominosyn_journal_" + name) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  void append_raw(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << bytes;
  }

 private:
  std::string path_;
};

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected).
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32("open job=1"), crc32("open job=2"));
}

TEST(Framing, RecordLayoutAndNewlineRejection) {
  const std::string frame = frame_record("open job=1 units=4");
  // "<crc-hex8> <payload>\n"
  ASSERT_GT(frame.size(), 10u);
  EXPECT_EQ(frame[8], ' ');
  EXPECT_EQ(frame.back(), '\n');
  EXPECT_EQ(frame.substr(9, frame.size() - 10), "open job=1 units=4");
  EXPECT_THROW((void)frame_record("two\nlines"), JournalError);
  // The CRC is eight lowercase hex digits, zero-padded.
  EXPECT_EQ(frame_record("123456789"), "cbf43926 123456789\n");
  EXPECT_EQ(frame_record("finish job=3 failed=0"),
            "0088739a finish job=3 failed=0\n");
}

TEST(Scan, MissingFileIsEmptyJournal) {
  const ScanResult scan = scan_file(testing::TempDir() + "does_not_exist.djl");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Scan, RoundTripsWriterOutput) {
  ScratchFile file("roundtrip.djl");
  {
    Writer writer;
    writer.open(file.path());
    writer.append("alpha");
    writer.append("beta with spaces");
    writer.append("");
    writer.sync();
    EXPECT_EQ(writer.appended(), 3u);
    writer.close();
  }
  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], "alpha");
  EXPECT_EQ(scan.records[1], "beta with spaces");
  EXPECT_EQ(scan.records[2], "");
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, file.contents().size());
  EXPECT_EQ(scan.dropped_bytes, 0u);
}

TEST(Scan, StopsAtTornTail) {
  ScratchFile file("torn.djl");
  {
    Writer writer;
    writer.open(file.path());
    writer.append("first");
    writer.append("second");
    writer.close();
  }
  // A crash mid-write leaves a frame prefix without its newline.
  const std::string fragment = frame_record("third-never-landed");
  file.append_raw(fragment.substr(0, fragment.size() / 2));

  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], "first");
  EXPECT_EQ(scan.records[1], "second");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.dropped_bytes, 0u);
}

TEST(Scan, CorruptRecordEndsTheValidPrefix) {
  ScratchFile file("corrupt.djl");
  {
    Writer writer;
    writer.open(file.path());
    writer.append("keep");
    writer.close();
  }
  // A complete line whose CRC doesn't match its payload: everything from it
  // on is untrusted, even well-formed records behind it.
  file.append_raw("00000000 crc-mismatch\n");
  file.append_raw(frame_record("behind the corruption"));

  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "keep");
  EXPECT_TRUE(scan.torn_tail);
}

TEST(Writer, AppendAfterReopenExtendsTheJournal) {
  ScratchFile file("reopen.djl");
  {
    Writer writer;
    writer.open(file.path());
    writer.append("one");
    writer.close();
  }
  {
    Writer writer;
    writer.open(file.path());
    writer.append("two");
    writer.close();
  }
  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1], "two");
}

TEST(Writer, OpenTruncatedResetsTheFile) {
  ScratchFile file("truncate.djl");
  {
    Writer writer;
    writer.open(file.path());
    writer.append("stale");
    writer.close();
    writer.open_truncated(file.path());
    writer.append("fresh");
    writer.close();
  }
  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "fresh");
}

TEST(Writer, ClosedWriterRefusesAppends) {
  Writer writer;
  EXPECT_FALSE(writer.is_open());
  EXPECT_THROW(writer.append("nowhere"), JournalError);
}

TEST(AtomicReplace, ReplacesContentDurably) {
  ScratchFile file("snapshot.djl");
  atomic_replace(file.path(), "v1\n");
  EXPECT_EQ(file.contents(), "v1\n");
  atomic_replace(file.path(), "v2 longer than before\n");
  EXPECT_EQ(file.contents(), "v2 longer than before\n");
  // No tmp file left behind.
  std::ifstream tmp(file.path() + ".tmp");
  EXPECT_FALSE(tmp.good());
}

class JournalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (fault::kFaultsCompiledOut)
      GTEST_SKIP() << "built with DOMINOSYN_NO_FAULTS";
    fault::clear();
  }
  void TearDown() override {
    if (!fault::kFaultsCompiledOut) fault::clear();
  }
};

TEST_F(JournalFaultTest, WriteFailSurfacesAsJournalError) {
  ScratchFile file("fault_write.djl");
  Writer writer;
  writer.open(file.path());
  writer.append("before");
  fault::configure("journal.write_fail=nth:1");
  EXPECT_THROW(writer.append("doomed"), JournalError);
  fault::clear();
  // The writer object survives the fault and keeps appending.
  writer.append("after");
  writer.close();
  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], "before");
  EXPECT_EQ(scan.records[1], "after");
}

TEST_F(JournalFaultTest, TornTailFaultWritesARecoverableFragment) {
  ScratchFile file("fault_torn.djl");
  Writer writer;
  writer.open(file.path());
  writer.append("durable");
  // The fault writes only half the frame (simulating a crash mid-write) and
  // returns without error — like a real torn write, the writer doesn't know.
  fault::configure("journal.torn_tail=nth:1");
  writer.append("torn-away");
  fault::clear();
  writer.close();

  const ScanResult scan = scan_file(file.path());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "durable");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.dropped_bytes, 0u);
}

TEST(FaultCatalogue, JournalSitesAreListed) {
  const auto sites = fault::sites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "journal.write_fail"),
            sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "journal.torn_tail"),
            sites.end());
}

}  // namespace
}  // namespace dominosyn::journal
