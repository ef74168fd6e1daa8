/// \file journal.hpp
/// Append-only, CRC-framed, fsync-batched write-ahead journal
/// (docs/robustness.md) — the durability primitive beneath the distributed
/// checkpoint log (dist/checkpoint.hpp).
///
/// Format: line-framed text.  Each record is one line
///
///     <crc32-hex8> <payload>\n
///
/// where the 8 lowercase hex digits are the CRC-32 (IEEE polynomial) of the
/// payload bytes.  Payloads are single-line strings by construction (the
/// checkpoint layer writes them with the one-line codec of util/codec.hpp),
/// so the newline is an unambiguous frame boundary and the file stays
/// greppable / diffable during an incident.
///
/// Torn tails: a crash (or the `journal.torn_tail` fault site) can leave a
/// partial record at the end of the file.  scan_file() verifies every frame
/// and stops at the first malformed or CRC-failing line, returning the valid
/// prefix — replay "up to the last complete record" is the recovery contract
/// the chaos suite asserts.  A corrupt record *mid*-file likewise ends the
/// valid prefix: everything behind a broken frame is untrusted.
///
/// Fsync policy: appends batch — the Writer fsyncs after every
/// `fsync_every`-th record (and on sync()/close()), trading at most
/// fsync_every-1 trailing records on power loss for not paying an fsync per
/// completion.  Process death without power loss loses nothing: the page
/// cache survives the process.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dominosyn::journal {

/// A journal write failed (I/O error, closed writer, or the
/// `journal.write_fail` fault site).  Durability is compromised; serving is
/// not — callers catch this and keep answering.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// `<crc32-hex8> <payload>\n`.  Throws JournalError if the payload contains
/// a newline (payloads must be single-line by contract).
[[nodiscard]] std::string frame_record(std::string_view payload);

struct ScanResult {
  std::vector<std::string> records;  ///< payloads of the valid prefix
  std::uint64_t valid_bytes = 0;     ///< file offset where the prefix ends
  std::uint64_t dropped_bytes = 0;   ///< bytes past the prefix (torn/corrupt)
  bool torn_tail = false;            ///< dropped_bytes > 0
};

/// Reads and verifies `path`.  A missing file is an empty journal (fresh
/// start), not an error; any other read failure throws JournalError.  Never
/// throws on corrupt *content* — the valid prefix is the answer.
[[nodiscard]] ScanResult scan_file(const std::string& path);

/// Append-side handle.  Not thread-safe; the checkpoint layer serializes.
class Writer {
 public:
  struct Options {
    /// fsync after every Nth appended record; 0 = never (sync() only).
    std::size_t fsync_every = 8;
  };

  Writer() = default;  ///< closed; open() later
  ~Writer();
  Writer(Writer&& other) noexcept;
  Writer& operator=(Writer&& other) noexcept;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Opens (creating if absent) `path` for appending.  Throws JournalError.
  void open(const std::string& path, Options options);
  void open(const std::string& path) { open(path, Options{}); }
  /// Truncates `path` to empty and opens it for appending (compaction reset).
  void open_truncated(const std::string& path, Options options);
  void open_truncated(const std::string& path) {
    open_truncated(path, Options{});
  }

  /// Frames and appends one record.  Throws JournalError on write failure or
  /// when the `journal.write_fail` fault site fires.  The `journal.torn_tail`
  /// site instead writes only a prefix of the frame — simulating a crash
  /// mid-write — and returns normally; scan_file() must survive the fragment.
  void append(std::string_view payload);

  /// fsync now, regardless of the batching counter.
  void sync();

  void close() noexcept;
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

 private:
  void open_flags(const std::string& path, Options options, bool truncate);

  int fd_ = -1;
  std::string path_;
  Options options_;
  std::uint64_t appended_ = 0;
  std::size_t unsynced_ = 0;
};

/// Durably replaces `path` with `content`: write to `path + ".tmp"`, fsync,
/// rename over `path`, fsync the containing directory.  Throws JournalError.
/// The checkpoint layer's compaction uses this for snapshot files.
void atomic_replace(const std::string& path, std::string_view content);

}  // namespace dominosyn::journal
