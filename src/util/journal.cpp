/// \file journal.cpp
/// CRC-framed append-only journal (see journal.hpp for the format contract).

#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/codec.hpp"
#include "util/fault.hpp"

namespace dominosyn::journal {

namespace {

/// CRC-32 (IEEE 802.3, reflected) lookup table, built once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw JournalError(what + " " + path + ": " + std::strerror(errno));
}

/// write(2) until done; throws JournalError on failure.  Used for full
/// frames and (under journal.torn_tail) deliberate partial frames alike.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("journal write failed:", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("journal fsync failed:", path);
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (const char c : data)
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::string frame_record(std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos)
    throw JournalError("journal payload contains a newline");
  std::string frame = codec::encode_hex32(crc32(payload));
  frame += ' ';
  frame.append(payload);
  frame += '\n';
  return frame;
}

ScanResult scan_file(const std::string& path) {
  ScanResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT) return result;  // fresh start
    throw JournalError("journal open failed: " + path + ": " +
                       std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw JournalError("journal read failed: " + path);
  const std::string content = buffer.str();

  std::uint64_t offset = 0;
  while (offset < content.size()) {
    const std::size_t newline = content.find('\n', offset);
    if (newline == std::string::npos) break;  // torn tail: no frame boundary
    const std::string_view line(content.data() + offset, newline - offset);
    // Frame: 8 hex digits, one space, payload (possibly empty).
    const auto expected = codec::parse_hex32(line.substr(0, 8));
    if (!expected || line.size() < 9 || line[8] != ' ') break;
    const std::string_view payload = line.substr(9);
    if (crc32(payload) != *expected) break;
    result.records.emplace_back(payload);
    offset = newline + 1;
  }
  result.valid_bytes = offset;
  result.dropped_bytes = content.size() - offset;
  result.torn_tail = result.dropped_bytes > 0;
  return result;
}

Writer::~Writer() { close(); }

Writer::Writer(Writer&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      options_(other.options_),
      appended_(std::exchange(other.appended_, 0)),
      unsynced_(std::exchange(other.unsynced_, 0)) {}

Writer& Writer::operator=(Writer&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    options_ = other.options_;
    appended_ = std::exchange(other.appended_, 0);
    unsynced_ = std::exchange(other.unsynced_, 0);
  }
  return *this;
}

void Writer::open_flags(const std::string& path, Options options,
                        bool truncate) {
  close();
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("journal open failed:", path);
  fd_ = fd;
  path_ = path;
  options_ = options;
  appended_ = 0;
  unsynced_ = 0;
}

void Writer::open(const std::string& path, Options options) {
  open_flags(path, options, /*truncate=*/false);
}

void Writer::open_truncated(const std::string& path, Options options) {
  open_flags(path, options, /*truncate=*/true);
}

void Writer::append(std::string_view payload) {
  if (fd_ < 0) throw JournalError("journal writer is closed");
  if (fault::point("journal.write_fail"))
    throw JournalError("journal write failed (injected): " + path_);
  const std::string frame = frame_record(payload);
  // journal.torn_tail simulates a crash mid-write: only a prefix of the
  // frame reaches the file, and no newline terminates it — exactly the
  // fragment scan_file() must stop at.  The writer keeps going afterwards;
  // every later record lands *behind* the fragment and is therefore
  // (correctly) untrusted on replay.
  if (fault::point("journal.torn_tail")) {
    write_all(fd_, frame.data(), frame.size() / 2, path_);
    return;
  }
  write_all(fd_, frame.data(), frame.size(), path_);
  ++appended_;
  if (options_.fsync_every != 0 && ++unsynced_ >= options_.fsync_every) {
    fsync_fd(fd_, path_);
    unsynced_ = 0;
  }
}

void Writer::sync() {
  if (fd_ < 0) return;
  fsync_fd(fd_, path_);
  unsynced_ = 0;
}

void Writer::close() noexcept {
  if (fd_ < 0) return;
  // Best-effort flush on close; a failure here has no one left to tell.
  ::fsync(fd_);
  ::close(fd_);
  fd_ = -1;
  unsynced_ = 0;
}

void atomic_replace(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("journal snapshot open failed:", tmp);
    try {
      write_all(fd, content.data(), content.size(), tmp);
      fsync_fd(fd, tmp);
    } catch (...) {
      ::close(fd);
      ::unlink(tmp.c_str());
      throw;
    }
    ::close(fd);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("journal snapshot rename failed:", path);
  }
  // fsync the directory so the rename itself is durable.
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace dominosyn::journal
