#include "src/exp/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/fnv.hpp"

namespace sda::exp {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Writes all of @p data to @p fd, retrying on EINTR / short writes.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsyncs the directory containing @p path so a freshly created file's
/// directory entry survives a crash (standard WAL-create hygiene).
/// Best effort: some filesystems refuse directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return;
  if (::fsync(dfd) != 0) { /* best effort */ }
  if (::close(dfd) != 0) { /* nothing to salvage */ }
}

}  // namespace

JournalReadResult read_journal(const std::string& path) {
  JournalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.diagnostic = "cannot open " + path;
    return result;
  }
  std::string data;
  {
    std::ostringstream raw;
    raw << in.rdbuf();
    data = std::move(raw).str();
  }
  const std::string_view header = kJournalHeader;
  if (data.size() < header.size() ||
      data.compare(0, header.size(), header) != 0 ||
      (data.size() > header.size() && data[header.size()] != '\n')) {
    result.diagnostic = "missing sda.journal.v1 header";
    return result;
  }
  result.ok = true;
  if (data.size() == header.size()) {
    // The header itself lost its '\n' to a torn create.
    result.valid_bytes = data.size();
    result.unterminated_tail = true;
    return result;
  }
  std::size_t pos = header.size() + 1;
  result.valid_bytes = pos;
  std::uint64_t record_no = 0;
  while (pos < data.size()) {
    ++record_no;
    const std::size_t nl = data.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    const std::string_view line(data.data() + pos,
                                (terminated ? nl : data.size()) - pos);
    const auto torn = [&](const char* why) {
      result.truncated = true;
      result.diagnostic = "record " + std::to_string(record_no) + ": " + why;
    };
    // "<type> <crc16> <len> <payload>" — reject anything shorter than
    // the fixed prefix outright.
    if (line.size() < 2 + 17 + 2 || (line[0] != 'E' && line[0] != 'C') ||
        line[1] != ' ' || line[18] != ' ') {
      torn("malformed record framing");
      break;
    }
    std::uint64_t crc = 0;
    {
      const char* first = line.data() + 2;
      const std::from_chars_result r =
          std::from_chars(first, first + 16, crc, 16);
      if (r.ec != std::errc() || r.ptr != first + 16) {
        torn("bad checksum field");
        break;
      }
    }
    std::size_t len = 0;
    const std::size_t len_start = 19;
    const std::size_t len_end = line.find(' ', len_start);
    if (len_end == std::string::npos) {
      torn("missing length field");
      break;
    }
    {
      const char* first = line.data() + len_start;
      const char* last = line.data() + len_end;
      const std::from_chars_result r = std::from_chars(first, last, len);
      if (r.ec != std::errc() || r.ptr != last) {
        torn("bad length field");
        break;
      }
    }
    const std::string_view payload = line.substr(len_end + 1);
    if (payload.size() != len) {
      torn("length mismatch (torn write)");
      break;
    }
    if (util::fnv1a(payload) != crc) {
      torn("checksum mismatch");
      break;
    }
    result.records.push_back(JournalRecord{line[0], std::string(payload)});
    if (!terminated) {
      // The payload survived intact; only the record's '\n' was torn
      // off.  The record counts, but an appender must restore the
      // newline before the next record.
      result.valid_bytes = data.size();
      result.unterminated_tail = true;
      break;
    }
    pos = nl + 1;
    result.valid_bytes = pos;
  }
  return result;
}

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open(const std::string& path, const Config& config,
                         std::string* error) {
  util::RoleGuard own(owner_);
  close_impl();
  config_ = config;
  failed_ = false;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open journal " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    const std::string header = std::string(kJournalHeader) + "\n";
    if (!write_all(fd, header.data(), header.size()) || ::fsync(fd) != 0) {
      if (error != nullptr) {
        *error = "cannot write journal header: " +
                 std::string(std::strerror(errno));
      }
      if (::close(fd) != 0) { /* nothing left to salvage */ }
      return false;
    }
    // The records are only as durable as the file's directory entry.
    fsync_parent_dir(path);
  } else {
    // Appending to an existing journal: it must be one of ours, and a
    // previous crash may have torn its tail.  Drop the torn bytes so
    // the first new record starts on a record boundary — appending
    // after half a line would glue onto it, fail the checksum there on
    // the next recovery, and silently discard everything after it.
    const JournalReadResult scan = read_journal(path);
    if (!scan.ok) {
      if (error != nullptr) {
        *error = path + " exists but is not an sda.journal.v1 file";
      }
      if (::close(fd) != 0) { /* nothing left to salvage */ }
      return false;
    }
    bool repaired = false;
    if (scan.valid_bytes < static_cast<std::uint64_t>(size)) {
      if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
        if (error != nullptr) {
          *error = "cannot drop torn journal tail: " +
                   std::string(std::strerror(errno));
        }
        if (::close(fd) != 0) { /* nothing left to salvage */ }
        return false;
      }
      repaired = true;
    }
    if (scan.unterminated_tail) {
      // The final record is valid but lost its '\n'; restore it.
      if (!write_all(fd, "\n", 1)) {
        if (error != nullptr) {
          *error = "cannot terminate journal tail: " +
                   std::string(std::strerror(errno));
        }
        if (::close(fd) != 0) { /* nothing left to salvage */ }
        return false;
      }
      repaired = true;
    }
    if (repaired && ::fsync(fd) != 0) {
      if (error != nullptr) {
        *error = "cannot sync repaired journal: " +
                 std::string(std::strerror(errno));
      }
      if (::close(fd) != 0) { /* nothing left to salvage */ }
      return false;
    }
  }
  fd_ = fd;
  return true;
}

bool JournalWriter::append(char type, std::string_view payload,
                           bool force_flush) {
  if (fd_ < 0 || failed_) return false;
  buffer_.push_back(type);
  buffer_.push_back(' ');
  buffer_ += hex16(util::fnv1a(payload));
  buffer_.push_back(' ');
  buffer_ += std::to_string(payload.size());
  buffer_.push_back(' ');
  buffer_ += payload;
  buffer_.push_back('\n');
  ++pending_;
  ++appended_;
  if (force_flush || pending_ >= config_.flush_every) return flush_impl();
  return true;
}

bool JournalWriter::append_event(std::string_view line) {
  util::RoleGuard own(owner_);
  return append('E', line, /*force_flush=*/false);
}

bool JournalWriter::append_checkpoint(std::string_view summary_json) {
  util::RoleGuard own(owner_);
  return append('C', summary_json, /*force_flush=*/true);
}

bool JournalWriter::flush() {
  util::RoleGuard own(owner_);
  return flush_impl();
}

bool JournalWriter::flush_impl() {
  if (fd_ < 0 || failed_) return false;
  if (buffer_.empty()) return true;
  if (!write_all(fd_, buffer_.data(), buffer_.size()) || ::fsync(fd_) != 0) {
    ++io_errors_;
    failed_ = true;  // a half-written batch is unrecoverable in-process
    return false;
  }
  buffer_.clear();
  pending_ = 0;
  return true;
}

void JournalWriter::close() {
  util::RoleGuard own(owner_);
  close_impl();
}

void JournalWriter::close_impl() {
  if (fd_ < 0) return;
  if (!flush_impl()) { /* sticky failure already counted in io_errors_ */ }
  if (::close(fd_) != 0) ++io_errors_;
  fd_ = -1;
}

}  // namespace sda::exp
