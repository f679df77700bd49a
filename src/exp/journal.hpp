// Write-ahead decision journal for the admission front door
// (`sda.journal.v1`): crash durability for `sda_run --serve`.
//
// The admission controller is a pure function of the accepted input
// lines, so the journal records exactly those — every *valid,
// state-changing* protocol line (`sub` after tree validation, `done`
// for a known run), in application order.  Replaying the journal
// through a fresh ServeSession reconstructs ledgers, retry queue,
// overload state, and pressure EWMA bit-identically
// (tests/test_crash_recovery.cpp proves this against kill -9).
// Malformed lines are answered but never journaled: they change no
// admission state.
//
// On-disk format (text, one record per line, append-only):
//
//   sda.journal.v1                          <- header, first line
//   E <fnv1a64-hex16> <len> <payload>       <- one accepted input line
//   C <fnv1a64-hex16> <len> <payload>       <- checkpoint (summary JSON)
//
// The checksum covers the payload bytes; `len` is the payload length.
// A crash can only truncate the final record, and any torn tail fails
// the length or checksum test, so recovery replays the longest valid
// prefix and reports where (and why) it stopped.  A restarted writer
// truncates that torn tail before appending, so a crash-restart-crash
// sequence replays its records instead of losing them to a glued line.
//
// Durability is a group commit.  Records buffer in user space; the
// serve transports call flush() (through ServeSession::commit) once per
// batch of lines and send the batch's replies only after it returns, so
// a client never holds a decision whose record could still be lost to a
// crash.  `flush_every` caps the records one fsync covers (the writer
// flushes on its own when a batch reaches it), and checkpoint/close
// always flush.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::exp {

inline constexpr const char* kJournalHeader = "sda.journal.v1";

struct JournalRecord {
  char type = 'E';      ///< 'E' = event line, 'C' = checkpoint
  std::string payload;  ///< the raw protocol line / summary JSON
};

/// Result of reading a journal back.
struct JournalReadResult {
  bool ok = false;                     ///< file opened and header matched
  std::vector<JournalRecord> records;  ///< longest valid prefix
  bool truncated = false;              ///< a torn/corrupt tail was dropped
  /// Byte length of the longest valid prefix.  Everything past this
  /// offset is torn: an appender truncates to it first so the next
  /// record starts on a record boundary instead of gluing onto half a
  /// line (which would fail the checksum there on the following
  /// recovery and silently drop every record after it).
  std::uint64_t valid_bytes = 0;
  /// The valid prefix ends in a record whose trailing '\n' was lost to
  /// a torn write: the record itself is good (length and checksum
  /// pass), but an appender must restore the newline before writing.
  bool unterminated_tail = false;
  std::string diagnostic;              ///< why reading stopped, if it did
};

/// Reads every valid record from @p path.  Missing file: ok=false with
/// a diagnostic (callers treat that as "nothing to recover").  A
/// corrupt or torn record stops the scan — everything before it is
/// returned, `truncated` is set, and the diagnostic names the spot.
JournalReadResult read_journal(const std::string& path);

/// Append-only journal writer with batched fsync.
class JournalWriter {
 public:
  struct Config {
    std::size_t flush_every = 32;  ///< cap on records per write+fsync
    /// Unused: nothing is left pending between commits, so there is no
    /// timer-driven flush.  Kept so existing callers (perfbench/) build.
    std::chrono::milliseconds flush_interval{100};
  };

  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens @p path for appending, writing the header if the file is
  /// new/empty (and fsyncing the parent directory so the file itself
  /// survives a crash).  An existing file must be an sda.journal.v1
  /// journal; any torn tail left by a previous crash is truncated back
  /// to the last record boundary before appending.
  /// Returns false (with @p error set) on open/header mismatch.
  bool open(const std::string& path, const Config& config,
            std::string* error);

  bool is_open() const noexcept {
    util::RoleGuard own(owner_);
    return fd_ >= 0;
  }

  /// Buffers one event record; flushes when the batch is full.
  /// Returns false once the underlying file has failed (the error is
  /// sticky; io_errors() counts every failed syscall batch).
  bool append_event(std::string_view line);

  /// Buffers a checkpoint record and forces a synchronous flush —
  /// checkpoints exist to be durable.
  bool append_checkpoint(std::string_view summary_json);

  /// Writes buffered records and fsyncs.  No-op when nothing pending.
  bool flush();

  /// Flushes and closes the fd.
  void close();

  std::uint64_t records_appended() const noexcept {
    util::RoleGuard own(owner_);
    return appended_;
  }
  std::uint64_t io_errors() const noexcept {
    util::RoleGuard own(owner_);
    return io_errors_;
  }

 private:
  bool append(char type, std::string_view payload, bool force_flush)
      SDA_REQUIRES(owner_);
  /// flush/close bodies shared by the public wrappers and internal
  /// owner-held callers (append's batch boundary, open's reopen).
  bool flush_impl() SDA_REQUIRES(owner_);
  void close_impl() SDA_REQUIRES(owner_);

  /// Single-owner role: one thread (the serve session driving it) owns
  /// the writer; the buffer and counters below are compile-time fenced
  /// to owner-entered call paths.
  util::ThreadRole owner_;
  int fd_ SDA_GUARDED_BY(owner_) = -1;
  Config config_ SDA_GUARDED_BY(owner_);
  /// Encoded records awaiting write.
  std::string buffer_ SDA_GUARDED_BY(owner_);
  /// Records in buffer_.
  std::size_t pending_ SDA_GUARDED_BY(owner_) = 0;
  /// Records accepted (buffered or written).
  std::uint64_t appended_ SDA_GUARDED_BY(owner_) = 0;
  std::uint64_t io_errors_ SDA_GUARDED_BY(owner_) = 0;
  /// Sticky after an unrecoverable error.
  bool failed_ SDA_GUARDED_BY(owner_) = false;
};

}  // namespace sda::exp
