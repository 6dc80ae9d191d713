#ifndef GSN_STORAGE_PERSISTENCE_LOG_H_
#define GSN_STORAGE_PERSISTENCE_LOG_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/util/result.h"

namespace gsn::storage {

/// One GSN append log: a file of CRC-framed records behind one append
/// handle. Each permanent sensor's write-ahead log (one
/// Codec::EncodeElement payload per stored element; the Java GSN
/// delegated this durability to MySQL), the container manifest and the
/// segment-catalog journal are RecordLogs, and nothing else opens,
/// appends to, fsyncs, replaces or replays one.
///
/// The record rule, the same for every log: the frame (magic, length,
/// CRC) decides where the log ends. Replay stops at the first torn or
/// corrupt frame (a torn tail write is expected after a crash), and
/// Open truncates the file there, so appends land right behind the last
/// intact record. A frame whose payload the caller's decoder rejects is
/// skipped with a warning while replay goes on, so Replay always
/// accepts the prefix that Open appends after.
///
/// Thread-safe. The handle's lock is held only around its own file I/O
/// and takes no other lock: it is the innermost leaf of
/// docs/CONCURRENCY.md.
class RecordLog {
 public:
  /// Decodes and applies one intact record's payload. A non-OK status
  /// rejects the record: Replay logs it and skips to the next one.
  using Visitor = std::function<Status(std::string_view payload)>;

  struct ReplayStats {
    size_t records = 0;      ///< intact frames, rejected ones included
    size_t skipped = 0;      ///< frames whose payload the visitor rejected
    bool torn_tail = false;  ///< bytes past the last intact frame
  };

  /// Opens (creating if needed) the log at `path` for appending, first
  /// truncating a torn or corrupt tail to the last intact record.
  static Result<std::unique_ptr<RecordLog>> Open(const std::string& path);

  /// Visits the payload of every intact record at `path`, in order
  /// (static: recovery replays before it opens for append). A missing
  /// file is an empty log (first boot).
  static Result<ReplayStats> Replay(const std::string& path,
                                    const Visitor& visit);

  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Frames `payload`, appends it and flushes it to the OS: it survives
  /// a kill -9, and Sync makes it survive power loss.
  Status Append(std::string_view payload);

  /// Flushes and fsyncs the log to durable storage.
  Status Sync();

  /// The log's end offset, read under its lock. A later
  /// Replace(payloads, mark) keeps every record appended after it. A mark
  /// is valid until the next Replace of this handle.
  uint64_t Mark() const;

  /// Compaction: atomically replaces the log with `payloads` (temp file,
  /// fsync, rename) and keeps appending to the new file. With a `mark`,
  /// the frames appended after it follow `payloads` unchanged, copied
  /// under the log's lock, so an append racing the caller's snapshot is
  /// kept. On failure the old file and this handle stay exactly as they
  /// were, still appendable, so there is never a moment without a handle.
  Status Replace(const std::vector<std::string>& payloads,
                 std::optional<uint64_t> mark = std::nullopt);

  const std::string& path() const { return path_; }
  /// Records appended through this handle since Open or the last
  /// successful Replace.
  size_t appended_count() const;

 private:
  RecordLog(std::string path, std::FILE* file, uint64_t end)
      : path_(std::move(path)), file_(file), end_(end) {}

  const std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_;      // guarded by mu_
  uint64_t end_;         // bytes in the file; guarded by mu_
  size_t appended_ = 0;  // guarded by mu_
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) used for log records.
uint32_t Crc32(const void* data, size_t len);

// -- Record framing shared by every GSN append-log ------------------------
// (RecordLog above and the columnar segment files).

/// Frames one payload as magic:u8 len:u32 payload crc32:u32.
std::string FrameLogRecord(std::string_view payload);

/// Scans `contents` for intact records, appending each payload to
/// `payloads`. Returns the byte length of the valid prefix; anything
/// past it is a torn or corrupt tail (`torn_tail` is set when the
/// prefix does not cover the whole buffer).
size_t ScanLogRecords(std::string_view contents,
                      std::vector<std::string_view>* payloads,
                      bool* torn_tail);

/// Reads a whole file into `contents`. Missing file = empty contents
/// (first boot), not an error.
Result<std::string> ReadLogFile(const std::string& path);

/// Creates (or truncates) `path`, writes `contents`, flushes and
/// fsyncs. On failure the partial file is removed.
Status WriteFileSynced(const std::string& path, std::string_view contents);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, flush + fsync, rename over the target.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace gsn::storage

#endif  // GSN_STORAGE_PERSISTENCE_LOG_H_
