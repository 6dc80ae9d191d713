#include "gsn/storage/persistence_log.h"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>

#include "gsn/util/logging.h"

namespace gsn::storage {

namespace {
constexpr uint8_t kRecordMagic = 0xA7;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Status FlushAndFsync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("flush failed for " + path);
  }
  if (::fsync(::fileno(file)) != 0) {
    return Status::IoError("fsync failed for " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}
}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string FrameLogRecord(std::string_view payload) {
  std::string record;
  record.reserve(payload.size() + 9);
  record.push_back(static_cast<char>(kRecordMagic));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  record.append(payload);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return record;
}

size_t ScanLogRecords(std::string_view contents,
                      std::vector<std::string_view>* payloads,
                      bool* torn_tail) {
  if (torn_tail != nullptr) *torn_tail = false;
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t header_end = pos + 5;
    if (header_end > contents.size()) break;  // torn header
    if (static_cast<uint8_t>(contents[pos]) != kRecordMagic) break;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(contents[pos + 1 + i]))
             << (8 * i);
    }
    const size_t payload_start = header_end;
    const size_t record_end = payload_start + len + 4;
    if (record_end > contents.size() || record_end < payload_start) {
      break;  // torn tail (or a length so corrupt it overflows)
    }
    uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |= static_cast<uint32_t>(
                        static_cast<uint8_t>(contents[payload_start + len + i]))
                    << (8 * i);
    }
    const std::string_view payload = contents.substr(payload_start, len);
    if (Crc32(payload.data(), payload.size()) != stored_crc) break;
    if (payloads != nullptr) payloads->push_back(payload);
    pos = record_end;
  }
  if (pos < contents.size() && torn_tail != nullptr) *torn_tail = true;
  return pos;
}

Result<std::string> ReadLogFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::string();  // first boot: empty history
  std::string contents;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  return contents;
}

Status WriteFileSynced(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  Status status = Status::OK();
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f) != contents.size()) {
    status = Status::IoError("short write to " + path);
  }
  if (status.ok()) status = FlushAndFsync(f, path);
  std::fclose(f);
  if (!status.ok()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return status;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  GSN_RETURN_IF_ERROR(WriteFileSynced(tmp, contents));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::unique_ptr<RecordLog>> RecordLog::Open(const std::string& path) {
  // Torn-tail repair: find the valid prefix and truncate anything after
  // it, so appends are never written behind a corrupt record (where
  // every future Replay would stop before them and silently lose them).
  GSN_ASSIGN_OR_RETURN(std::string contents, ReadLogFile(path));
  bool torn = false;
  const size_t valid_prefix = ScanLogRecords(contents, nullptr, &torn);
  if (torn) {
    std::error_code ec;
    std::filesystem::resize_file(path, valid_prefix, ec);
    if (ec) {
      return Status::IoError("cannot truncate torn tail of " + path + ": " +
                             ec.message());
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("cannot open record log " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<RecordLog>(new RecordLog(path, f, valid_prefix));
}

Result<RecordLog::ReplayStats> RecordLog::Replay(const std::string& path,
                                                 const Visitor& visit) {
  GSN_ASSIGN_OR_RETURN(std::string contents, ReadLogFile(path));
  std::vector<std::string_view> payloads;
  ReplayStats stats;
  ScanLogRecords(contents, &payloads, &stats.torn_tail);
  stats.records = payloads.size();
  for (size_t i = 0; i < payloads.size(); ++i) {
    const Status visited = visit(payloads[i]);
    if (!visited.ok()) {
      // The frame and CRC are intact, so the log goes on past it.
      ++stats.skipped;
      GSN_LOG(kWarn, "storage") << path << ": skipping record " << i
                                << " with an undecodable payload: "
                                << visited;
    }
  }
  if (stats.torn_tail) {
    GSN_LOG(kWarn, "storage") << path << ": torn tail after "
                              << stats.records
                              << " record(s); the next open truncates it";
  }
  return stats;
}

RecordLog::~RecordLog() { std::fclose(file_); }

Status RecordLog::Append(std::string_view payload) {
  const std::string record = FrameLogRecord(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::IoError("short write to " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("flush failed for " + path_);
  }
  end_ += record.size();
  ++appended_;
  return Status::OK();
}

uint64_t RecordLog::Mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_;
}

Status RecordLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushAndFsync(file_, path_);
}

Status RecordLog::Replace(const std::vector<std::string>& payloads,
                          std::optional<uint64_t> mark) {
  std::string contents;
  for (const std::string& payload : payloads) {
    contents += FrameLogRecord(payload);
  }
  const std::string tmp = path_ + ".tmp";
  std::lock_guard<std::mutex> lock(mu_);
  if (mark.has_value() && *mark > end_) {
    return Status::InvalidArgument("mark " + std::to_string(*mark) +
                                   " is past the end of " + path_);
  }
  if (mark.has_value() && *mark < end_) {
    // The frames appended since the mark, byte for byte: every Append
    // flushed its frame to the file before releasing this lock.
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    if (in == nullptr) {
      return Status::IoError("cannot read " + path_ + ": " +
                             std::strerror(errno));
    }
    const size_t tail_size = static_cast<size_t>(end_ - *mark);
    const size_t tail_start = contents.size();
    contents.resize(tail_start + tail_size);
    const bool read =
        std::fseek(in, static_cast<long>(*mark), SEEK_SET) == 0 &&
        std::fread(contents.data() + tail_start, 1, tail_size, in) ==
            tail_size;
    std::fclose(in);
    if (!read) return Status::IoError("short read of " + path_);
  }
  GSN_RETURN_IF_ERROR(WriteFileSynced(tmp, contents));
  // The new handle opens on the temp file before the rename: every
  // failure up to and including the rename leaves the old file and
  // handle as they were, and after it appends follow the renamed inode.
  std::error_code ec;
  std::FILE* next = std::fopen(tmp.c_str(), "ab");
  if (next == nullptr) {
    const Status opened = Status::IoError("cannot open " + tmp + ": " +
                                          std::strerror(errno));
    std::filesystem::remove(tmp, ec);
    return opened;
  }
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    const Status renamed = Status::IoError("rename " + tmp + " -> " + path_ +
                                           ": " + ec.message());
    std::fclose(next);
    std::filesystem::remove(tmp, ec);
    return renamed;
  }
  std::fclose(file_);
  file_ = next;
  end_ = contents.size();
  appended_ = 0;
  return Status::OK();
}

size_t RecordLog::appended_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

}  // namespace gsn::storage
