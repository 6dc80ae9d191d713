#include "gsn/storage/columnar/catalog.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "gsn/types/codec.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::storage::columnar {
namespace {

namespace fs = std::filesystem;

constexpr char kJournalName[] = "catalog.gsnlog";
constexpr char kAddRecord = 'A';
constexpr char kDropRecord = 'D';

std::string JournalRecord(char kind, const SegmentMeta& meta) {
  std::string payload;
  payload.push_back(kind);
  Codec::EncodeString(meta.table, &payload);
  if (kind == kAddRecord) {
    Codec::EncodeI64(static_cast<int64_t>(meta.id), &payload);
    Codec::EncodeI64(meta.min_timed, &payload);
    Codec::EncodeI64(meta.max_timed, &payload);
    Codec::EncodeI64(static_cast<int64_t>(meta.row_count), &payload);
    Codec::EncodeU32(meta.chunk_count, &payload);
    Codec::EncodeU32(meta.rows_crc, &payload);
    Codec::EncodeI64(static_cast<int64_t>(meta.bytes), &payload);
  }
  return payload;
}

Result<std::pair<char, SegmentMeta>> ParseJournalRecord(
    std::string_view payload) {
  size_t pos = 0;
  if (payload.empty()) return Status::IntegrityError("empty catalog record");
  const char kind = payload[pos++];
  SegmentMeta meta;
  GSN_ASSIGN_OR_RETURN(meta.table, Codec::DecodeString(payload, &pos));
  if (kind == kAddRecord) {
    GSN_ASSIGN_OR_RETURN(int64_t id, Codec::DecodeI64(payload, &pos));
    meta.id = static_cast<uint64_t>(id);
    GSN_ASSIGN_OR_RETURN(meta.min_timed, Codec::DecodeI64(payload, &pos));
    GSN_ASSIGN_OR_RETURN(meta.max_timed, Codec::DecodeI64(payload, &pos));
    GSN_ASSIGN_OR_RETURN(int64_t rows, Codec::DecodeI64(payload, &pos));
    meta.row_count = static_cast<uint64_t>(rows);
    GSN_ASSIGN_OR_RETURN(meta.chunk_count, Codec::DecodeU32(payload, &pos));
    GSN_ASSIGN_OR_RETURN(meta.rows_crc, Codec::DecodeU32(payload, &pos));
    GSN_ASSIGN_OR_RETURN(int64_t bytes, Codec::DecodeI64(payload, &pos));
    meta.bytes = static_cast<uint64_t>(bytes);
  } else if (kind != kDropRecord) {
    return Status::IntegrityError("unknown catalog record kind");
  }
  return std::make_pair(kind, std::move(meta));
}

}  // namespace

SegmentCatalog::SegmentCatalog(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    count_gauge_ = options_.metrics->GetGauge(
        "gsn_segment_count", options_.labels,
        "Live columnar history segments");
    bytes_gauge_ = options_.metrics->GetGauge(
        "gsn_segment_bytes", options_.labels,
        "Total bytes across live columnar segments");
    pruned_chunks_ = options_.metrics->GetCounter(
        "gsn_segment_pruned_chunks", options_.labels,
        "Column chunks skipped via zone maps during segment scans");
    scanned_rows_ = options_.metrics->GetCounter(
        "gsn_segment_scanned_rows", options_.labels,
        "Rows decoded out of columnar segments by scans");
  }
}

Result<std::unique_ptr<SegmentCatalog>> SegmentCatalog::Open(
    const std::string& dir, Options options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create segment dir " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<SegmentCatalog> catalog(
      new SegmentCatalog(dir, std::move(options)));
  std::lock_guard<std::mutex> lock(catalog->mu_);
  const std::string journal = dir + "/" + kJournalName;
  GSN_RETURN_IF_ERROR(catalog->ReplayJournalLocked(journal));
  // Compact the journal to the surviving set.
  std::vector<std::string> live;
  for (const auto& [table, metas] : catalog->by_table_) {
    for (const SegmentMeta& meta : metas) {
      live.push_back(JournalRecord(kAddRecord, meta));
    }
  }
  GSN_ASSIGN_OR_RETURN(catalog->journal_, RecordLog::Open(journal));
  GSN_RETURN_IF_ERROR(catalog->journal_->Replace(live));
  catalog->UpdateGaugesLocked();
  return catalog;
}

std::string SegmentCatalog::SegmentPath(const SegmentMeta& meta) const {
  return dir_ + "/" + meta.table + "/seg-" + std::to_string(meta.id) +
         std::string(kSegmentFileSuffix);
}

Status SegmentCatalog::ReplayJournalLocked(const std::string& journal) {
  auto apply = [this](std::string_view payload) -> Status {
    GSN_ASSIGN_OR_RETURN(auto record, ParseJournalRecord(payload));
    auto& [kind, meta] = record;
    if (kind == kAddRecord) {
      next_id_ = std::max(next_id_, meta.id + 1);
      by_table_[meta.table].push_back(std::move(meta));
    } else {
      by_table_.erase(meta.table);
    }
    return Status::OK();
  };
  GSN_RETURN_IF_ERROR(RecordLog::Replay(journal, apply).status());

  // Reconcile against the filesystem: a journaled segment must exist
  // with the journaled size and an intact footer, else it is the relic
  // of an aborted flush and its rows are still recoverable elsewhere.
  std::set<std::string> live_paths;
  for (auto it = by_table_.begin(); it != by_table_.end();) {
    std::vector<SegmentMeta>& metas = it->second;
    for (auto m = metas.begin(); m != metas.end();) {
      const std::string path = SegmentPath(*m);
      bool intact = false;
      std::error_code ec;
      if (fs::exists(path, ec) && fs::file_size(path, ec) == m->bytes) {
        Result<std::string> contents2 = ReadLogFile(path);
        intact = contents2.ok() && ValidateSegmentContents(*contents2);
      }
      if (intact) {
        live_paths.insert(fs::weakly_canonical(path, ec).string());
        ++m;
      } else {
        GSN_LOG(kWarn, "columnar") << "discarding torn segment " << path;
        fs::remove(path, ec);
        ++discarded_on_recovery_;
        m = metas.erase(m);
      }
    }
    std::sort(metas.begin(), metas.end(),
              [](const SegmentMeta& a, const SegmentMeta& b) {
                return a.id < b.id;
              });
    if (metas.empty()) {
      it = by_table_.erase(it);
    } else {
      ++it;
    }
  }

  // Unjournaled segment files are flushes that crashed before their
  // journal append: the WAL still holds those rows, so the file must
  // go or recovery would duplicate them.
  std::error_code ec;
  for (auto entry = fs::recursive_directory_iterator(
           dir_, fs::directory_options::skip_permission_denied, ec);
       !ec && entry != fs::recursive_directory_iterator(); ++entry) {
    if (!entry->is_regular_file(ec)) continue;
    const fs::path& path = entry->path();
    if (path.extension() != std::string(kSegmentFileSuffix)) continue;
    std::error_code ec2;
    if (live_paths.count(fs::weakly_canonical(path, ec2).string())) continue;
    GSN_LOG(kWarn, "columnar")
        << "removing orphan segment file " << path.string();
    fs::remove(path, ec2);
    ++orphans_removed_;
  }
  return Status::OK();
}

Status SegmentCatalog::AppendJournalLocked(char kind, const SegmentMeta& meta) {
  GSN_RETURN_IF_ERROR(journal_->Append(JournalRecord(kind, meta)));
  // The journal append is the commit point a later WAL rewrite relies
  // on — it must be durable before the caller drops the rows' WAL copy.
  return journal_->Sync();
}

void SegmentCatalog::UpdateGaugesLocked() {
  if (count_gauge_ == nullptr) return;
  int64_t count = 0;
  int64_t bytes = 0;
  for (const auto& [table, metas] : by_table_) {
    count += static_cast<int64_t>(metas.size());
    for (const SegmentMeta& meta : metas) {
      bytes += static_cast<int64_t>(meta.bytes);
    }
  }
  count_gauge_->Set(count);
  bytes_gauge_->Set(bytes);
}

Result<SegmentMeta> SegmentCatalog::Flush(const std::string& table,
                                          const Schema& row_schema,
                                          const Relation::RowList& rows) {
  const std::string key = StrToLower(table);
  GSN_ASSIGN_OR_RETURN(
      EncodedSegment encoded,
      EncodeSegment(key, row_schema, rows, options_.rows_per_chunk));

  std::lock_guard<std::mutex> lock(mu_);
  SegmentMeta meta;
  meta.table = key;
  meta.id = next_id_++;
  meta.min_timed = encoded.min_timed;
  meta.max_timed = encoded.max_timed;
  meta.row_count = encoded.row_count;
  meta.chunk_count = encoded.chunk_count;
  meta.rows_crc = encoded.rows_crc;
  meta.bytes = encoded.contents.size();

  std::error_code ec;
  fs::create_directories(dir_ + "/" + key, ec);
  if (ec) {
    return Status::IoError("cannot create segment dir for " + key + ": " +
                           ec.message());
  }
  const std::string path = SegmentPath(meta);
  GSN_RETURN_IF_ERROR(WriteFileSynced(path, encoded.contents));
  Status journaled = AppendJournalLocked(kAddRecord, meta);
  if (!journaled.ok()) {
    fs::remove(path, ec);
    return journaled;
  }
  by_table_[key].push_back(meta);
  UpdateGaugesLocked();
  return meta;
}

Status SegmentCatalog::Scan(const std::string& table, const Schema& row_schema,
                            const sql::ScanPredicate& predicate,
                            Relation::RowList* out,
                            sql::ScanStats* stats) const {
  return ScanSegments(SegmentsFor(table), row_schema, predicate, out, stats);
}

Status SegmentCatalog::ScanSegments(const std::vector<SegmentMeta>& metas,
                                    const Schema& row_schema,
                                    const sql::ScanPredicate& predicate,
                                    Relation::RowList* out,
                                    sql::ScanStats* stats) const {
  if (metas.empty()) return Status::OK();

  // Bounds on the leading `timed` column prune whole segments off the
  // catalog metadata, without touching the file.
  std::vector<const sql::ScanBound*> timed_bounds;
  if (!row_schema.empty()) {
    const std::string timed_name = StrToLower(row_schema.field(0).name);
    for (const sql::ScanBound& bound : predicate.bounds) {
      if (bound.column == timed_name) timed_bounds.push_back(&bound);
    }
  }

  int64_t pruned_chunks = 0;
  int64_t scanned_rows = 0;
  for (const SegmentMeta& meta : metas) {
    if (stats != nullptr) ++stats->segments_total;
    bool prune = false;
    for (const sql::ScanBound* bound : timed_bounds) {
      if (!sql::RangeMayMatch(Value::TimestampVal(meta.min_timed),
                              Value::TimestampVal(meta.max_timed), *bound)) {
        prune = true;
        break;
      }
    }
    if (prune) {
      if (stats != nullptr) {
        stats->chunks_total += meta.chunk_count;
        stats->chunks_pruned += meta.chunk_count;
      }
      pruned_chunks += meta.chunk_count;
      continue;
    }
    if (stats != nullptr) ++stats->segments_scanned;
    Result<std::string> contents = ReadLogFile(SegmentPath(meta));
    if (!contents.ok()) {
      GSN_LOG(kWarn, "columnar")
          << "skipping unreadable segment " << SegmentPath(meta) << ": "
          << contents.status().ToString();
      continue;
    }
    SegmentScanStats seg_stats;
    Status scanned = ScanSegmentContents(*contents, row_schema, predicate,
                                         out, &seg_stats);
    if (!scanned.ok()) {
      GSN_LOG(kWarn, "columnar") << "skipping corrupt segment "
                                 << SegmentPath(meta) << ": "
                                 << scanned.ToString();
      continue;
    }
    if (stats != nullptr) {
      stats->chunks_total += seg_stats.chunks_total;
      stats->chunks_pruned += seg_stats.chunks_pruned;
      stats->segment_rows += seg_stats.rows_decoded;
    }
    pruned_chunks += seg_stats.chunks_pruned;
    scanned_rows += seg_stats.rows_decoded;
  }
  if (pruned_chunks > 0 && pruned_chunks_ != nullptr) {
    pruned_chunks_->Increment(pruned_chunks);
  }
  if (scanned_rows > 0 && scanned_rows_ != nullptr) {
    scanned_rows_->Increment(scanned_rows);
  }
  return Status::OK();
}

Status SegmentCatalog::DropTable(const std::string& table) {
  const std::string key = StrToLower(table);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_table_.find(key);
  if (it == by_table_.end()) return Status::OK();
  SegmentMeta drop;
  drop.table = key;
  GSN_RETURN_IF_ERROR(AppendJournalLocked(kDropRecord, drop));
  std::error_code ec;
  for (const SegmentMeta& meta : it->second) {
    fs::remove(SegmentPath(meta), ec);
  }
  fs::remove(dir_ + "/" + key, ec);  // rmdir if now empty
  by_table_.erase(it);
  UpdateGaugesLocked();
  return Status::OK();
}

std::vector<SegmentMeta> SegmentCatalog::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentMeta> out;
  for (const auto& [table, metas] : by_table_) {
    out.insert(out.end(), metas.begin(), metas.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentMeta& a, const SegmentMeta& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<SegmentMeta> SegmentCatalog::SegmentsFor(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_table_.find(StrToLower(table));
  if (it == by_table_.end()) return {};
  return it->second;
}

size_t SegmentCatalog::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [table, metas] : by_table_) n += metas.size();
  return n;
}

uint64_t SegmentCatalog::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [table, metas] : by_table_) {
    for (const SegmentMeta& meta : metas) n += meta.bytes;
  }
  return n;
}

}  // namespace gsn::storage::columnar
