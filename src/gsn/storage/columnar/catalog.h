#ifndef GSN_STORAGE_COLUMNAR_CATALOG_H_
#define GSN_STORAGE_COLUMNAR_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/sql/scan_predicate.h"
#include "gsn/storage/columnar/segment.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::storage::columnar {

/// Catalog-visible facts about one live segment file.
struct SegmentMeta {
  std::string table;  ///< lowercased table key
  uint64_t id = 0;
  Timestamp min_timed = 0;
  Timestamp max_timed = 0;
  uint64_t row_count = 0;
  uint32_t chunk_count = 0;
  uint32_t rows_crc = 0;
  uint64_t bytes = 0;  ///< segment file size
};

/// Tracks the live columnar segments of one container under
/// `<dir>/<table>/seg-<id>.gsnseg`, journaled in `<dir>/catalog.gsnlog`
/// (a RecordLog of add/drop records).
///
/// Recovery (Open) replays the journal, then reconciles it against the
/// filesystem: journaled segments whose file is missing, truncated, or
/// footer-less are discarded (an aborted flush), and on-disk segment
/// files the journal does not know are deleted (a flush that crashed
/// before its journal append — the rows still live in the WAL, so
/// deleting the orphan is the exactly-once choice). The journal is
/// then compacted to the surviving set.
///
/// Flush durability order is the seam-correctness contract: segment
/// file write + fsync, THEN journal append + fsync, and only then may
/// the caller rewrite the WAL. A crash between the journal append and
/// the WAL rewrite leaves the flushed rows in both tiers; the caller
/// deduplicates at recovery using SegmentMeta::rows_crc (see
/// Container::DeploySpec).
///
/// Thread-safe.
class SegmentCatalog {
 public:
  struct Options {
    size_t rows_per_chunk = 1024;
    telemetry::MetricRegistry* metrics = nullptr;
    telemetry::Labels labels;  ///< e.g. {{"node", id}} for gauge labels
  };

  /// Opens (creating if needed) the catalog rooted at `dir`.
  static Result<std::unique_ptr<SegmentCatalog>> Open(const std::string& dir,
                                                      Options options);
  SegmentCatalog(const SegmentCatalog&) = delete;
  SegmentCatalog& operator=(const SegmentCatalog&) = delete;

  /// Encodes `rows` into a new segment for `table` (lowercased key),
  /// writes + fsyncs the file, then journals it durably. On error
  /// nothing is adopted (a partial file is cleaned up by the next
  /// recovery) and the caller keeps ownership of the rows.
  Result<SegmentMeta> Flush(const std::string& table, const Schema& row_schema,
                            const Relation::RowList& rows);

  /// Scans `table`'s segments oldest-first, appending surviving rows
  /// to `out`. Segments whose [min_timed, max_timed] cannot satisfy a
  /// `timed` bound are skipped without touching the file; surviving
  /// segments are group-pruned via their chunk zone maps. `stats` may
  /// be null. Unreadable segments are skipped (they count as scanned
  /// but contribute no rows) — a query must not fail because one cold
  /// file went bad; the damage is logged once at recovery.
  Status Scan(const std::string& table, const Schema& row_schema,
              const sql::ScanPredicate& predicate, Relation::RowList* out,
              sql::ScanStats* stats) const;
  /// Scan over the given segments (oldest first) instead of the
  /// catalog's current list: a table scans the segments it has made
  /// visible (Table::ScanUnified).
  Status ScanSegments(const std::vector<SegmentMeta>& segments,
                      const Schema& row_schema,
                      const sql::ScanPredicate& predicate,
                      Relation::RowList* out, sql::ScanStats* stats) const;

  /// Drops and deletes every segment of `table` (operator undeploy).
  Status DropTable(const std::string& table);

  /// All live segments, ascending by id.
  std::vector<SegmentMeta> List() const;
  /// `table`'s live segments, ascending by id.
  std::vector<SegmentMeta> SegmentsFor(const std::string& table) const;

  size_t segment_count() const;
  uint64_t total_bytes() const;
  /// Journaled segments discarded at Open (torn/missing files).
  size_t discarded_on_recovery() const { return discarded_on_recovery_; }
  /// Unjournaled segment files deleted at Open.
  size_t orphans_removed() const { return orphans_removed_; }

  const std::string& dir() const { return dir_; }
  std::string SegmentPath(const SegmentMeta& meta) const;

 private:
  SegmentCatalog(std::string dir, Options options);

  Status ReplayJournalLocked(const std::string& journal);
  Status AppendJournalLocked(char kind, const SegmentMeta& meta);
  void UpdateGaugesLocked();

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<SegmentMeta>> by_table_;
  uint64_t next_id_ = 1;
  std::unique_ptr<RecordLog> journal_;
  size_t discarded_on_recovery_ = 0;
  size_t orphans_removed_ = 0;

  std::shared_ptr<telemetry::Gauge> count_gauge_;
  std::shared_ptr<telemetry::Gauge> bytes_gauge_;
  std::shared_ptr<telemetry::Counter> pruned_chunks_;
  std::shared_ptr<telemetry::Counter> scanned_rows_;
};

}  // namespace gsn::storage::columnar

#endif  // GSN_STORAGE_COLUMNAR_CATALOG_H_
