#ifndef GSN_STORAGE_TABLE_H_
#define GSN_STORAGE_TABLE_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/sql/executor.h"
#include "gsn/storage/columnar/catalog.h"
#include "gsn/types/schema.h"
#include "gsn/util/strings.h"

namespace gsn::storage {

/// A windowed stream table: the storage layer's unit of persistence
/// for one virtual sensor's output (paper §4: "the storage layer ...
/// is in charge of providing and managing persistent storage for data
/// streams"; the `<storage size=...>` element bounds retention).
/// Rows carry the implicit `timed` column first. Thread-safe.
class Table {
 public:
  /// `retention` bounds how much history is kept (`<storage size>`),
  /// element-count or time based.
  Table(std::string name, Schema element_schema, WindowSpec retention);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  /// Schema of stored rows: `timed` + the element schema.
  const Schema& row_schema() const { return row_schema_; }
  /// Schema of the sensor's elements (no `timed`).
  const Schema& element_schema() const { return element_schema_; }

  /// Appends a stream element; the element arity must match the
  /// element schema. Retention is enforced using the element's own
  /// timestamp as "now".
  Status Insert(const StreamElement& element);

  /// Appends a batch of elements under one lock acquisition. Stops at
  /// the first arity mismatch and returns that error; earlier elements
  /// stay inserted.
  Status InsertBatch(const std::vector<StreamElement>& elements);

  /// Snapshot of all live rows as a Relation (oldest first). Rows are
  /// shared with the table (ref-count bump, no Value copies).
  Relation Scan() const;
  /// Snapshot respecting time-retention relative to `now`. Rows are
  /// timestamp-ordered (retention eviction uses each element's own
  /// timestamp), so the boundary is found by binary search.
  Relation Scan(Timestamp now) const;

  /// The live rows as stream elements (oldest first) — the table's
  /// content re-expressed in persistence-log form, for checkpoint
  /// compaction of the sensor's WAL.
  std::vector<StreamElement> SnapshotElements() const;

  // -- Tiered history capture ----------------------------------------------
  // With capture enabled, rows leaving the retention window are parked
  // in a bounded pending queue instead of being dropped; the container
  // checkpoint flushes a copy of them into a columnar segment and then
  // publishes it (PublishSegment). The table decides under its own lock
  // which segments a scan reads, and a segment becomes visible in the
  // same critical section that drops its rows from pending, so history
  // never blinks out and no row is seen twice.

  /// Starts capturing evicted rows, keeping at most `max_pending_rows`
  /// (oldest dropped first when the bound is hit; dropped rows are
  /// counted, not silently lost).
  void EnableHistoryCapture(size_t max_pending_rows);
  bool history_capture_enabled() const;

  /// Copy of the pending evicted rows (oldest first).
  Relation::RowList PendingEvictedRows() const;
  /// Makes `segment`, flushed from `rows` (a PendingEvictedRows() copy),
  /// visible to scans and drops those rows from pending, atomically. A
  /// flush that failed publishes nothing, so its rows stay pending.
  void PublishSegment(columnar::SegmentMeta segment,
                      const Relation::RowList& rows);
  /// The segments scans read before pending (at deploy: the catalog's
  /// surviving segments for this table), replacing any attached.
  void AttachSegments(std::vector<columnar::SegmentMeta> segments);
  /// Drops the first `n` pending rows (recovery dedup against already
  /// flushed segments).
  void DropPendingPrefix(size_t n);
  /// Evicted rows dropped because the pending bound was hit.
  uint64_t pending_dropped() const;

  /// One relation over all three tiers, oldest first: the attached
  /// segments read through `catalog` (zone-map pruned by `predicate`),
  /// then the pending evicted rows, then the live window. `catalog` may
  /// be null (no segments are read) and `stats` may be null; `stats`
  /// also receives the view version the scan read.
  Relation ScanUnified(const columnar::SegmentCatalog* catalog,
                       const sql::ScanPredicate& predicate,
                       sql::ScanStats* stats) const;

  /// The version of the ScanUnified view (see sql::ViewVersion): rows
  /// moving between tiers keep it; eviction without capture, a pending
  /// overflow, DropPendingPrefix, Clear and AttachSegments change the
  /// epoch.
  sql::ViewVersion version() const;

  size_t NumRows() const;
  /// Total payload bytes currently held (for resource accounting).
  size_t ApproximateBytes() const;
  void Clear();

 private:
  struct Entry {
    Timestamp timed = 0;
    size_t bytes = 0;
    Relation::SharedRow row;
  };

  Status InsertLocked(const StreamElement& element);
  void EvictLocked(Timestamp now);
  /// Starts a new view epoch: the view changed other than by appending.
  void NewEpochLocked();

  const std::string name_;
  const Schema element_schema_;
  const Schema row_schema_;
  const WindowSpec retention_;

  mutable std::mutex mu_;
  std::deque<Entry> rows_;
  size_t approx_bytes_ = 0;
  /// True while rows_ is non-decreasing in timed; gates the
  /// binary-search Scan(now) path.
  bool sorted_ = true;

  bool capture_evicted_ = false;
  size_t max_pending_rows_ = 0;
  std::deque<Relation::SharedRow> pending_evicted_;
  uint64_t pending_dropped_ = 0;
  /// Segments visible to ScanUnified, oldest first.
  std::vector<columnar::SegmentMeta> segments_;
  sql::ViewVersion version_;
};

/// Catalog of tables inside one GSN container; implements TableResolver
/// so SQL queries can read any virtual sensor's stored stream by name.
/// Thread-safe.
class TableManager : public sql::TableResolver {
 public:
  TableManager() = default;

  TableManager(const TableManager&) = delete;
  TableManager& operator=(const TableManager&) = delete;

  /// Creates a table; fails with AlreadyExists on name collision
  /// (case-insensitive).
  Result<Table*> CreateTable(const std::string& name, Schema element_schema,
                             WindowSpec retention);
  Status DropTable(const std::string& name);
  Result<Table*> GetTableHandle(const std::string& name) const;
  std::vector<std::string> ListTables() const;

  /// Attaches the columnar history tier: from here on, resolver scans
  /// serve segments + pending evicted rows + the live window as one
  /// relation. The catalog must outlive this manager.
  void AttachHistory(const columnar::SegmentCatalog* catalog);
  const columnar::SegmentCatalog* history() const;

  // sql::TableResolver:
  Result<Relation> GetTable(const std::string& name) const override;
  Result<Relation> GetTableFiltered(const std::string& name,
                                    const sql::ScanPredicate& predicate,
                                    sql::ScanStats* stats) const override;
  sql::ViewVersion TableVersion(const std::string& name) const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;  // lowercased name
  const columnar::SegmentCatalog* history_ = nullptr;
};

}  // namespace gsn::storage

#endif  // GSN_STORAGE_TABLE_H_
