#include "gsn/storage/table.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>

#include "gsn/util/logging.h"

namespace gsn::storage {

namespace {

/// Process-wide, so a dropped and recreated table never repeats an
/// epoch a continuous query already folded.
std::atomic<uint64_t> g_next_epoch{1};

}  // namespace

Table::Table(std::string name, Schema element_schema, WindowSpec retention)
    : name_(std::move(name)),
      element_schema_(std::move(element_schema)),
      row_schema_(element_schema_.WithTimedField()),
      retention_(retention) {
  NewEpochLocked();  // not yet shared: no lock needed
}

void Table::NewEpochLocked() {
  version_.epoch = g_next_epoch.fetch_add(1, std::memory_order_relaxed);
  version_.appended = 0;
}

sql::ViewVersion Table::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

Status Table::InsertLocked(const StreamElement& element) {
  if (element.values.size() != element_schema_.size()) {
    return Status::InvalidArgument(
        "element arity " + std::to_string(element.values.size()) +
        " != schema arity " + std::to_string(element_schema_.size()) +
        " for table " + name_);
  }
  Entry entry;
  entry.timed = element.timed;
  entry.bytes = 8 + element.PayloadBytes();
  entry.row = Relation::RowFromElement(element);
  if (!rows_.empty() && entry.timed < rows_.back().timed) sorted_ = false;
  approx_bytes_ += entry.bytes;
  rows_.push_back(std::move(entry));
  ++version_.appended;
  EvictLocked(element.timed);
  if (rows_.empty()) sorted_ = true;
  return Status::OK();
}

Status Table::Insert(const StreamElement& element) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(element);
}

Status Table::InsertBatch(const std::vector<StreamElement>& elements) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StreamElement& element : elements) {
    GSN_RETURN_IF_ERROR(InsertLocked(element));
  }
  return Status::OK();
}

void Table::EvictLocked(Timestamp now) {
  bool left_view = false;
  const auto evict_front = [this, &left_view] {
    if (capture_evicted_) {
      pending_evicted_.push_back(std::move(rows_.front().row));
      while (pending_evicted_.size() > max_pending_rows_) {
        pending_evicted_.pop_front();
        ++pending_dropped_;
        left_view = true;
      }
    } else {
      left_view = true;
    }
    approx_bytes_ -= std::min(approx_bytes_, rows_.front().bytes);
    rows_.pop_front();
  };
  if (retention_.kind == WindowSpec::Kind::kCount) {
    while (rows_.size() > static_cast<size_t>(retention_.count)) {
      evict_front();
    }
  } else {
    const Timestamp cutoff = now - retention_.duration_micros;
    while (!rows_.empty() && rows_.front().timed <= cutoff) {
      evict_front();
    }
  }
  if (left_view) NewEpochLocked();
}

Relation Table::Scan() const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  rows.reserve(rows_.size());
  for (const Entry& e : rows_) rows.push_back(e.row);
  return Relation(row_schema_, std::move(rows));
}

Relation Table::Scan(Timestamp now) const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  if (retention_.kind == WindowSpec::Kind::kCount) {
    rows.reserve(rows_.size());
    for (const Entry& e : rows_) rows.push_back(e.row);
    return Relation(row_schema_, std::move(rows));
  }
  const Timestamp cutoff = now - retention_.duration_micros;
  if (sorted_) {
    auto first = std::partition_point(
        rows_.begin(), rows_.end(),
        [cutoff](const Entry& e) { return e.timed <= cutoff; });
    rows.reserve(static_cast<size_t>(rows_.end() - first));
    for (auto it = first; it != rows_.end(); ++it) rows.push_back(it->row);
  } else {
    for (const Entry& e : rows_) {
      if (e.timed > cutoff) rows.push_back(e.row);
    }
  }
  return Relation(row_schema_, std::move(rows));
}

std::vector<StreamElement> Table::SnapshotElements() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out;
  out.reserve(rows_.size());
  for (const Entry& e : rows_) {
    StreamElement element;
    element.timed = e.timed;
    // Row layout is `timed` first, then the element values.
    element.values.assign(e.row->begin() + 1, e.row->end());
    out.push_back(std::move(element));
  }
  return out;
}

void Table::EnableHistoryCapture(size_t max_pending_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_evicted_ = true;
  max_pending_rows_ = max_pending_rows == 0 ? 1 : max_pending_rows;
}

bool Table::history_capture_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capture_evicted_;
}

Relation::RowList Table::PendingEvictedRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Relation::RowList(pending_evicted_.begin(), pending_evicted_.end());
}

void Table::PublishSegment(columnar::SegmentMeta segment,
                           const Relation::RowList& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  segments_.push_back(std::move(segment));
  if (rows.size() <= pending_evicted_.size() &&
      std::equal(rows.begin(), rows.end(), pending_evicted_.begin())) {
    // The same rows, one tier down: the view is unchanged.
    pending_evicted_.erase(pending_evicted_.begin(),
                           pending_evicted_.begin() +
                               static_cast<long>(rows.size()));
    return;
  }
  // Pending changed while the segment was written (overflow, Clear,
  // recovery dedup): the segment brings back rows that had left.
  std::set<const Relation::Row*> flushed;
  for (const Relation::SharedRow& row : rows) flushed.insert(row.get());
  std::erase_if(pending_evicted_, [&flushed](const Relation::SharedRow& row) {
    return flushed.count(row.get()) > 0;
  });
  NewEpochLocked();
}

void Table::AttachSegments(std::vector<columnar::SegmentMeta> segments) {
  std::lock_guard<std::mutex> lock(mu_);
  segments_ = std::move(segments);
  NewEpochLocked();
}

void Table::DropPendingPrefix(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  n = std::min(n, pending_evicted_.size());
  if (n == 0) return;
  pending_evicted_.erase(pending_evicted_.begin(),
                         pending_evicted_.begin() + static_cast<long>(n));
  NewEpochLocked();
}

uint64_t Table::pending_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_dropped_;
}

Relation Table::ScanUnified(const columnar::SegmentCatalog* catalog,
                            const sql::ScanPredicate& predicate,
                            sql::ScanStats* stats) const {
  // The three tiers are fixed in one critical section; only the
  // immutable segment files are read after it.
  std::vector<columnar::SegmentMeta> segments;
  Relation::RowList recent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog != nullptr) segments = segments_;
    if (stats != nullptr) {
      stats->pending_rows += static_cast<int64_t>(pending_evicted_.size());
      stats->memory_rows += static_cast<int64_t>(rows_.size());
      stats->version = version_;
    }
    recent.reserve(pending_evicted_.size() + rows_.size());
    recent.insert(recent.end(), pending_evicted_.begin(),
                  pending_evicted_.end());
    for (const Entry& e : rows_) recent.push_back(e.row);
  }
  if (segments.empty()) return Relation(row_schema_, std::move(recent));
  // Cold tier first: segments are strictly older than anything still
  // pending or live, so appending tiers in order keeps the relation
  // oldest-first end to end.
  Relation::RowList rows;
  Status scanned =
      catalog->ScanSegments(segments, row_schema_, predicate, &rows, stats);
  if (!scanned.ok()) {
    GSN_LOG(kWarn, "storage") << "segment scan failed for " << name_ << ": "
                              << scanned.ToString();
  }
  rows.insert(rows.end(), std::make_move_iterator(recent.begin()),
              std::make_move_iterator(recent.end()));
  return Relation(row_schema_, std::move(rows));
}

size_t Table::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

size_t Table::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return approx_bytes_;
}

void Table::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  pending_evicted_.clear();
  approx_bytes_ = 0;
  sorted_ = true;
  NewEpochLocked();
}

Result<Table*> TableManager::CreateTable(const std::string& name,
                                         Schema element_schema,
                                         WindowSpec retention) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = StrToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table =
      std::make_unique<Table>(name, std::move(element_schema), retention);
  Table* ptr = table.get();
  tables_[key] = std::move(table);
  return ptr;
}

Status TableManager::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(StrToLower(name)) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::OK();
}

Result<Table*> TableManager::GetTableHandle(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(StrToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> TableManager::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table->name());
  return out;
}

void TableManager::AttachHistory(const columnar::SegmentCatalog* catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  history_ = catalog;
}

const columnar::SegmentCatalog* TableManager::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

Result<Relation> TableManager::GetTable(const std::string& name) const {
  return GetTableFiltered(name, sql::ScanPredicate{}, nullptr);
}

Result<Relation> TableManager::GetTableFiltered(
    const std::string& name, const sql::ScanPredicate& predicate,
    sql::ScanStats* stats) const {
  Table* table = nullptr;
  const columnar::SegmentCatalog* catalog = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(StrToLower(name));
    if (it == tables_.end()) return Status::NotFound("no such table: " + name);
    table = it->second.get();
    catalog = history_;
  }
  // Without an attached history tier this degenerates to the live
  // window scan tables always served.
  if (catalog == nullptr && stats == nullptr) return table->Scan();
  return table->ScanUnified(catalog, predicate, stats);
}

sql::ViewVersion TableManager::TableVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(StrToLower(name));
  return it == tables_.end() ? sql::ViewVersion{} : it->second->version();
}

}  // namespace gsn::storage
