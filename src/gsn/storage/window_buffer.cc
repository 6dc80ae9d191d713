#include "gsn/storage/window_buffer.h"

#include <algorithm>

namespace gsn::storage {

namespace {

/// `row[slot]`, or NULL for a row too short to have it.
Value SlotValue(const Relation::Row& row, size_t slot) {
  return slot < row.size() ? row[slot] : Value::Null();
}

}  // namespace

void WindowBuffer::Add(StreamElement element) {
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp now = element.timed;
  Entry entry;
  entry.timed = element.timed;
  entry.trace = element.trace;
  entry.row = Relation::RowFromElement(element);
  // In-order arrival appends in O(1); an out-of-order one binary-searches
  // the slot after any equal timestamps (stable — ties keep arrival
  // order) and shifts once.
  size_t at = entries_.size();
  if (!entries_.empty() && entry.timed < entries_.back().timed) {
    at = static_cast<size_t>(
        std::upper_bound(
            entries_.begin(), entries_.end(), entry.timed,
            [](Timestamp t, const Entry& e) { return t < e.timed; }) -
        entries_.begin());
  }
  for (size_t k = 0; k < columns_.size(); ++k) {
    columns_[k].insert(columns_[k].begin() + static_cast<long>(at),
                       SlotValue(*entry.row, column_slots_[k]));
  }
  entries_.insert(entries_.begin() + static_cast<long>(at), std::move(entry));
  EvictLocked(now);
}

void WindowBuffer::EvictLocked(Timestamp now) {
  size_t evict = 0;
  if (spec_.kind == WindowSpec::Kind::kCount) {
    const size_t count = static_cast<size_t>(spec_.count);
    if (entries_.size() > count) evict = entries_.size() - count;
  } else {
    const Timestamp cutoff = now - spec_.duration_micros;
    while (evict < entries_.size() && entries_[evict].timed <= cutoff) {
      ++evict;
    }
  }
  if (evict == 0) return;
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<long>(evict));
  for (std::deque<Value>& column : columns_) {
    column.erase(column.begin(), column.begin() + static_cast<long>(evict));
  }
}

size_t WindowBuffer::LiveBeginLocked(Timestamp now) const {
  if (spec_.kind == WindowSpec::Kind::kCount) return 0;
  const Timestamp cutoff = now - spec_.duration_micros;
  // Entries are kept timestamp-ordered by Add, so the live window is
  // always the suffix with timed > cutoff, found by binary search.
  return static_cast<size_t>(
      std::partition_point(
          entries_.begin(), entries_.end(),
          [cutoff](const Entry& e) { return e.timed <= cutoff; }) -
      entries_.begin());
}

Relation::RowList WindowBuffer::SnapshotRowsLocked(Timestamp now) const {
  Relation::RowList out;
  const size_t first = LiveBeginLocked(now);
  out.reserve(entries_.size() - first);
  for (size_t i = first; i < entries_.size(); ++i) {
    out.push_back(entries_[i].row);
  }
  return out;
}

const std::deque<Value>& WindowBuffer::ColumnLocked(size_t slot) const {
  for (size_t k = 0; k < column_slots_.size(); ++k) {
    if (column_slots_[k] == slot) return columns_[k];
  }
  std::deque<Value> column;
  for (const Entry& e : entries_) column.push_back(SlotValue(*e.row, slot));
  column_slots_.push_back(slot);
  columns_.push_back(std::move(column));
  return columns_.back();
}

Result<Relation> WindowBuffer::Answer(const sql::IncrementalPlan& plan,
                                      Timestamp now) const {
  std::vector<sql::Fold> folds;
  int64_t rows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t first = LiveBeginLocked(now);
    if (plan.shape == sql::IncrementalPlan::Shape::kNewestRow) {
      if (first == entries_.size()) return plan.NewestRowAnswer(nullptr);
      size_t newest = entries_.size() - 1;
      while (newest > first &&
             entries_[newest - 1].timed == entries_[newest].timed) {
        --newest;
      }
      return plan.NewestRowAnswer(entries_[newest].row);
    }
    folds = plan.NewFolds();
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      if (plan.aggregates[a].count_star) continue;
      const std::deque<Value>& column =
          ColumnLocked(plan.aggregates[a].slot);
      for (size_t i = first; i < column.size(); ++i) folds[a].Add(column[i]);
    }
    rows = static_cast<int64_t>(entries_.size() - first);
  }
  return plan.AggregateAnswer(folds, rows);
}

Relation::RowList WindowBuffer::SnapshotRows(Timestamp now) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotRowsLocked(now);
}

Relation WindowBuffer::SnapshotRelation(Timestamp now,
                                        const Schema& element_schema) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Relation(element_schema.WithTimedField(), SnapshotRowsLocked(now));
}

std::vector<StreamElement> WindowBuffer::Snapshot(Timestamp now) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out;
  out.reserve(entries_.size());
  const Timestamp cutoff = now - spec_.duration_micros;
  for (const Entry& e : entries_) {
    if (spec_.kind == WindowSpec::Kind::kTime && e.timed <= cutoff) continue;
    StreamElement element;
    element.timed = e.timed;
    element.trace = e.trace;
    // Stored rows are [timed, values...]; strip the implicit column.
    element.values.assign(e.row->begin() + 1, e.row->end());
    out.push_back(std::move(element));
  }
  return out;
}

size_t WindowBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void WindowBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  for (std::deque<Value>& column : columns_) column.clear();
}

}  // namespace gsn::storage
