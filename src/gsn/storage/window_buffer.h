#ifndef GSN_STORAGE_WINDOW_BUFFER_H_
#define GSN_STORAGE_WINDOW_BUFFER_H_

#include <deque>
#include <mutex>
#include <vector>

#include "gsn/sql/incremental.h"
#include "gsn/types/schema.h"
#include "gsn/util/strings.h"

namespace gsn::storage {

/// Sliding window over a stream (paper §3 item 4: "a windowing
/// mechanism which allows the user to define count- or time-based
/// windows on data streams").
///
/// * Count windows retain the N newest elements by timestamp (equal
///   timestamps keep arrival order).
/// * Time windows retain elements with `timed > now - duration`; expiry
///   is evaluated lazily against the timestamp supplied to Snapshot()
///   (and eagerly on Add, using the new element's timestamp), so the
///   buffer works identically under virtual and wall-clock time.
///
/// Each admitted element is materialized once into a shared row
/// ([timed, values...]); SnapshotRelation() then hands the SQL layer a
/// Relation whose rows are ref-count bumps of the buffered ones, so a
/// snapshot costs O(window) pointer copies instead of a deep copy of
/// every Value. The buffer keeps its entries timestamp-ordered
/// incrementally: in-order Adds (the common case — sources admit in
/// arrival order) append in O(1), out-of-order Adds binary-search
/// their slot and pay one bounded shift, and every snapshot finds the
/// time-window boundary by binary search. Equal timestamps preserve
/// arrival order (stable insert).
///
/// Thread-safe.
class WindowBuffer {
 public:
  explicit WindowBuffer(WindowSpec spec) : spec_(spec) {}

  WindowBuffer(const WindowBuffer&) = delete;
  WindowBuffer& operator=(const WindowBuffer&) = delete;

  /// Inserts an element. Elements are expected in non-decreasing
  /// timestamp order; out-of-order elements are accepted but expire
  /// based on their own timestamps.
  void Add(StreamElement element);

  /// Contents of the window as of `now` (oldest first). For count
  /// windows `now` is ignored. Reconstructs elements from the stored
  /// rows; prefer SnapshotRelation() on hot paths.
  std::vector<StreamElement> Snapshot(Timestamp now) const;

  /// The window contents as shared rows ([timed, values...], oldest
  /// first) — a ref-count bump per row, no Value copies.
  Relation::RowList SnapshotRows(Timestamp now) const;

  /// The window contents as a Relation over `element_schema` prefixed
  /// by `timed`, sharing the buffered rows.
  Relation SnapshotRelation(Timestamp now, const Schema& element_schema) const;

  /// Answers `plan`, compiled against this window's relation, as of
  /// `now` without taking a snapshot: the newest-row shape returns the
  /// first entry of the trailing run of equal newest `timed` inside
  /// `now`'s cut; the aggregate shape folds each argument column over
  /// the live suffix. An argument column is read out of the rows once —
  /// over the buffered rows when a plan first asks for it, then from
  /// each row as it enters — and kept beside them under the window
  /// lock. Equals Executor over SnapshotRelation(now), bit for bit.
  Result<Relation> Answer(const sql::IncrementalPlan& plan,
                          Timestamp now) const;

  /// Number of elements currently buffered (before lazy time expiry).
  size_t size() const;
  void Clear();

  const WindowSpec& spec() const { return spec_; }

 private:
  struct Entry {
    Timestamp timed = 0;
    TraceContext trace;
    Relation::SharedRow row;
  };

  void EvictLocked(Timestamp now);
  /// Index of the first entry inside `now`'s cut.
  size_t LiveBeginLocked(Timestamp now) const;
  Relation::RowList SnapshotRowsLocked(Timestamp now) const;
  /// The kept argument column for row slot `slot`, filled on first use.
  const std::deque<Value>& ColumnLocked(size_t slot) const;

  WindowSpec spec_;
  mutable std::mutex mu_;
  /// Always non-decreasing in timed (maintained on Add), so the
  /// binary-search snapshot path never degrades.
  std::deque<Entry> entries_;
  /// Argument columns of incremental aggregates, parallel to entries_:
  /// columns_[k][i] is entries_[i]'s value at row slot column_slots_[k].
  /// Mutable: Answer() adds a column the first time a plan reads it.
  mutable std::vector<size_t> column_slots_;
  mutable std::vector<std::deque<Value>> columns_;
};

}  // namespace gsn::storage

#endif  // GSN_STORAGE_WINDOW_BUFFER_H_
