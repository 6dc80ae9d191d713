#ifndef GSN_SQL_SCAN_PREDICATE_H_
#define GSN_SQL_SCAN_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gsn/sql/ast.h"
#include "gsn/types/value.h"

namespace gsn::sql {

/// One pushable comparison against a base-table column: `column op
/// literal`. Extracted from top-level WHERE conjuncts so storage can
/// skip column chunks whose zone map (min/max) cannot satisfy the
/// bound. Pruning on a conjunct is NULL-safe: a chunk is skipped only
/// when no non-null value can satisfy the bound, and rows where the
/// conjunct evaluates to NULL are dropped by WHERE anyway.
struct ScanBound {
  enum class Op { kEq, kLess, kLessEq, kGreater, kGreaterEq };

  std::string column;  ///< lowercased, unqualified
  Op op = Op::kEq;
  Value value;  ///< non-null literal

  std::string ToString() const;
};

/// The conjunction of pushable bounds for one base-table scan. Empty
/// means "scan everything". Bounds are conservative: storage may
/// ignore any of them; the executor re-applies the full WHERE.
struct ScanPredicate {
  std::vector<ScanBound> bounds;

  bool empty() const { return bounds.empty(); }
  std::string ToString() const;
};

/// How far one table's unified view (segments + pending + live rows)
/// has grown. `epoch` changes whenever the view changes other than by
/// appending rows at its end (a row leaves it, or rows enter anywhere
/// else), and `appended` counts the rows appended since. Epochs are
/// unique process-wide, so a dropped and recreated table never repeats
/// one; epoch 0 means the resolver does not version the table.
struct ViewVersion {
  uint64_t epoch = 0;
  uint64_t appended = 0;

  bool operator==(const ViewVersion&) const = default;
};

/// Counters a storage tier fills in while serving one pruned scan;
/// surfaced through EXPLAIN ANALYZE and the gsn_segment_* metrics.
struct ScanStats {
  int64_t segments_total = 0;    ///< live segments for the table
  int64_t segments_scanned = 0;  ///< segments actually opened
  int64_t chunks_total = 0;      ///< column chunks in consulted segments
  int64_t chunks_pruned = 0;     ///< chunks skipped via zone maps
  int64_t segment_rows = 0;      ///< rows decoded out of segments
  int64_t pending_rows = 0;      ///< evicted-but-unflushed rows served
  int64_t memory_rows = 0;       ///< live window rows served
  ViewVersion version;           ///< the view this scan read

  bool FromSegments() const { return segments_total > 0; }
};

/// Extracts the pushable bounds of `where` for the base table bound to
/// `alias` (the effective FROM alias, lowercased by the caller's
/// convention). Only top-level AND conjuncts of the forms
/// `col <cmp> literal`, `literal <cmp> col`, and non-negated
/// `col BETWEEN lo AND hi` qualify. Unqualified column references are
/// used only when `sole_table` is true (single-table FROM, where every
/// unqualified name must bind to this table); qualified references
/// must match `alias` case-insensitively. Returns an empty predicate
/// when nothing is pushable (including `where == nullptr`).
ScanPredicate ExtractScanPredicate(const Expr* where, const std::string& alias,
                                   bool sole_table);

/// Decides `lhs op rhs` under the executor's comparison semantics;
/// nullopt when it is not decidable (NULL, cross-kind error). Zone maps
/// are built and consulted through it.
std::optional<bool> Truth(BinaryOp op, const Value& lhs, const Value& rhs);

/// True when a chunk with non-null values in [min_value, max_value]
/// may contain a row satisfying `bound`, under the executor's SQL
/// comparison semantics (numeric/timestamp compare as numbers, strings
/// within kind). Conservatively true whenever the comparison is not
/// decidable (cross-kind, invalid zone, errors), and for integral zone
/// edges at or beyond 2^53, which earlier builds compared as doubles.
bool RangeMayMatch(const Value& min_value, const Value& max_value,
                   const ScanBound& bound);

}  // namespace gsn::sql

#endif  // GSN_SQL_SCAN_PREDICATE_H_
