#ifndef GSN_STORAGE_COLUMNAR_SEGMENT_H_
#define GSN_STORAGE_COLUMNAR_SEGMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "gsn/sql/scan_predicate.h"
#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::storage::columnar {

/// Immutable, time-partitioned columnar segment files: the cold tier
/// under each virtual sensor's live window. A segment holds the rows
/// one checkpoint evicted from the retention window, re-organized
/// column-wise so analytical scans touch only the chunks a query's
/// predicates cannot rule out.
///
/// On-disk layout: a sequence of CRC-framed records (the same
/// magic:u8 len:u32 payload crc32:u32 framing as every RecordLog, so a
/// torn tail truncates identically on recovery):
///
///   header record  'H' version:u32 table row-schema row_count:u64
///                  min_timed:i64 max_timed:i64 group_count:u32
///   group record   'G' row_count:u32 field_count:u32 chunk*
///   footer record  'F' row_count:u64 rows_crc:u32
///
/// Each group covers up to rows_per_chunk consecutive rows; each chunk
/// is one field of that group:
///
///   chunk := encoding:u8 kind:u8 null_count:u32
///            has_zone:u8 [min:value max:value]
///            data_len:u32 data
///
/// A chunk's data starts with a null bitmap (ceil(rows/8) bytes, bit i
/// set = row i NULL) when null_count > 0, followed by the non-null
/// values in row order under `encoding`. The zone map is the min/max
/// of the non-null values under the SQL executor's comparison
/// semantics, so zone pruning agrees exactly with WHERE evaluation.
///
/// The footer doubles as the commit marker: a file without an intact
/// footer is an aborted flush and is discarded whole. `rows_crc` (a
/// CRC32 over the rows re-encoded as Codec stream elements) lets
/// recovery detect whether a WAL still holds the rows this segment
/// flushed, deduplicating the window/segment seam after a crash
/// between segment flush and WAL rewrite.
enum class ChunkEncoding : uint8_t {
  kRaw = 0,          ///< fixed-width values back to back (double, bool)
  kDeltaVarint = 1,  ///< zigzag varint deltas (int, timestamp)
  kDictionary = 2,   ///< string dictionary + RLE-compressed codes
  kGeneric = 3,      ///< Codec::EncodeValue per value (binary, mixed)
};

inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr std::string_view kSegmentFileSuffix = ".gsnseg";

/// A fully encoded segment plus the catalog-facing facts about it.
struct EncodedSegment {
  std::string contents;
  uint64_t row_count = 0;
  Timestamp min_timed = 0;
  Timestamp max_timed = 0;
  uint32_t chunk_count = 0;  ///< column chunks across all groups
  uint32_t rows_crc = 0;     ///< CRC32 over Codec-encoded source elements
};

/// The decoded header of a segment file.
struct SegmentHeader {
  uint32_t version = 0;
  std::string table;
  Schema row_schema;
  uint64_t row_count = 0;
  Timestamp min_timed = 0;
  Timestamp max_timed = 0;
  uint32_t group_count = 0;
};

/// Per-scan pruning counters for one segment.
struct SegmentScanStats {
  int64_t chunks_total = 0;
  int64_t chunks_pruned = 0;
  int64_t groups_total = 0;
  int64_t groups_pruned = 0;
  int64_t rows_decoded = 0;
};

/// Encodes `rows` (layout [timed, values...], matching `row_schema`)
/// into a segment for `table`. Rows must be non-empty; they are stored
/// in the order given (checkpoints evict oldest-first, so segments are
/// time-ordered end to end).
Result<EncodedSegment> EncodeSegment(const std::string& table,
                                     const Schema& row_schema,
                                     const Relation::RowList& rows,
                                     size_t rows_per_chunk);

/// Parses and validates the header record.
Result<SegmentHeader> ParseSegmentHeader(std::string_view contents);

/// True iff `contents` is a complete segment: intact header, every
/// group record present, and a footer whose row count matches.
bool ValidateSegmentContents(std::string_view contents);

/// Decodes the rows of `contents` whose groups survive zone-map
/// pruning under `predicate`, appending them (oldest first) to `out`.
/// `row_schema` must equal the stored schema. `stats` may be null.
Status ScanSegmentContents(std::string_view contents, const Schema& row_schema,
                           const sql::ScanPredicate& predicate,
                           Relation::RowList* out, SegmentScanStats* stats);

/// Re-encodes a stored row ([timed, values...]) as the Codec stream
/// element the WAL would hold — the unit `rows_crc` is computed over.
std::string EncodeRowAsElement(const Relation::Row& row);

/// CRC32 over `rows` re-encoded as stream elements (see rows_crc).
uint32_t RowsCrc(const Relation::RowList& rows, size_t count);

}  // namespace gsn::storage::columnar

#endif  // GSN_STORAGE_COLUMNAR_SEGMENT_H_
