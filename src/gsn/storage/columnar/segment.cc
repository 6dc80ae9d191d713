#include "gsn/storage/columnar/segment.h"

#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "gsn/storage/persistence_log.h"
#include "gsn/types/codec.h"
#include "gsn/util/strings.h"

namespace gsn::storage::columnar {
namespace {

constexpr uint8_t kHeaderRecord = 'H';
constexpr uint8_t kGroupRecord = 'G';
constexpr uint8_t kFooterRecord = 'F';

// -- varint / zigzag --------------------------------------------------------

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(std::string_view data, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::IntegrityError("truncated varint in segment chunk");
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

Result<uint8_t> GetU8(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) {
    return Status::IntegrityError("truncated segment record");
  }
  return static_cast<uint8_t>(data[(*pos)++]);
}

// -- zone maps --------------------------------------------------------------

/// Running min/max over a chunk's non-null values, under the same
/// comparison semantics WHERE uses. Any undecidable comparison (mixed
/// kinds, blobs) invalidates the zone — the chunk is then never pruned.
struct ZoneBuilder {
  bool valid = true;
  bool any = false;
  Value min, max;

  void Update(const Value& v) {
    if (!valid) return;
    if (!any) {
      min = v;
      max = v;
      any = true;
      return;
    }
    std::optional<bool> lt = sql::Truth(sql::BinaryOp::kLess, v, min);
    if (!lt.has_value()) {
      valid = false;
      return;
    }
    if (*lt) min = v;
    std::optional<bool> gt = sql::Truth(sql::BinaryOp::kGreater, v, max);
    if (!gt.has_value()) {
      valid = false;
      return;
    }
    if (*gt) max = v;
  }

  bool has_zone() const { return valid && any; }
};

// -- chunk encode -----------------------------------------------------------

/// Picks the encoding for a column whose non-null values are `values`.
ChunkEncoding ClassifyColumn(const std::vector<const Value*>& values,
                             DataType* kind) {
  bool all_int = true, all_ts = true, all_double = true, all_bool = true,
       all_string = true;
  for (const Value* v : values) {
    all_int &= v->is_int();
    all_ts &= v->is_timestamp();
    all_double &= v->is_double();
    all_bool &= v->is_bool();
    all_string &= v->is_string();
  }
  if (!values.empty() && all_int) {
    *kind = DataType::kInt;
    return ChunkEncoding::kDeltaVarint;
  }
  if (!values.empty() && all_ts) {
    *kind = DataType::kTimestamp;
    return ChunkEncoding::kDeltaVarint;
  }
  if (!values.empty() && all_double) {
    *kind = DataType::kDouble;
    return ChunkEncoding::kRaw;
  }
  if (!values.empty() && all_bool) {
    *kind = DataType::kBool;
    return ChunkEncoding::kRaw;
  }
  if (!values.empty() && all_string) {
    *kind = DataType::kString;
    return ChunkEncoding::kDictionary;
  }
  *kind = DataType::kBinary;  // unused for kGeneric
  return ChunkEncoding::kGeneric;
}

void EncodeChunkData(ChunkEncoding encoding, DataType kind,
                     const std::vector<const Value*>& values,
                     std::string* out) {
  switch (encoding) {
    case ChunkEncoding::kDeltaVarint: {
      int64_t prev = 0;
      for (const Value* v : values) {
        const int64_t x =
            kind == DataType::kTimestamp ? v->timestamp_value()
                                         : v->int_value();
        PutVarint(ZigZag(x - prev), out);
        prev = x;
      }
      return;
    }
    case ChunkEncoding::kRaw: {
      if (kind == DataType::kBool) {
        for (const Value* v : values) {
          out->push_back(v->bool_value() ? 1 : 0);
        }
        return;
      }
      for (const Value* v : values) {
        const double d = v->double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[8];
        std::memcpy(buf, &bits, sizeof(bits));
        out->append(buf, sizeof(buf));
      }
      return;
    }
    case ChunkEncoding::kDictionary: {
      // First-occurrence dictionary, then RLE runs of codes.
      std::map<std::string_view, uint32_t> index;
      std::vector<std::string_view> dict;
      std::vector<uint32_t> codes;
      codes.reserve(values.size());
      for (const Value* v : values) {
        const std::string& s = v->string_value();
        auto [it, inserted] =
            index.emplace(s, static_cast<uint32_t>(dict.size()));
        if (inserted) dict.push_back(s);
        codes.push_back(it->second);
      }
      Codec::EncodeU32(static_cast<uint32_t>(dict.size()), out);
      for (std::string_view s : dict) Codec::EncodeString(s, out);
      for (size_t i = 0; i < codes.size();) {
        size_t run = 1;
        while (i + run < codes.size() && codes[i + run] == codes[i]) ++run;
        PutVarint(codes[i], out);
        PutVarint(run, out);
        i += run;
      }
      return;
    }
    case ChunkEncoding::kGeneric: {
      for (const Value* v : values) Codec::EncodeValue(*v, out);
      return;
    }
  }
}

Status DecodeChunkData(ChunkEncoding encoding, DataType kind,
                       std::string_view data, size_t non_null,
                       std::vector<Value>* out) {
  size_t pos = 0;
  out->clear();
  out->reserve(non_null);  // the caller bounded it by the timed chunk
  switch (encoding) {
    case ChunkEncoding::kDeltaVarint: {
      int64_t acc = 0;
      for (size_t i = 0; i < non_null; ++i) {
        GSN_ASSIGN_OR_RETURN(uint64_t raw, GetVarint(data, &pos));
        acc += UnZigZag(raw);
        out->push_back(kind == DataType::kTimestamp ? Value::TimestampVal(acc)
                                                    : Value::Int(acc));
      }
      break;
    }
    case ChunkEncoding::kRaw: {
      if (kind == DataType::kBool) {
        if (data.size() < non_null) {
          return Status::IntegrityError("truncated bool chunk");
        }
        for (size_t i = 0; i < non_null; ++i) {
          out->push_back(Value::Bool(data[i] != 0));
        }
        pos = non_null;
        break;
      }
      if (data.size() < non_null * 8) {
        return Status::IntegrityError("truncated double chunk");
      }
      for (size_t i = 0; i < non_null; ++i) {
        uint64_t bits;
        std::memcpy(&bits, data.data() + i * 8, sizeof(bits));
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        out->push_back(Value::Double(d));
      }
      pos = non_null * 8;
      break;
    }
    case ChunkEncoding::kDictionary: {
      GSN_ASSIGN_OR_RETURN(uint32_t dict_size, Codec::DecodeU32(data, &pos));
      if (dict_size > (data.size() - pos) / 4) {  // a u32 length per entry
        return Status::IntegrityError(
            "dictionary declares more entries than its chunk holds");
      }
      std::vector<std::string> dict;
      dict.reserve(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        GSN_ASSIGN_OR_RETURN(std::string s, Codec::DecodeString(data, &pos));
        dict.push_back(std::move(s));
      }
      while (out->size() < non_null) {
        GSN_ASSIGN_OR_RETURN(uint64_t code, GetVarint(data, &pos));
        GSN_ASSIGN_OR_RETURN(uint64_t run, GetVarint(data, &pos));
        if (code >= dict.size() || run == 0 ||
            out->size() + run > non_null) {
          return Status::IntegrityError(
              "corrupt dictionary run in segment chunk");
        }
        for (uint64_t i = 0; i < run; ++i) {
          out->push_back(Value::String(dict[code]));
        }
      }
      break;
    }
    case ChunkEncoding::kGeneric: {
      for (size_t i = 0; i < non_null; ++i) {
        GSN_ASSIGN_OR_RETURN(Value v, Codec::DecodeValue(data, &pos));
        out->push_back(std::move(v));
      }
      break;
    }
  }
  return Status::OK();
}

// -- parsed chunk header ----------------------------------------------------

struct ChunkView {
  ChunkEncoding encoding = ChunkEncoding::kGeneric;
  DataType kind = DataType::kBinary;
  uint32_t null_count = 0;
  bool has_zone = false;
  Value zone_min, zone_max;
  std::string_view data;
};

Status ParseChunk(std::string_view payload, size_t* pos, ChunkView* out) {
  GSN_ASSIGN_OR_RETURN(uint8_t encoding, GetU8(payload, pos));
  if (encoding > static_cast<uint8_t>(ChunkEncoding::kGeneric)) {
    return Status::IntegrityError("unknown chunk encoding");
  }
  out->encoding = static_cast<ChunkEncoding>(encoding);
  GSN_ASSIGN_OR_RETURN(uint8_t kind, GetU8(payload, pos));
  out->kind = static_cast<DataType>(kind);
  GSN_ASSIGN_OR_RETURN(out->null_count, Codec::DecodeU32(payload, pos));
  GSN_ASSIGN_OR_RETURN(uint8_t has_zone, GetU8(payload, pos));
  out->has_zone = has_zone != 0;
  if (out->has_zone) {
    GSN_ASSIGN_OR_RETURN(out->zone_min, Codec::DecodeValue(payload, pos));
    GSN_ASSIGN_OR_RETURN(out->zone_max, Codec::DecodeValue(payload, pos));
  }
  GSN_ASSIGN_OR_RETURN(uint32_t data_len, Codec::DecodeU32(payload, pos));
  if (*pos + data_len > payload.size()) {
    return Status::IntegrityError("truncated chunk data");
  }
  out->data = payload.substr(*pos, data_len);
  *pos += data_len;
  return Status::OK();
}

/// Field index → bounds that reference it (by lowercased column name).
std::map<size_t, std::vector<const sql::ScanBound*>> BindBounds(
    const Schema& row_schema, const sql::ScanPredicate& predicate) {
  std::map<size_t, std::vector<const sql::ScanBound*>> out;
  for (const sql::ScanBound& bound : predicate.bounds) {
    Result<size_t> idx = row_schema.IndexOf(bound.column);
    if (idx.ok()) out[*idx].push_back(&bound);
  }
  return out;
}

}  // namespace

std::string EncodeRowAsElement(const Relation::Row& row) {
  StreamElement e;
  if (!row.empty() && row[0].is_timestamp()) {
    e.timed = row[0].timestamp_value();
  }
  e.values.assign(row.begin() + (row.empty() ? 0 : 1), row.end());
  return Codec::EncodeElementToString(e);
}

uint32_t RowsCrc(const Relation::RowList& rows, size_t count) {
  std::string buf;
  for (size_t i = 0; i < count && i < rows.size(); ++i) {
    buf += EncodeRowAsElement(*rows[i]);
  }
  return Crc32(buf.data(), buf.size());
}

Result<EncodedSegment> EncodeSegment(const std::string& table,
                                     const Schema& row_schema,
                                     const Relation::RowList& rows,
                                     size_t rows_per_chunk) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot encode an empty segment");
  }
  if (rows_per_chunk == 0) rows_per_chunk = 1024;
  const size_t fields = row_schema.size();
  for (const Relation::SharedRow& row : rows) {
    if (row == nullptr || row->size() != fields) {
      return Status::InvalidArgument("row arity does not match schema for " +
                                     table);
    }
  }

  EncodedSegment seg;
  seg.row_count = rows.size();
  seg.min_timed = (*rows.front())[0].is_timestamp()
                      ? (*rows.front())[0].timestamp_value()
                      : 0;
  seg.max_timed = seg.min_timed;
  for (const Relation::SharedRow& row : rows) {
    if (!(*row)[0].is_timestamp()) continue;
    const Timestamp t = (*row)[0].timestamp_value();
    if (t < seg.min_timed) seg.min_timed = t;
    if (t > seg.max_timed) seg.max_timed = t;
  }
  seg.rows_crc = RowsCrc(rows, rows.size());

  const uint32_t group_count = static_cast<uint32_t>(
      (rows.size() + rows_per_chunk - 1) / rows_per_chunk);

  std::string header;
  header.push_back(static_cast<char>(kHeaderRecord));
  Codec::EncodeU32(kSegmentVersion, &header);
  Codec::EncodeString(table, &header);
  Codec::EncodeSchema(row_schema, &header);
  Codec::EncodeI64(static_cast<int64_t>(seg.row_count), &header);
  Codec::EncodeI64(seg.min_timed, &header);
  Codec::EncodeI64(seg.max_timed, &header);
  Codec::EncodeU32(group_count, &header);
  seg.contents += FrameLogRecord(header);

  for (size_t start = 0; start < rows.size(); start += rows_per_chunk) {
    const size_t end = std::min(rows.size(), start + rows_per_chunk);
    const size_t n = end - start;
    std::string group;
    group.push_back(static_cast<char>(kGroupRecord));
    Codec::EncodeU32(static_cast<uint32_t>(n), &group);
    Codec::EncodeU32(static_cast<uint32_t>(fields), &group);
    for (size_t f = 0; f < fields; ++f) {
      // Column-wise view of this group's field f.
      std::vector<bool> nulls(n, false);
      std::vector<const Value*> values;
      values.reserve(n);
      ZoneBuilder zone;
      for (size_t i = 0; i < n; ++i) {
        const Value& v = (*rows[start + i])[f];
        if (v.is_null()) {
          nulls[i] = true;
          continue;
        }
        values.push_back(&v);
        zone.Update(v);
      }
      DataType kind;
      const ChunkEncoding encoding = ClassifyColumn(values, &kind);
      const uint32_t null_count = static_cast<uint32_t>(n - values.size());

      group.push_back(static_cast<char>(encoding));
      group.push_back(static_cast<char>(kind));
      Codec::EncodeU32(null_count, &group);
      group.push_back(zone.has_zone() ? 1 : 0);
      if (zone.has_zone()) {
        Codec::EncodeValue(zone.min, &group);
        Codec::EncodeValue(zone.max, &group);
      }
      std::string data;
      if (null_count > 0) {
        std::string bitmap((n + 7) / 8, '\0');
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i]) bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
        }
        data += bitmap;
      }
      EncodeChunkData(encoding, kind, values, &data);
      Codec::EncodeU32(static_cast<uint32_t>(data.size()), &group);
      group += data;
      ++seg.chunk_count;
    }
    seg.contents += FrameLogRecord(group);
  }

  std::string footer;
  footer.push_back(static_cast<char>(kFooterRecord));
  Codec::EncodeI64(static_cast<int64_t>(seg.row_count), &footer);
  Codec::EncodeU32(seg.rows_crc, &footer);
  seg.contents += FrameLogRecord(footer);
  return seg;
}

Result<SegmentHeader> ParseSegmentHeader(std::string_view contents) {
  std::vector<std::string_view> payloads;
  bool torn = false;
  ScanLogRecords(contents, &payloads, &torn);
  if (payloads.empty()) {
    return Status::IntegrityError("segment has no header record");
  }
  std::string_view payload = payloads[0];
  size_t pos = 0;
  SegmentHeader h;
  GSN_ASSIGN_OR_RETURN(uint8_t tag, GetU8(payload, &pos));
  if (tag != kHeaderRecord) {
    return Status::IntegrityError("bad segment header tag");
  }
  GSN_ASSIGN_OR_RETURN(h.version, Codec::DecodeU32(payload, &pos));
  if (h.version != kSegmentVersion) {
    return Status::IntegrityError("unsupported segment version " +
                            std::to_string(h.version));
  }
  GSN_ASSIGN_OR_RETURN(h.table, Codec::DecodeString(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.row_schema, Codec::DecodeSchema(payload, &pos));
  GSN_ASSIGN_OR_RETURN(int64_t row_count, Codec::DecodeI64(payload, &pos));
  h.row_count = static_cast<uint64_t>(row_count);
  GSN_ASSIGN_OR_RETURN(h.min_timed, Codec::DecodeI64(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.max_timed, Codec::DecodeI64(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.group_count, Codec::DecodeU32(payload, &pos));
  return h;
}

bool ValidateSegmentContents(std::string_view contents) {
  Result<SegmentHeader> header = ParseSegmentHeader(contents);
  if (!header.ok()) return false;
  std::vector<std::string_view> payloads;
  bool torn = false;
  ScanLogRecords(contents, &payloads, &torn);
  if (torn) return false;
  // header + groups + footer
  if (payloads.size() != static_cast<size_t>(header->group_count) + 2) {
    return false;
  }
  std::string_view footer = payloads.back();
  size_t pos = 0;
  Result<uint8_t> tag = GetU8(footer, &pos);
  if (!tag.ok() || *tag != kFooterRecord) return false;
  Result<int64_t> rows = Codec::DecodeI64(footer, &pos);
  if (!rows.ok() || static_cast<uint64_t>(*rows) != header->row_count) {
    return false;
  }
  return Codec::DecodeU32(footer, &pos).ok();
}

Status ScanSegmentContents(std::string_view contents, const Schema& row_schema,
                           const sql::ScanPredicate& predicate,
                           Relation::RowList* out, SegmentScanStats* stats) {
  GSN_ASSIGN_OR_RETURN(SegmentHeader header, ParseSegmentHeader(contents));
  if (!(header.row_schema == row_schema)) {
    return Status::IntegrityError("segment schema mismatch for table " +
                            header.table + ": stored " +
                            header.row_schema.ToString() + " vs live " +
                            row_schema.ToString());
  }
  std::vector<std::string_view> payloads;
  bool torn = false;
  ScanLogRecords(contents, &payloads, &torn);
  if (torn || payloads.size() != static_cast<size_t>(header.group_count) + 2) {
    return Status::IntegrityError("segment is torn or incomplete");
  }
  const auto bounds_by_field = BindBounds(row_schema, predicate);
  const size_t fields = row_schema.size();

  std::vector<ChunkView> chunks(fields);
  std::vector<std::vector<Value>> columns(fields);
  std::vector<std::vector<Value>> decoded(fields);
  for (uint32_t g = 0; g < header.group_count; ++g) {
    std::string_view payload = payloads[1 + g];
    size_t pos = 0;
    GSN_ASSIGN_OR_RETURN(uint8_t tag, GetU8(payload, &pos));
    if (tag != kGroupRecord) {
      return Status::IntegrityError("bad group record tag");
    }
    GSN_ASSIGN_OR_RETURN(uint32_t n, Codec::DecodeU32(payload, &pos));
    GSN_ASSIGN_OR_RETURN(uint32_t field_count, Codec::DecodeU32(payload, &pos));
    if (field_count != fields) {
      return Status::IntegrityError("group field count mismatch");
    }
    bool prune = false;
    for (size_t f = 0; f < fields; ++f) {
      GSN_RETURN_IF_ERROR(ParseChunk(payload, &pos, &chunks[f]));
      if (chunks[f].null_count > n) {
        return Status::IntegrityError("chunk has more nulls than rows");
      }
      if (prune || !chunks[f].has_zone) continue;
      auto it = bounds_by_field.find(f);
      if (it == bounds_by_field.end()) continue;
      for (const sql::ScanBound* bound : it->second) {
        if (!sql::RangeMayMatch(chunks[f].zone_min, chunks[f].zone_max,
                                *bound)) {
          // No non-null value in this group can satisfy the conjunct,
          // and NULL rows fail it too: the whole group is dead.
          prune = true;
          break;
        }
      }
    }
    // The timed chunk spends a null-bitmap bit or a data byte on every
    // row, so its bytes bound the row count the decode below trusts.
    if (n / 8 > chunks[0].data.size()) {
      return Status::IntegrityError("group has more rows than its timed chunk");
    }
    if (stats != nullptr) {
      ++stats->groups_total;
      stats->chunks_total += static_cast<int64_t>(fields);
    }
    if (prune) {
      if (stats != nullptr) {
        ++stats->groups_pruned;
        stats->chunks_pruned += static_cast<int64_t>(fields);
      }
      continue;
    }
    for (size_t f = 0; f < fields; ++f) {
      const ChunkView& chunk = chunks[f];
      const size_t non_null = n - chunk.null_count;
      std::string_view data = chunk.data;
      std::string_view bitmap;
      if (chunk.null_count > 0) {
        const size_t bitmap_len = (n + 7) / 8;
        if (data.size() < bitmap_len) {
          return Status::IntegrityError("truncated null bitmap");
        }
        bitmap = data.substr(0, bitmap_len);
        data = data.substr(bitmap_len);
      }
      GSN_RETURN_IF_ERROR(
          DecodeChunkData(chunk.encoding, chunk.kind, data, non_null,
                          &decoded[f]));
      std::vector<Value>& column = columns[f];
      column.clear();
      column.reserve(n);
      size_t next = 0;
      for (uint32_t i = 0; i < n; ++i) {
        const bool is_null =
            chunk.null_count > 0 &&
            (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1;
        if (is_null) {
          column.push_back(Value::Null());
        } else {
          if (next >= decoded[f].size()) {
            return Status::IntegrityError("chunk value underflow");
          }
          column.push_back(std::move(decoded[f][next++]));
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      Relation::Row row;
      row.reserve(fields);
      for (size_t f = 0; f < fields; ++f) row.push_back(columns[f][i]);
      out->push_back(Relation::MakeRow(std::move(row)));
    }
    if (stats != nullptr) stats->rows_decoded += n;
  }
  return Status::OK();
}

}  // namespace gsn::storage::columnar
