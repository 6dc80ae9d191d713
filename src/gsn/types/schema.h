#ifndef GSN_TYPES_SCHEMA_H_
#define GSN_TYPES_SCHEMA_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/types/value.h"
#include "gsn/util/result.h"
#include "gsn/util/trace_context.h"

namespace gsn {

/// One column in a stream or relation schema.
struct Field {
  std::string name;
  DataType type = DataType::kInt;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// Name of the implicit timestamp attribute every stream element
/// carries (paper §3: "implicit management of a timestamp attribute").
/// SQL queries can reference it like any other column.
inline constexpr std::string_view kTimedField = "timed";

/// An ordered list of named, typed columns. Column lookup is
/// case-insensitive, matching SQL identifier semantics.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  Schema(const Schema&) = default;
  Schema& operator=(const Schema&) = default;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  const std::vector<Field>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }
  const Field& field(size_t i) const { return fields_[i]; }

  void AddField(std::string name, DataType type) {
    fields_.push_back(Field{std::move(name), type});
  }

  /// Index of the column named `name` (case-insensitive), or error.
  Result<size_t> IndexOf(std::string_view name) const;
  bool Contains(std::string_view name) const;

  /// A schema identical to this one but with `timed` prepended if it is
  /// not already present. Used when materializing stream elements into
  /// SQL-visible windows.
  Schema WithTimedField() const;

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

  /// "name:type, name:type, ..." for diagnostics.
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// A stream element: the paper's "timestamped tuple" (§3). `values`
/// align positionally with the producing sensor's output schema.
struct StreamElement {
  Timestamp timed = 0;
  std::vector<Value> values;
  /// End-to-end trace identity, stamped by the stream source that
  /// admits the element and carried (not persisted, not signed) through
  /// the pipeline and across remote delivery. Invalid = untraced.
  TraceContext trace;

  /// Sum of payload bytes across values (stream element size, SES).
  size_t PayloadBytes() const {
    size_t n = 0;
    for (const Value& v : values) n += v.PayloadBytes();
    return n;
  }
};

/// A materialized relation: the unit the SQL executor consumes and
/// produces ("the resulting sets of relations are unnested into flat
/// relations", paper §3).
///
/// Rows are stored as `shared_ptr<const Row>` so that snapshots of
/// window buffers and storage tables are ref-count bumps rather than
/// deep copies; copying a Relation shares the underlying rows.
/// Mutation of a stored row goes through MutableRow(), which clones
/// only when the row is shared (copy-on-write).
class Relation {
 public:
  using Row = std::vector<Value>;
  using SharedRow = std::shared_ptr<const Row>;
  using RowList = std::vector<SharedRow>;

  /// Read-only random-access view over the shared rows, yielding
  /// `const Row&` so call sites iterate and index exactly as they did
  /// when rows were stored by value. References and row addresses stay
  /// stable for the lifetime of the underlying shared allocations.
  class RowsView {
   public:
    class const_iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = Row;
      using difference_type = std::ptrdiff_t;
      using pointer = const Row*;
      using reference = const Row&;

      const_iterator() = default;
      explicit const_iterator(const SharedRow* p) : p_(p) {}

      reference operator*() const { return **p_; }
      pointer operator->() const { return p_->get(); }
      reference operator[](difference_type n) const { return *p_[n]; }

      const_iterator& operator++() { ++p_; return *this; }
      const_iterator operator++(int) {
        const_iterator t = *this;
        ++p_;
        return t;
      }
      const_iterator& operator--() { --p_; return *this; }
      const_iterator operator--(int) {
        const_iterator t = *this;
        --p_;
        return t;
      }
      const_iterator& operator+=(difference_type n) { p_ += n; return *this; }
      const_iterator& operator-=(difference_type n) { p_ -= n; return *this; }
      friend const_iterator operator+(const_iterator it, difference_type n) {
        it += n; return it;
      }
      friend const_iterator operator+(difference_type n, const_iterator it) {
        it += n; return it;
      }
      friend const_iterator operator-(const_iterator it, difference_type n) {
        it -= n; return it;
      }
      friend difference_type operator-(const const_iterator& a,
                                       const const_iterator& b) {
        return a.p_ - b.p_;
      }
      friend bool operator==(const const_iterator& a, const const_iterator& b) {
        return a.p_ == b.p_;
      }
      friend bool operator!=(const const_iterator& a, const const_iterator& b) {
        return a.p_ != b.p_;
      }
      friend bool operator<(const const_iterator& a, const const_iterator& b) {
        return a.p_ < b.p_;
      }
      friend bool operator>(const const_iterator& a, const const_iterator& b) {
        return a.p_ > b.p_;
      }
      friend bool operator<=(const const_iterator& a, const const_iterator& b) {
        return a.p_ <= b.p_;
      }
      friend bool operator>=(const const_iterator& a, const const_iterator& b) {
        return a.p_ >= b.p_;
      }

     private:
      const SharedRow* p_ = nullptr;
    };

    using iterator = const_iterator;
    using value_type = Row;
    using size_type = size_t;

    explicit RowsView(const RowList* rows) : rows_(rows) {}

    const_iterator begin() const { return const_iterator(rows_->data()); }
    const_iterator end() const {
      return const_iterator(rows_->data() + rows_->size());
    }
    size_t size() const { return rows_->size(); }
    bool empty() const { return rows_->empty(); }
    const Row& operator[](size_t i) const { return *(*rows_)[i]; }
    const Row& front() const { return *rows_->front(); }
    const Row& back() const { return *rows_->back(); }

   private:
    const RowList* rows_;
  };

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Row> rows);
  Relation(Schema schema, RowList rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const Schema& schema() const { return schema_; }
  RowsView rows() const { return RowsView(&rows_); }
  const RowList& shared_rows() const { return rows_; }
  RowList& mutable_shared_rows() { return rows_; }
  const Row& row(size_t i) const { return *rows_[i]; }
  const SharedRow& shared_row(size_t i) const { return rows_[i]; }
  size_t NumRows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row; must match the schema arity.
  Status AddRow(Row row);

  /// Appends without the arity check (executor-internal fast path).
  void AppendRow(Row row) {
    rows_.push_back(std::make_shared<Row>(std::move(row)));
  }
  void AppendSharedRow(SharedRow row) { rows_.push_back(std::move(row)); }

  /// Mutable access to row `i`: clones the row iff it is shared with
  /// another relation, window, or table (copy-on-write).
  Row& MutableRow(size_t i);

  static SharedRow MakeRow(Row row) {
    return std::make_shared<Row>(std::move(row));
  }

  /// Converts a stream element (with its timestamp) into a shared row:
  /// [TimestampVal(timed), values...].
  static SharedRow RowFromElement(const StreamElement& e);

  /// Converts stream elements (with timestamps) into rows of this
  /// relation, whose schema must be element-schema prefixed by `timed`.
  static Relation FromElements(const Schema& element_schema,
                               const std::vector<StreamElement>& elements);

  /// Renders an ASCII table for examples and debugging.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  RowList rows_;
};

}  // namespace gsn

#endif  // GSN_TYPES_SCHEMA_H_
