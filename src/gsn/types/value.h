#ifndef GSN_TYPES_VALUE_H_
#define GSN_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gsn/util/clock.h"
#include "gsn/util/result.h"

namespace gsn {

/// Column data types available in virtual sensor output structures
/// (paper Fig 1: `<field name="TEMPERATURE" type="integer"/>`). Binary
/// carries opaque payloads such as camera images.
enum class DataType {
  kBool,
  kInt,
  kDouble,
  kString,
  kBinary,
  kTimestamp,
};

/// Stable lowercase name ("integer", "double", ...), as used in
/// deployment descriptors.
const char* DataTypeName(DataType type);

/// Parses a descriptor type name. Accepts GSN-style aliases
/// ("int"/"integer"/"bigint", "double"/"float"/"numeric",
/// "string"/"varchar", "binary"/"blob"/"image", "timestamp"/"time",
/// "bool"/"boolean"). Case-insensitive.
Result<DataType> ParseDataType(std::string_view name);

/// Shared immutable byte payload. Camera images in the Fig 3 workload
/// are tens of KB; sharing avoids copying them through the pipeline.
using Blob = std::shared_ptr<const std::vector<uint8_t>>;

/// Creates a Blob from raw bytes.
Blob MakeBlob(std::vector<uint8_t> bytes);
Blob MakeBlob(std::string_view bytes);

/// A dynamically typed SQL value. Any Value may be NULL. Cheap to copy
/// (strings are small in practice; blobs are shared).
class Value {
 public:
  /// NULL of unspecified type.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Data(v)); }
  static Value Int(int64_t v) { return Value(Data(v)); }
  static Value Double(double v) { return Value(Data(v)); }
  static Value String(std::string v) { return Value(Data(std::move(v))); }
  static Value Binary(Blob v) { return Value(Data(std::move(v))); }
  static Value TimestampVal(Timestamp micros) {
    return Value(Data(Ts{micros}));
  }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_binary() const { return std::holds_alternative<Blob>(data_); }
  bool is_timestamp() const { return std::holds_alternative<Ts>(data_); }
  /// Int, double, or bool (bool coerces to 0/1 in arithmetic).
  bool is_numeric() const { return is_int() || is_double() || is_bool(); }

  /// Accessors; undefined behaviour if the type does not match (check
  /// first or use the As* coercions).
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }
  const Blob& binary_value() const { return std::get<Blob>(data_); }
  Timestamp timestamp_value() const { return std::get<Ts>(data_).micros; }

  /// Numeric coercions. Fail on non-numeric or NULL.
  Result<double> AsDouble() const;
  Result<int64_t> AsInt() const;

  /// The runtime type, if not NULL.
  Result<DataType> type() const;

  /// Converts this value to `target`, applying numeric widening/
  /// narrowing and string formatting/parsing where sensible.
  Result<Value> CastTo(DataType target) const;

  /// SQL-style three-valued comparison is handled by the expression
  /// evaluator; this is a total ordering used for ORDER BY and testing:
  /// NULL < everything; numerics compare by value across int/double/bool;
  /// strings lexicographic; binaries bytewise; timestamps by instant.
  /// Cross-kind comparisons order by type tag. Returns -1/0/+1.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Human-readable rendering (used by logs and the CLI examples).
  std::string ToString() const;

  /// Approximate in-memory size in bytes (payload only), used for
  /// stream-element-size accounting in the Fig 3/Fig 4 workloads.
  size_t PayloadBytes() const;

 private:
  struct Ts {
    Timestamp micros;
  };
  using Data = std::variant<std::monostate, bool, int64_t, double,
                            std::string, Blob, Ts>;
  explicit Value(Data d) : data_(std::move(d)) {}

  Data data_;
};

}  // namespace gsn

#endif  // GSN_TYPES_VALUE_H_
