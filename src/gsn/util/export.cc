#include "gsn/util/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gsn {

std::string JsonEscape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out += "\"";
  return out;
}

namespace {

std::string ValueToJson(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.bool_value() ? "true" : "false";
  if (v.is_int()) return std::to_string(v.int_value());
  if (v.is_timestamp()) return std::to_string(v.timestamp_value());
  if (v.is_double()) {
    const double d = v.double_value();
    if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
  }
  if (v.is_binary()) {
    return JsonEscape("<binary:" + std::to_string(v.binary_value()->size()) +
                      ">");
  }
  return JsonEscape(v.string_value());
}

std::string CsvCell(const Value& v) {
  std::string raw;
  if (v.is_null()) {
    return "";
  } else if (v.is_binary()) {
    raw = "<binary:" + std::to_string(v.binary_value()->size()) + ">";
  } else {
    raw = v.ToString();
  }
  if (raw.find_first_of(",\"\n\r") == std::string::npos) return raw;
  std::string quoted = "\"";
  for (char c : raw) {
    if (c == '"') quoted += "\"\"";
    else quoted.push_back(c);
  }
  quoted += "\"";
  return quoted;
}

}  // namespace

std::string RelationToJson(const Relation& relation) {
  std::string out = "[";
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    if (r > 0) out += ",";
    out += "{";
    const auto& row = relation.rows()[r];
    for (size_t c = 0; c < relation.schema().size(); ++c) {
      if (c > 0) out += ",";
      out += JsonEscape(relation.schema().field(c).name);
      out += ":";
      out += ValueToJson(row[c]);
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string RelationToCsv(const Relation& relation) {
  std::string out;
  for (size_t c = 0; c < relation.schema().size(); ++c) {
    if (c > 0) out += ",";
    out += relation.schema().field(c).name;
  }
  out += "\n";
  for (const auto& row : relation.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ",";
      out += CsvCell(row[c]);
    }
    out += "\n";
  }
  return out;
}

Result<std::string> AsciiPlot(const Relation& relation,
                              const std::string& value_column, int width,
                              int height) {
  if (width < 8 || height < 2) {
    return Status::InvalidArgument("plot area too small");
  }
  GSN_ASSIGN_OR_RETURN(size_t value_idx,
                       relation.schema().IndexOf(value_column));
  if (relation.empty()) return std::string("(no data)\n");

  // Collect (x, y) points; x = timed column when available.
  Result<size_t> timed_idx = relation.schema().IndexOf(kTimedField);
  std::vector<std::pair<double, double>> points;
  points.reserve(relation.NumRows());
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    const auto& row = relation.rows()[r];
    const Value& v = row[value_idx];
    if (v.is_null()) continue;
    GSN_ASSIGN_OR_RETURN(double y, v.AsDouble());
    double x = static_cast<double>(r);
    if (timed_idx.ok() && !row[*timed_idx].is_null()) {
      GSN_ASSIGN_OR_RETURN(x, row[*timed_idx].AsDouble());
    }
    points.emplace_back(x, y);
  }
  if (points.empty()) return std::string("(no data)\n");
  std::sort(points.begin(), points.end());

  double min_x = points.front().first, max_x = points.back().first;
  double min_y = points[0].second, max_y = points[0].second;
  for (const auto& [x, y] : points) {
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  if (max_x == min_x) max_x = min_x + 1;
  if (max_y == min_y) max_y = min_y + 1;

  std::vector<std::string> grid(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), ' '));
  for (const auto& [x, y] : points) {
    const int col = static_cast<int>((x - min_x) / (max_x - min_x) *
                                     (width - 1));
    const int row = static_cast<int>((y - min_y) / (max_y - min_y) *
                                     (height - 1));
    grid[static_cast<size_t>(height - 1 - row)][static_cast<size_t>(col)] =
        '*';
  }

  char label[64];
  std::string out;
  std::snprintf(label, sizeof(label), "%g", max_y);
  out += std::string(label) + "\n";
  for (const std::string& line : grid) {
    out += "|" + line + "\n";
  }
  std::snprintf(label, sizeof(label), "%g", min_y);
  out += std::string(label) + " +" +
         std::string(static_cast<size_t>(width), '-') + "\n";
  std::snprintf(label, sizeof(label), "x: %g .. %g  (%zu points, column %s)",
                min_x, max_x, points.size(), value_column.c_str());
  out += std::string(label) + "\n";
  return out;
}

std::string EdgesToDot(const std::string& graph_name,
                       const std::vector<GraphEdge>& edges) {
  std::string out = "digraph \"" + graph_name + "\" {\n";
  for (const GraphEdge& edge : edges) {
    out += "  \"" + edge.from + "\" -> \"" + edge.to + "\"";
    if (!edge.label.empty()) {
      out += " [label=\"" + edge.label + "\"]";
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace gsn
