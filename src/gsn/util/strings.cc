#include "gsn/util/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace gsn {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrTrim(std::string_view input) {
  size_t b = 0;
  size_t e = input.size();
  while (b < e && std::isspace(static_cast<unsigned char>(input[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(input[e - 1]))) --e;
  return std::string(input.substr(b, e - b));
}

std::string StrToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string StrToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StrEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StrStartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool StrEndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  const std::string str = StrTrim(s);
  if (str.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(str.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + str);
  }
  if (end != str.c_str() + str.size()) {
    return Status::ParseError("not an integer: " + str);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  const std::string str = StrTrim(s);
  if (str.empty()) return Status::ParseError("empty double");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(str.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("double out of range: " + str);
  if (end != str.c_str() + str.size()) {
    return Status::ParseError("not a double: " + str);
  }
  return v;
}

Result<bool> ParseBool(std::string_view s) {
  const std::string str = StrToLower(StrTrim(s));
  if (str == "true" || str == "1" || str == "yes" || str == "on") return true;
  if (str == "false" || str == "0" || str == "no" || str == "off") return false;
  return Status::ParseError("not a boolean: " + str);
}

Result<Timestamp> ParseDurationMicros(std::string_view s) {
  const std::string str = StrToLower(StrTrim(s));
  if (str.empty()) return Status::ParseError("empty duration");
  size_t unit_pos = str.size();
  while (unit_pos > 0 &&
         !std::isdigit(static_cast<unsigned char>(str[unit_pos - 1]))) {
    --unit_pos;
  }
  const std::string digits = str.substr(0, unit_pos);
  const std::string unit = str.substr(unit_pos);
  GSN_ASSIGN_OR_RETURN(int64_t n, ParseInt64(digits));
  if (n < 0) return Status::ParseError("negative duration: " + str);
  if (unit == "us") return n;
  if (unit == "ms") return n * kMicrosPerMilli;
  if (unit == "s" || unit.empty()) return n * kMicrosPerSecond;
  if (unit == "m" || unit == "min") return n * kMicrosPerMinute;
  if (unit == "h") return n * kMicrosPerHour;
  return Status::ParseError("unknown duration unit '" + unit + "' in " + str);
}

Result<WindowSpec> ParseWindowSpec(std::string_view s) {
  const std::string str = StrToLower(StrTrim(s));
  if (str.empty()) return Status::ParseError("empty window spec");
  // Bare integer => count-based window (paper: count- or time-based
  // windows on data streams, §3 item 4).
  bool all_digits = true;
  for (char c : str) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      all_digits = false;
      break;
    }
  }
  WindowSpec spec;
  if (all_digits) {
    GSN_ASSIGN_OR_RETURN(spec.count, ParseInt64(str));
    if (spec.count <= 0) return Status::ParseError("window count must be > 0");
    spec.kind = WindowSpec::Kind::kCount;
    return spec;
  }
  GSN_ASSIGN_OR_RETURN(spec.duration_micros, ParseDurationMicros(str));
  if (spec.duration_micros <= 0) {
    return Status::ParseError("window duration must be > 0");
  }
  spec.kind = WindowSpec::Kind::kTime;
  return spec;
}

std::string HexEncode(const uint8_t* data, size_t len) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

}  // namespace gsn
