#ifndef GSN_UTIL_LOGGING_H_
#define GSN_UTIL_LOGGING_H_

#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace gsn {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-wide logging configuration. Thread-safe. Sinks to stderr;
/// tests lower or raise the threshold to keep output quiet.
class Logger {
 public:
  static Logger& Instance();

  void set_min_level(LogLevel level);
  LogLevel min_level() const;

  /// Emits one formatted line `[LEVEL] [component] message` if `level`
  /// passes the threshold.
  void Log(LogLevel level, const std::string& component,
           const std::string& message);

  /// Number of messages emitted since process start (for tests).
  long emitted_count() const;

  /// Redirects formatted lines (without trailing newline) to `sink`
  /// instead of stderr; null restores stderr. Tests capture output with
  /// this; it is not a production log-shipping hook.
  void SetSink(std::function<void(const std::string&)> sink);

 private:
  Logger() = default;

  mutable std::mutex mu_;
  LogLevel min_level_ = LogLevel::kWarn;
  long emitted_ = 0;
  std::function<void(const std::string&)> sink_;
};

/// Stream-style helper: GSN_LOG(kInfo, "vsm") << "deployed " << name;
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogMessage() { Logger::Instance().Log(level_, component_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

#define GSN_LOG(level, component) \
  ::gsn::LogMessage(::gsn::LogLevel::level, component)

}  // namespace gsn

#endif  // GSN_UTIL_LOGGING_H_
