#ifndef GSN_WRAPPERS_WRAPPER_H_
#define GSN_WRAPPERS_WRAPPER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/types/schema.h"
#include "gsn/util/clock.h"
#include "gsn/util/result.h"

namespace gsn::wrappers {

/// Key/value parameters from the `<address>` element of a stream source
/// (paper Fig 1: `<predicate key="type" val="temperature"/>`), plus the
/// wrapper-specific attributes.
using ParamMap = std::map<std::string, std::string>;

/// Configuration handed to a wrapper factory at deployment time.
///
/// The typed accessors are uniform: every Get* returns the fallback
/// when the key is absent, and a typed parse error *naming the key*
/// when the value is present but malformed — so a descriptor typo
/// surfaces as `param 'interval': not a number ...` instead of a bare
/// parse failure with no context.
struct WrapperConfig {
  std::string instance_name;
  ParamMap params;
  std::shared_ptr<Clock> clock;
  uint64_t seed = 1;
  /// The ready hook: wakes the owning sensor, so its next round polls
  /// this wrapper without waiting for the interval. A wrapper that
  /// learns of data between polls (a serial port, a feed thread) calls
  /// it, only between Start() and Stop(). Empty outside a container.
  std::function<void()> ready;

  /// Returns params[key] or `fallback` (strings never fail to parse).
  std::string Get(const std::string& key, const std::string& fallback) const;
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  /// Accepts true/false, 1/0, yes/no, on/off (case-insensitive).
  Result<bool> GetBool(const std::string& key, bool fallback) const;
  /// Duration with unit suffix ("250ms", "10s", "5m", "1h"); a bare
  /// integer means seconds. `fallback` is in microseconds.
  Result<Timestamp> GetDuration(const std::string& key,
                                Timestamp fallback) const;
};

/// Platform abstraction for one data source (paper §5: "Adding a new
/// type of sensor or sensor network can be done by supplying a ...
/// wrapper conforming to the GSN API"). A wrapper owns its output
/// schema and produces timestamped stream elements.
///
/// Device wrappers are pull-based in this implementation: the input
/// stream manager calls Poll(now) and the wrapper emits every element
/// due at or before `now`. This keeps the whole pipeline deterministic
/// under a VirtualClock; live deployments poll every interval from a
/// pump thread, and sooner when the wrapper calls its ready hook
/// (WrapperConfig::ready). The push sources ("local", "remote") offer
/// their elements straight into the admission queue
/// (StreamSource::Offer), which wakes their sensor; they keep Poll's
/// empty default.
class Wrapper {
 public:
  virtual ~Wrapper() = default;

  Wrapper(const Wrapper&) = delete;
  Wrapper& operator=(const Wrapper&) = delete;

  /// The schema of elements this wrapper produces (without `timed`).
  virtual const Schema& output_schema() const = 0;

  /// Called once before the first Poll. Default: no-op.
  virtual Status Start() { return Status::OK(); }
  /// Called once after the last Poll. Default: no-op.
  virtual void Stop() {}

  /// Emits all elements due at or before `now`, in timestamp order.
  /// Default: nothing, as for a push source.
  virtual Result<std::vector<StreamElement>> Poll(Timestamp /*now*/) {
    return std::vector<StreamElement>{};
  }

  /// Human-readable wrapper type (for the management interface).
  virtual std::string type_name() const = 0;

 protected:
  Wrapper() = default;
};

/// Factory signature: builds a wrapper from its deployment parameters.
using WrapperFactory =
    std::function<Result<std::unique_ptr<Wrapper>>(const WrapperConfig&)>;

/// Registry mapping descriptor wrapper names ("mote", "camera", "rfid",
/// "generator", "csv", "remote") to factories.
///
/// Substitution note (DESIGN.md §3): the Java GSN loads wrapper classes
/// dynamically at runtime; C++ has no portable equivalent, so wrappers
/// self-describe here and are selected by name — deployment descriptors
/// are unchanged, but adding a brand-new wrapper type requires relinking.
class WrapperRegistry {
 public:
  WrapperRegistry() = default;

  WrapperRegistry(const WrapperRegistry&) = delete;
  WrapperRegistry& operator=(const WrapperRegistry&) = delete;

  /// Registers a factory; later registrations replace earlier ones so
  /// tests can stub device wrappers.
  void Register(const std::string& name, WrapperFactory factory);

  /// Instantiates the wrapper `name` (case-insensitive).
  Result<std::unique_ptr<Wrapper>> Create(const std::string& name,
                                          const WrapperConfig& config) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// Registers every built-in device wrapper (mote, camera, rfid,
  /// generator, csv).
  static void RegisterBuiltins(WrapperRegistry* registry);

 private:
  std::map<std::string, WrapperFactory> factories_;  // lowercased names
};

}  // namespace gsn::wrappers

#endif  // GSN_WRAPPERS_WRAPPER_H_
