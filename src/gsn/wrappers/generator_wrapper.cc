#include "gsn/wrappers/generator_wrapper.h"

#include <cmath>

namespace gsn::wrappers {

Result<std::unique_ptr<Wrapper>> GeneratorWrapper::Make(
    const WrapperConfig& config) {
  GSN_ASSIGN_OR_RETURN(int64_t interval_ms, config.GetInt("interval-ms", 100));
  GSN_ASSIGN_OR_RETURN(
      Timestamp interval,
      config.GetDuration("interval", interval_ms * kMicrosPerMilli));
  GSN_ASSIGN_OR_RETURN(int64_t payload_bytes,
                       config.GetInt("payload-bytes", 15));
  GSN_ASSIGN_OR_RETURN(int64_t value_period,
                       config.GetInt("value-period", 100));
  if (payload_bytes < 0) {
    return Status::InvalidArgument("generator payload-bytes must be >= 0");
  }
  if (value_period <= 0) {
    return Status::InvalidArgument("generator value-period must be > 0");
  }
  return std::unique_ptr<Wrapper>(
      new GeneratorWrapper(interval, static_cast<size_t>(payload_bytes),
                           value_period, config.seed));
}

GeneratorWrapper::GeneratorWrapper(Timestamp interval, size_t payload_bytes,
                                   int64_t value_period, uint64_t seed)
    : PeriodicWrapper(interval),
      payload_bytes_(payload_bytes),
      value_period_(value_period),
      rng_(seed) {
  schema_.AddField("seq", DataType::kInt);
  schema_.AddField("value", DataType::kDouble);
  schema_.AddField("payload", DataType::kBinary);
  // The payload content never changes, only its identity matters for
  // sizing experiments — share one buffer across all elements so a
  // 75 KB x 100 Hz stream does not drown the generator itself.
  std::vector<uint8_t> payload(payload_bytes_);
  for (size_t i = 0; i + 8 <= payload.size(); i += 8) {
    const uint64_t r = rng_.NextUint64();
    for (int b = 0; b < 8; ++b) {
      payload[i + static_cast<size_t>(b)] = static_cast<uint8_t>(r >> (8 * b));
    }
  }
  payload_template_ = MakeBlob(std::move(payload));
}

Result<std::vector<StreamElement>> GeneratorWrapper::EmitAt(Timestamp t) {
  StreamElement e;
  e.timed = t;
  const double phase = 2.0 * M_PI * static_cast<double>(seq_ % value_period_) /
                       static_cast<double>(value_period_);
  e.values = {
      Value::Int(seq_++),
      Value::Double(std::sin(phase)),
      Value::Binary(payload_template_),
  };
  return std::vector<StreamElement>{std::move(e)};
}

}  // namespace gsn::wrappers
