#ifndef GSN_CONTAINER_REALTIME_PUMP_H_
#define GSN_CONTAINER_REALTIME_PUMP_H_

#include <atomic>
#include <mutex>
#include <thread>

#include "gsn/container/container.h"

namespace gsn::container {

/// Drives a container from a background thread in wall-clock time —
/// live deployments, as opposed to the deterministic virtual-clock
/// stepping used by tests and benchmarks. The pump sleeps until
/// `interval` has passed since the end of the last interval round, or
/// until a sensor is woken (an element offered into a wrapper="remote"
/// or "local" source, a requeued tuple, a pull wrapper's ready hook),
/// then runs one Container::Tick(interval) round; the container decides
/// what that round runs (docs/PERFORMANCE.md §7). Wakes that arrive
/// during a round fold into the next one.
///
/// Start/Stop are idempotent; the destructor stops the pump.
class RealtimePump {
 public:
  /// The container must outlive the pump.
  RealtimePump(Container* container, Timestamp interval_micros);
  ~RealtimePump();

  RealtimePump(const RealtimePump&) = delete;
  RealtimePump& operator=(const RealtimePump&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_.load(); }

  /// Completed rounds since Start, interval and wake rounds alike.
  int64_t rounds() const { return rounds_.load(); }

 private:
  void Loop();

  Container* container_;
  const Timestamp interval_micros_;

  std::mutex mu_;  // serializes Start and Stop
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> rounds_{0};
  /// Read by the loop inside Container::WaitForArrival's predicate.
  std::atomic<bool> stop_requested_{false};
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_REALTIME_PUMP_H_
