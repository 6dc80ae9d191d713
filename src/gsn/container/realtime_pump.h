#ifndef GSN_CONTAINER_REALTIME_PUMP_H_
#define GSN_CONTAINER_REALTIME_PUMP_H_

#include <atomic>
#include <mutex>
#include <thread>

#include "gsn/container/container.h"

namespace gsn::container {

/// Drives a container from a background thread in wall-clock time —
/// live deployments, as opposed to the deterministic virtual-clock
/// stepping used by tests and benchmarks. The pump calls
/// Container::Tick() every `interval` and, when a transport needs
/// driving (the simulator's deferred queue), also pumps delivery — a
/// no-op on real transports, which deliver from their own event loop.
/// Between those interval rounds it sleeps on the container's wake: a
/// delivery into a wrapper="remote" or "local" source ends the sleep,
/// and the pump runs Container::TickArrivals() at once, so a pushed
/// element does not wait for the next interval (docs/PERFORMANCE.md
/// §7). Wakes that arrive during a round fold into the next one.
///
/// Start/Stop are idempotent; the destructor stops the pump.
class RealtimePump {
 public:
  /// `network` may be null (single-node deployments). The container
  /// must outlive the pump.
  RealtimePump(Container* container, Timestamp interval_micros,
               network::Transport* network = nullptr);
  ~RealtimePump();

  RealtimePump(const RealtimePump&) = delete;
  RealtimePump& operator=(const RealtimePump&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_.load(); }

  /// Completed interval (Tick) rounds since Start; arrival rounds are
  /// counted by gsn_tick_phase_micros{phase="arrival"}.
  int64_t rounds() const { return rounds_.load(); }

 private:
  void Loop();

  Container* container_;
  const Timestamp interval_micros_;
  network::Transport* network_;

  std::mutex mu_;  // serializes Start and Stop
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> rounds_{0};
  /// Read by the loop inside Container::WaitForArrival's predicate.
  std::atomic<bool> stop_requested_{false};
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_REALTIME_PUMP_H_
