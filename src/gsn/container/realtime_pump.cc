#include "gsn/container/realtime_pump.h"

#include <chrono>

#include "gsn/util/logging.h"

namespace gsn::container {

RealtimePump::RealtimePump(Container* container, Timestamp interval_micros,
                           network::Transport* network)
    : container_(container),
      interval_micros_(interval_micros > 0 ? interval_micros
                                           : 100 * kMicrosPerMilli),
      network_(network) {}

RealtimePump::~RealtimePump() { Stop(); }

void RealtimePump::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_.load()) return;
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
}

void RealtimePump::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_.load()) return;
  stop_requested_.store(true);
  container_->InterruptArrivalWait();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

void RealtimePump::Loop() {
  using Steady = std::chrono::steady_clock;
  const auto interval = std::chrono::microseconds(interval_micros_);
  Steady::time_point next_round = Steady::now() + interval;
  for (;;) {
    const bool woken = container_->WaitForArrival(next_round, stop_requested_);
    if (stop_requested_.load()) return;
    if (Steady::now() < next_round) {
      // Between interval rounds: drain only what push sources woke.
      if (woken) container_->TickArrivals();
      continue;
    }
    if (network_ != nullptr) {
      network_->Pump(container_->clock()->NowMicros());
    }
    const Result<int> produced = container_->Tick();
    if (!produced.ok()) {
      GSN_LOG(kWarn, "pump") << container_->node_id()
                             << ": tick failed: " << produced.status();
    }
    rounds_.fetch_add(1);
    next_round = Steady::now() + interval;
  }
}

}  // namespace gsn::container
