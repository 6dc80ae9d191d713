#include "gsn/container/realtime_pump.h"

#include "gsn/util/logging.h"

namespace gsn::container {

RealtimePump::RealtimePump(Container* container, Timestamp interval_micros)
    : container_(container),
      interval_micros_(interval_micros > 0 ? interval_micros
                                           : 100 * kMicrosPerMilli) {}

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
  for (;;) {
    container_->WaitForArrival(interval_micros_, stop_requested_);
    if (stop_requested_.load()) return;
    const Result<int> produced = container_->Tick(interval_micros_);
    if (!produced.ok()) {
      GSN_LOG(kWarn, "pump") << container_->node_id()
                             << ": tick failed: " << produced.status();
    }
    rounds_.fetch_add(1);
  }
}

}  // namespace gsn::container
