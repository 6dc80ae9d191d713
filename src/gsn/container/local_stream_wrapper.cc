#include "gsn/container/local_stream_wrapper.h"

namespace gsn::container {

LocalStreamWrapper::LocalStreamWrapper(Schema schema,
                                       std::string producer_name,
                                       std::function<void()> on_arrival)
    : schema_(std::move(schema)),
      producer_name_(std::move(producer_name)),
      on_arrival_(std::move(on_arrival)) {}

Result<std::vector<StreamElement>> LocalStreamWrapper::Poll(Timestamp now) {
  (void)now;  // elements arrive whenever the producer fires
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

void LocalStreamWrapper::Push(StreamElement element) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(element));
    ++received_;
  }
  if (on_arrival_) on_arrival_();
}

void LocalStreamWrapper::PushBatch(const std::vector<StreamElement>& batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const StreamElement& element : batch) {
      queue_.push_back(element);
    }
    received_ += static_cast<int64_t>(batch.size());
  }
  if (on_arrival_) on_arrival_();
}

void LocalStreamWrapper::MarkProducerGone() {
  std::lock_guard<std::mutex> lock(mu_);
  producer_gone_ = true;
}

bool LocalStreamWrapper::producer_gone() const {
  std::lock_guard<std::mutex> lock(mu_);
  return producer_gone_;
}

int64_t LocalStreamWrapper::received_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return received_;
}

}  // namespace gsn::container
