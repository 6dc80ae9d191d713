#include "gsn/network/remote_stream_wrapper.h"

#include <algorithm>

namespace gsn::network {

RemoteStreamWrapper::RemoteStreamWrapper(Schema schema, std::string peer_node,
                                         std::string remote_sensor,
                                         std::function<void()> on_arrival)
    : schema_(std::move(schema)),
      on_arrival_(std::move(on_arrival)),
      peer_node_(std::move(peer_node)),
      remote_sensor_(std::move(remote_sensor)) {}

Result<std::vector<StreamElement>> RemoteStreamWrapper::Poll(Timestamp now) {
  (void)now;  // delivery timing is governed by the network simulator
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

RemoteStreamWrapper::PushOutcome RemoteStreamWrapper::Push(
    StreamElement element, uint64_t sequence) {
  PushOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++received_;
    max_seen_ = std::max(max_seen_, sequence);
    if (sequence < expected_seq_ || pending_.count(sequence)) {
      ++duplicates_;
      outcome.duplicate = true;
      return outcome;
    }
    if (sequence != expected_seq_) {
      // Out of order: park until the gap below fills (or is abandoned).
      pending_.emplace(sequence, std::move(element));
      outcome.gap_opened = true;
      return outcome;
    }
    queue_.push_back(std::move(element));
    ++expected_seq_;
    ++admitted_;
    ++outcome.admitted;
    // The arrival may close a gap: drain parked successors.
    outcome.admitted += ReleaseParkedLocked();
  }
  if (on_arrival_) on_arrival_();
  return outcome;
}

int RemoteStreamWrapper::ReleaseParkedLocked() {
  int released = 0;
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == expected_seq_;
       it = pending_.erase(it)) {
    queue_.push_back(std::move(it->second));
    ++expected_seq_;
    ++admitted_;
    ++released;
  }
  return released;
}

void RemoteStreamWrapper::ObserveTip(uint64_t last_sequence) {
  std::lock_guard<std::mutex> lock(mu_);
  max_seen_ = std::max(max_seen_, last_sequence);
}

std::vector<SeqRange> RemoteStreamWrapper::MissingRanges(
    size_t max_ranges) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeqRange> out;
  uint64_t cursor = expected_seq_;
  auto it = pending_.lower_bound(cursor);
  while (cursor <= max_seen_ && out.size() < max_ranges) {
    if (it != pending_.end() && it->first == cursor) {
      ++cursor;  // parked, not missing
      ++it;
      continue;
    }
    // Missing run: up to just before the next parked sequence.
    const uint64_t run_end =
        it == pending_.end() ? max_seen_ : std::min(max_seen_, it->first - 1);
    out.push_back(SeqRange{cursor, run_end});
    cursor = run_end + 1;
  }
  return out;
}

int RemoteStreamWrapper::AbandonMissingThrough(uint64_t through) {
  int abandoned = 0;
  int released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (expected_seq_ <= through) {
      auto it = pending_.find(expected_seq_);
      if (it != pending_.end()) {
        queue_.push_back(std::move(it->second));
        pending_.erase(it);
        ++admitted_;
        ++released;
      } else {
        ++abandoned;
      }
      ++expected_seq_;
    }
    // The abandonment may unblock parked successors beyond `through`.
    released += ReleaseParkedLocked();
    abandoned_ += abandoned;
  }
  if (released > 0 && on_arrival_) on_arrival_();
  return abandoned;
}

void RemoteStreamWrapper::Rebind(std::string peer_node,
                                 std::string remote_sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_node_ = std::move(peer_node);
  remote_sensor_ = std::move(remote_sensor);
  pending_.clear();
  expected_seq_ = 1;
  max_seen_ = 0;
}

std::string RemoteStreamWrapper::peer_node() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peer_node_;
}

std::string RemoteStreamWrapper::remote_sensor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remote_sensor_;
}

int64_t RemoteStreamWrapper::received_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return received_;
}

int64_t RemoteStreamWrapper::admitted_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

int64_t RemoteStreamWrapper::duplicate_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

int64_t RemoteStreamWrapper::abandoned_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abandoned_;
}

uint64_t RemoteStreamWrapper::expected_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_seq_;
}

uint64_t RemoteStreamWrapper::max_seen_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_seen_;
}

}  // namespace gsn::network
