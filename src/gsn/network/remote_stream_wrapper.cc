#include "gsn/network/remote_stream_wrapper.h"

#include <algorithm>
#include <limits>

namespace gsn::network {

namespace {

// Sequences count up from 1 and the gap arithmetic runs in int64: a
// sequence past that can only be forged.
constexpr uint64_t kMaxSequence = std::numeric_limits<int64_t>::max();

}  // namespace

RemoteStreamWrapper::RemoteStreamWrapper(Schema schema, std::string peer_node,
                                         std::string remote_sensor)
    : schema_(std::move(schema)),
      peer_node_(std::move(peer_node)),
      remote_sensor_(std::move(remote_sensor)) {}

void RemoteStreamWrapper::AttachSink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

RemoteStreamWrapper::PushOutcome RemoteStreamWrapper::Push(
    StreamElement element, uint64_t sequence) {
  PushOutcome outcome;
  std::lock_guard<std::mutex> lock(mu_);
  ++received_;
  if (sequence < expected_seq_ || sequence > kMaxSequence ||
      pending_.count(sequence)) {
    ++duplicates_;
    outcome.duplicate = true;
    return outcome;
  }
  max_seen_ = std::max(max_seen_, sequence);
  const bool in_order = sequence == expected_seq_;
  // Out of order: park until the gap below fills (or is abandoned).
  // Behind a refusal the gap is repaired by in-order replay instead, so
  // parking would only hoard what the queue has no room for.
  if (!in_order && refusing_) return outcome;
  pending_.emplace(sequence, std::move(element));
  outcome.gap_opened = !in_order;
  if (in_order) {
    outcome.admitted = static_cast<int>(ReleaseLocked(sequence - 1));
  }
  return outcome;
}

size_t RemoteStreamWrapper::ReleaseLocked(uint64_t through) {
  // With the gaps up to `through` given up, the parked entries at or
  // below it and the parked run continuing in order past it are one run.
  std::vector<StreamElement> run;
  uint64_t next = through + 1;
  for (auto it = pending_.begin();
       it != pending_.end() && (it->first <= through || it->first == next);
       it = pending_.erase(it)) {
    if (it->first == next) ++next;
    run.push_back(std::move(it->second));
  }
  const size_t offered = run.size();
  const uint64_t below = offered - (next - through - 1);
  const size_t taken = offered > 0 && sink_ ? sink_(std::move(run)) : 0;
  // The refused rest is neither admitted nor parked: past `through` its
  // sequences stay missing until a NACK has them re-sent, and at or
  // below it they are given up with the gaps around them.
  if (offered > 0) refusing_ = taken < offered;
  const uint64_t taken_below = std::min<uint64_t>(taken, below);
  abandoned_ += static_cast<int64_t>(through + 1 - expected_seq_ - taken_below);
  expected_seq_ = through + 1 + (taken > below ? taken - below : 0);
  admitted_ += static_cast<int64_t>(taken);
  return taken;
}

void RemoteStreamWrapper::ObserveTip(uint64_t last_sequence) {
  std::lock_guard<std::mutex> lock(mu_);
  if (last_sequence <= kMaxSequence) {
    max_seen_ = std::max(max_seen_, last_sequence);
  }
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

int64_t RemoteStreamWrapper::AbandonMissingThrough(uint64_t through) {
  std::lock_guard<std::mutex> lock(mu_);
  if (through < expected_seq_) return 0;
  const int64_t before = abandoned_;
  ReleaseLocked(through);
  return abandoned_ - before;
}

void RemoteStreamWrapper::Rebind(std::string peer_node,
                                 std::string remote_sensor) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_node_ = std::move(peer_node);
  remote_sensor_ = std::move(remote_sensor);
  pending_.clear();
  expected_seq_ = 1;
  max_seen_ = 0;
  refusing_ = false;
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
