#include "gsn/network/simulator.h"

#include <algorithm>

namespace gsn::network {

NetworkSimulator::NetworkSimulator(uint64_t seed,
                                   telemetry::MetricRegistry* metrics)
    : rng_(seed) {
  telemetry::MetricRegistry* registry = metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  sent_ = registry->GetCounter("gsn_network_sent_total", {},
                               "Messages submitted to the simulated network");
  delivered_ = registry->GetCounter("gsn_network_delivered_total", {},
                                    "Messages delivered to their node");
  dropped_ = registry->GetCounter(
      "gsn_network_dropped_total", {},
      "Messages addressed to nodes that departed while in flight");
  bytes_sent_ = registry->GetCounter("gsn_network_bytes_sent_total", {},
                                     "Payload bytes submitted");
  delivery_micros_ = registry->GetHistogram(
      "gsn_network_delivery_micros", {},
      "Simulated delivery latency (deliver_at - sent_at)");
}

Status NetworkSimulator::RegisterNode(const std::string& node_id,
                                      NetworkNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_.count(node_id)) {
    return Status::AlreadyExists("node already registered: " + node_id);
  }
  nodes_[node_id] = node;
  return Status::OK();
}

Status NetworkSimulator::UnregisterNode(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_.erase(node_id) == 0) {
    return Status::NotFound("no such node: " + node_id);
  }
  return Status::OK();
}

void NetworkSimulator::SetDefaultLink(const LinkConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  default_link_ = config;
}

void NetworkSimulator::SetLink(const std::string& from, const std::string& to,
                               const LinkConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  links_[{from, to}] = config;
}

const NetworkSimulator::LinkConfig& NetworkSimulator::LinkFor(
    const std::string& from, const std::string& to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_link_ : it->second;
}

void NetworkSimulator::ScheduleAt(Timestamp at, std::function<void()> action) {
  std::lock_guard<std::mutex> lock(mu_);
  ScheduledAction scheduled;
  scheduled.at = at;
  scheduled.sequence = action_sequence_++;
  scheduled.action = std::move(action);
  auto pos = std::upper_bound(
      actions_.begin(), actions_.end(), scheduled,
      [](const ScheduledAction& x, const ScheduledAction& y) {
        return x.at != y.at ? x.at < y.at : x.sequence < y.sequence;
      });
  actions_.insert(pos, std::move(scheduled));
}

Status NetworkSimulator::Send(Timestamp now, const std::string& from,
                              const std::string& to, const std::string& topic,
                              std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!nodes_.count(to)) {
    return Status::NotFound("unknown destination node: " + to);
  }
  sent_->Increment();
  bytes_sent_->Increment(static_cast<int64_t>(payload.size()));
  const LinkConfig& link = LinkFor(from, to);
  QueuedMessage qm;
  qm.message.from = from;
  qm.message.to = to;
  qm.message.topic = topic;
  qm.message.payload = std::move(payload);
  qm.message.sent_at = now;
  qm.message.deliver_at =
      now + link.base_latency_micros +
      (link.jitter_micros > 0
           ? static_cast<Timestamp>(rng_.NextUint64(
                 static_cast<uint64_t>(link.jitter_micros) + 1))
           : 0);
  qm.sequence = sequence_++;
  queue_.push(std::move(qm));
  return Status::OK();
}

Status NetworkSimulator::Broadcast(Timestamp now, const std::string& from,
                                   const std::string& topic,
                                   const std::string& payload) {
  std::vector<std::string> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, node] : nodes_) {
      if (id != from) targets.push_back(id);
    }
  }
  for (const std::string& to : targets) {
    GSN_RETURN_IF_ERROR(Send(now, from, to, topic, payload));
  }
  return Status::OK();
}

int NetworkSimulator::DeliverUntil(Timestamp now) {
  int delivered = 0;
  for (;;) {
    Message message;
    NetworkNode* target = nullptr;
    std::function<void()> action;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool action_due = !actions_.empty() && actions_.front().at <= now;
      const bool message_due =
          !queue_.empty() && queue_.top().message.deliver_at <= now;
      // Interleave scheduled actions with deliveries in global time
      // order; an action due at the same instant as a message runs
      // first (a scripted fault lands before the packet).
      if (action_due &&
          (!message_due ||
           actions_.front().at <= queue_.top().message.deliver_at)) {
        action = std::move(actions_.front().action);
        actions_.erase(actions_.begin());
      } else if (message_due) {
        message = queue_.top().message;
        queue_.pop();
        auto it = nodes_.find(message.to);
        if (it == nodes_.end()) {
          // The node departed while the message was in flight.
          dropped_->Increment();
          continue;
        }
        target = it->second;
        delivered_->Increment();
        delivery_micros_->Observe(message.deliver_at - message.sent_at);
      } else {
        break;
      }
    }
    // Run handlers/actions outside the lock: both commonly call back
    // into the simulator (Send, ScheduleAt, ...).
    if (action) {
      action();
      continue;
    }
    target->OnMessage(message);
    ++delivered;
  }
  return delivered;
}

NetworkSimulator::Stats NetworkSimulator::stats() const {
  Stats stats;
  stats.sent = sent_->Value();
  stats.delivered = delivered_->Value();
  stats.dropped = dropped_->Value();
  stats.bytes_sent = bytes_sent_->Value();
  return stats;
}

}  // namespace gsn::network
