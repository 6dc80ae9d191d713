#include "gsn/container/federation_engine.h"

#include <map>
#include <vector>

#include "gsn/network/protocol.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::container {

using network::DirectoryEntry;
using network::Message;
using network::RemoteStreamWrapper;

FederationEngine::FederationEngine(std::string node_id,
                                   std::shared_ptr<Clock> clock, uint64_t seed,
                                   network::Transport* network,
                                   const std::string& integrity_key,
                                   telemetry::MetricRegistry* metrics,
                                   telemetry::Tracer* tracer)
    : node_id_(std::move(node_id)),
      clock_(std::move(clock)),
      network_(network),
      metrics_(metrics),
      tracer_(tracer),
      integrity_(integrity_key),
      rng_(seed * 65537 + 17) {
  const telemetry::Labels node_label = {{"node", node_id_}};
  mu_.Instrument(metrics_, "federation", node_label);
  const auto retries = [this](const char* kind) {
    return metrics_->GetCounter(
        "gsn_federation_retries_total", {{"node", node_id_}, {"kind", kind}},
        "Federation retry rounds by kind (subscribe/replay/publish)");
  };
  retries_subscribe_ = retries("subscribe");
  retries_replay_ = retries("replay");
  retries_publish_ = retries("publish");
  const auto counter = [&](const char* name, const char* help) {
    return metrics_->GetCounter(name, node_label, help);
  };
  gaps_ = counter("gsn_federation_gaps_total",
                  "Stream deliveries that arrived behind a sequence gap");
  dups_ = counter("gsn_federation_dups_total",
                  "Duplicate stream deliveries dropped by receiver-side dedup");
  replays_ = counter(
      "gsn_federation_replays_total",
      "Deliveries re-sent from replay buffers in response to NACKs");
  abandoned_ = counter(
      "gsn_federation_abandoned_total",
      "Missing sequences given up on after replay retries exhausted");
  failovers_ = counter("gsn_federation_failovers_total",
                       "Remote sources rebound to an alternative producer");
  resubscribes_ = counter(
      "gsn_federation_resubscribes_total",
      "Silent subscriptions re-established on a restarted producer");
  replay_bytes_ = metrics_->GetGauge(
      "gsn_replay_buffer_bytes", node_label,
      "Bytes currently held across producer-side replay buffers");
  if (network_ != nullptr) {
    const Status s = network_->RegisterNode(node_id_, this);
    if (!s.ok()) {
      GSN_LOG(kError, "container")
          << node_id_ << ": network registration failed: " << s;
    }
    // Real transports report per-peer failures (dial errors, resets,
    // write-queue overflows) asynchronously; they trip the breakers
    // from hard evidence, not just heartbeat silence.
    network_->SetErrorCallback(
        [this](const std::string& peer, const Status& error) {
          NotePeerError(peer, error);
        });
  }
}

FederationEngine::~FederationEngine() {
  if (network_ != nullptr) {
    // The transport may outlive the engine (gsnd): no late event-loop
    // callback may reach a destroyed engine.
    network_->SetErrorCallback(nullptr);
    (void)network_->UnregisterNode(node_id_);
  }
}

// -------------------------------------------------------------- Directory

void FederationEngine::Publish(
    const std::string& sensor_name,
    const std::map<std::string, std::string>& metadata,
    const Schema& output_schema) {
  DirectoryEntry entry;
  entry.sensor_name = sensor_name;
  entry.node_id = node_id_;
  entry.predicates = metadata;
  entry.output_schema = output_schema;
  const std::string payload = entry.Encode();
  directory_.Upsert(std::move(entry));
  if (network_ == nullptr) return;
  const Timestamp now = clock_->NowMicros();
  (void)network_->Broadcast(now, node_id_, network::kTopicDirPublish, payload);
  // Retry rounds: a lost broadcast heals long before the next
  // anti-entropy announcement.
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  pending_publishes_.push_back(
      {sensor_name, 1,
       now + network::RetryPolicy{}.BackoffForAttempt(1, &rng_)});
}

std::vector<DirectoryEntry> FederationEngine::Discover(
    const std::map<std::string, std::string>& query) const {
  return directory_.Discover(query);
}

std::vector<DirectoryEntry> FederationEngine::OwnEntries(
    std::map<std::string, std::string> query) const {
  query["node"] = node_id_;
  std::vector<DirectoryEntry> entries = directory_.Discover(query);
  std::erase_if(entries, [this](const DirectoryEntry& entry) {
    return entry.node_id != node_id_;
  });
  return entries;
}

void FederationEngine::AnnounceAll() {
  if (network_ == nullptr) return;
  const Timestamp now = clock_->NowMicros();
  for (const DirectoryEntry& entry : OwnEntries({})) {
    (void)network_->Broadcast(now, node_id_, network::kTopicDirPublish,
                              entry.Encode());
  }
}

// ------------------------------------------------- Deployment-facing calls

FederationEngine::Outbound FederationEngine::SubscribeTo(
    const std::string& peer, const std::string& id,
    const std::string& sensor) const {
  network::SubscribeRequest request;
  request.subscription_id = id;
  request.sensor_name = sensor;
  request.subscriber_node = node_id_;
  return {peer, network::kTopicSubscribe, request.Encode()};
}

std::string FederationEngine::NextSubscriptionIdLocked() {
  return node_id_ + "#" + std::to_string(next_subscription_++);
}

Result<std::unique_ptr<RemoteStreamWrapper>> FederationEngine::Subscribe(
    const std::string& deployment_key, const std::string& alias,
    const std::map<std::string, std::string>& predicates) {
  if (network_ == nullptr) {
    return Status::InvalidArgument(
        "wrapper=\"remote\" requires the container to be attached to a "
        "network");
  }
  wrappers::WrapperConfig retry_config;
  retry_config.instance_name = alias;
  retry_config.params = predicates;
  GSN_ASSIGN_OR_RETURN(
      network::RetryPolicy retry,
      network::RetryPolicy::FromConfig(retry_config, network::RetryPolicy{}));
  std::map<std::string, std::string> query;
  for (const auto& [k, v] : predicates) {
    if (k.rfind("retry-", 0) != 0) query[k] = v;
  }
  const std::vector<DirectoryEntry> matches = directory_.Discover(query);
  if (matches.empty()) {
    return Status::Unavailable(
        "no published virtual sensor matches the address predicates of "
        "source '" +
        alias + "' (deploy the producer first, or check the predicates)");
  }
  const Timestamp now = clock_->NowMicros();
  const DirectoryEntry* entry = &matches.front();
  std::string id;
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    for (const DirectoryEntry& candidate : matches) {
      if (PeerAllowsSendLocked(candidate.node_id, now)) {
        entry = &candidate;
        break;
      }
    }
    id = NextSubscriptionIdLocked();
  }
  Outbound request = SubscribeTo(entry->node_id, id, entry->sensor_name);
  GSN_RETURN_IF_ERROR(network_->Send(now, node_id_, request.to, request.topic,
                                     std::move(request.payload)));

  auto wrapper = std::make_unique<RemoteStreamWrapper>(
      entry->output_schema, entry->node_id, entry->sensor_name);
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  RemoteSubscription& sub = subscriptions_[id];
  sub.wrapper = wrapper.get();
  sub.deployment_key = deployment_key;
  sub.predicates = std::move(query);
  sub.retry = retry;
  sub.subscribe_attempts = 1;  // the send above
  sub.next_subscribe_at = now + sub.retry.BackoffForAttempt(1, &rng_);
  sub.last_activity = now;
  return wrapper;
}

void FederationEngine::Deliver(const std::string& sensor_name,
                               const std::vector<StreamElement>& batch) {
  if (network_ == nullptr) return;
  const Timestamp now = clock_->NowMicros();
  std::vector<Outbound> sends;
  {
    // Sequence assignment is atomic with the replay-buffer write; one
    // sensor's batches are serialized by its tick, so each
    // subscription's sequence is monotone.
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    for (auto& [id, subscriber] : subscribers_) {
      if (!StrEqualsIgnoreCase(subscriber.sensor_name, sensor_name)) continue;
      // An open circuit pauses the sends but not the sequencing: the
      // deliveries wait in the replay buffer for the subscriber's NACK.
      const bool allowed =
          PeerAllowsSendLocked(subscriber.subscriber_node, now);
      for (const StreamElement& element : batch) {
        network::StreamDelivery delivery;
        delivery.subscription_id = id;
        delivery.sensor_name = sensor_name;
        delivery.element = element;
        delivery.signature = integrity_.Sign(sensor_name, element);
        delivery.sequence = subscriber.next_seq++;
        // One "remote.send" span per target; its context rides in the
        // delivery (outside the signed payload) so the receiving node
        // continues the same trace.
        telemetry::Span send(tracer_, "remote.send", element.trace);
        send.set_sensor(sensor_name);
        send.set_node(node_id_);
        delivery.trace = send.context();
        std::string payload = delivery.Encode();
        subscriber.replay.Put(delivery.sequence, payload);
        if (allowed) {
          sends.push_back({subscriber.subscriber_node, network::kTopicStream,
                           std::move(payload)});
        }
      }
    }
  }
  for (Outbound& send : sends) {
    const Status s = network_->Send(now, node_id_, send.to, send.topic,
                                    std::move(send.payload));
    if (!s.ok()) {
      GSN_LOG(kWarn, "container") << sensor_name << ": stream delivery to "
                                  << send.to << " failed: " << s;
    }
  }
}

void FederationEngine::Forget(const std::string& sensor_name) {
  const std::string key = StrToLower(sensor_name);
  std::vector<Outbound> sends;
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
      if (it->second.deployment_key != key) {
        ++it;
        continue;
      }
      // The producer is not known for sure (failover may be in flight);
      // a broadcast cancel is idempotent for ids a node does not hold.
      network::UnsubscribeRequest cancel;
      cancel.subscription_id = it->first;
      sends.push_back({"", network::kTopicUnsubscribe, cancel.Encode()});
      it = subscriptions_.erase(it);
    }
    std::erase_if(subscribers_, [&key](const auto& item) {
      return StrEqualsIgnoreCase(item.second.sensor_name, key);
    });
    std::erase_if(pending_publishes_, [&key](const PendingPublish& pending) {
      return StrEqualsIgnoreCase(pending.sensor_name, key);
    });
    // Retracted in the section that drops the subscribers, so a
    // subscribe request (which checks hosting under this lock) cannot
    // register after it.
    for (const DirectoryEntry& entry : OwnEntries({{"name", key}})) {
      directory_.Remove(node_id_, entry.sensor_name);
      network::DirRemove remove;
      remove.node_id = node_id_;
      remove.sensor_name = entry.sensor_name;
      sends.push_back({"", network::kTopicDirRemove, remove.Encode()});
    }
  }
  if (network_ != nullptr) Send(clock_->NowMicros(), std::move(sends));
}

void FederationEngine::Send(Timestamp now, std::vector<Outbound> sends) {
  if (sends.empty()) return;
  // One burst: a NACK's replays (up to kMaxReplaysPerNack) or a
  // round's traffic leave in one write per peer.
  network::Transport::Burst burst(network_);
  for (Outbound& send : sends) {
    if (send.to.empty()) {
      (void)network_->Broadcast(now, node_id_, send.topic, send.payload);
    } else {
      (void)network_->Send(now, node_id_, send.to, send.topic,
                           std::move(send.payload));
    }
  }
}

// ---------------------------------------------------------------- Messages

void FederationEngine::OnMessage(const Message& message) {
  // Any received message is liveness evidence for its sender: refresh
  // the peer's heartbeat clock and feed its circuit breaker a success.
  if (!message.from.empty() && message.from != node_id_) {
    // First contact: the peer may not have seen our deploy-time
    // directory broadcasts (it started later, or sits behind a
    // forwarder and only now learned our address), so re-announce.
    if (NotePeerAlive(message.from, clock_->NowMicros())) AnnounceAll();
  }
  if (message.topic == network::kTopicHeartbeat) {
    return;  // nothing beyond the liveness note above
  }
  // A node speaks only for itself. Directory entries: ours are written
  // by Publish and Forget alone, and a peer's only by that peer, so a
  // forged entry is never stored (nor re-announced by AnnounceAll). A
  // subscription's messages come from its subscriber or its producer.
  const auto speaks_for = [&](const std::string& node) {
    return node != node_id_ && node == message.from;
  };
  const auto from_producer = [&](const RemoteSubscription& sub) {
    return message.from == sub.wrapper->peer_node();
  };
  const auto from_subscriber = [&](const RemoteSubscriber& subscriber) {
    return message.from == subscriber.subscriber_node;
  };
  if (message.topic == network::kTopicDirPublish) {
    Result<DirectoryEntry> entry = DirectoryEntry::Decode(message.payload);
    if (entry.ok() && speaks_for(entry->node_id)) {
      directory_.Upsert(*std::move(entry));
    }
    return;
  }
  if (message.topic == network::kTopicDirRemove) {
    Result<network::DirRemove> remove =
        network::DirRemove::Decode(message.payload);
    if (remove.ok() && speaks_for(remove->node_id)) {
      directory_.Remove(remove->node_id, remove->sensor_name);
    }
    return;
  }
  if (message.topic == network::kTopicSubscribe) {
    Result<network::SubscribeRequest> request =
        network::SubscribeRequest::Decode(message.payload);
    if (!request.ok() || request->subscriber_node != message.from) return;
    {
      std::lock_guard<telemetry::TimedMutex> lock(mu_);
      // Only sensors this node publishes: an acked subscription to
      // anything else would get tips but never data, and the tips would
      // keep the consumer from ever failing over. Unanswered, its
      // subscribe retries run out instead.
      if (OwnEntries({{"name", request->sensor_name}}).empty()) return;
      // Idempotent: a re-sent request (lost ack) must not reset the
      // sequence counter or drop the replay buffer.
      auto [it, inserted] = subscribers_.try_emplace(request->subscription_id);
      if (inserted) {
        it->second.sensor_name = request->sensor_name;
        it->second.subscriber_node = request->subscriber_node;
        it->second.replay = network::ReplayBuffer(kReplayBufferBytes);
      }
    }
    network::SubscribeAck ack;
    ack.subscription_id = request->subscription_id;
    (void)network_->Send(clock_->NowMicros(), node_id_,
                         request->subscriber_node, network::kTopicSubAck,
                         ack.Encode());
    return;
  }
  if (message.topic == network::kTopicSubAck) {
    Result<network::SubscribeAck> ack =
        network::SubscribeAck::Decode(message.payload);
    if (!ack.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    auto it = subscriptions_.find(ack->subscription_id);
    if (it != subscriptions_.end() && from_producer(it->second)) {
      it->second.acked = true;
      it->second.last_activity = clock_->NowMicros();
    }
    return;
  }
  if (message.topic == network::kTopicStreamTip) {
    Result<network::StreamTip> tip =
        network::StreamTip::Decode(message.payload);
    if (!tip.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    auto it = subscriptions_.find(tip->subscription_id);
    if (it != subscriptions_.end() && from_producer(it->second)) {
      it->second.acked = true;  // a tip implies the producer knows us
      // A tip only proves the subscription is alive when it reaches
      // our cursor: a restarted producer tips its fresh (low) sequence
      // space, and counting that as activity would mask the restart.
      if (tip->last_sequence + 1 >= it->second.wrapper->expected_sequence()) {
        it->second.last_activity = clock_->NowMicros();
      }
      it->second.wrapper->ObserveTip(tip->last_sequence);
    }
    return;
  }
  if (message.topic == network::kTopicStreamNack) {
    Result<network::NackRequest> nack =
        network::NackRequest::Decode(message.payload);
    if (!nack.ok()) return;
    // Serve the replay from the entries buffered inside each range;
    // sequences already evicted stay missing (the subscriber abandons).
    std::vector<Outbound> sends;
    {
      std::lock_guard<telemetry::TimedMutex> lock(mu_);
      auto it = subscribers_.find(nack->subscription_id);
      if (it == subscribers_.end() || !from_subscriber(it->second)) return;
      constexpr size_t kMaxReplaysPerNack = 1024;
      const network::ReplayBuffer& replay = it->second.replay;
      for (const network::SeqRange& range : nack->ranges) {
        const size_t room = kMaxReplaysPerNack - sends.size();
        for (const std::string* p : replay.Range(range.from, range.to, room)) {
          sends.push_back(
              {it->second.subscriber_node, network::kTopicStream, *p});
        }
      }
    }
    if (!sends.empty()) replays_->Increment(static_cast<int64_t>(sends.size()));
    Send(clock_->NowMicros(), std::move(sends));
    return;
  }
  if (message.topic == network::kTopicUnsubscribe) {
    Result<network::UnsubscribeRequest> request =
        network::UnsubscribeRequest::Decode(message.payload);
    if (!request.ok()) return;
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    auto it = subscribers_.find(request->subscription_id);
    if (it != subscribers_.end() && from_subscriber(it->second)) {
      subscribers_.erase(it);
    }
    return;
  }
  if (message.topic == network::kTopicStream) {
    Result<network::StreamDelivery> delivery =
        network::StreamDelivery::Decode(message.payload);
    if (!delivery.ok()) return;
    // Integrity layer: every delivery must carry a signature that
    // verifies, so an unsigned one is dropped like a forged one.
    if (!integrity_.Verify(delivery->sensor_name, delivery->element,
                           delivery->signature)) {
      GSN_LOG(kWarn, "container")
          << node_id_ << ": dropped stream element with bad "
          << "signature from " << message.from;
      return;
    }
    // The Push stays in the lookup's section: Forget erases the
    // subscription under this lock before the sensor owning the wrapper
    // is destroyed, so the wrapper outlives every Push that found it.
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    auto it = subscriptions_.find(delivery->subscription_id);
    if (it == subscriptions_.end() || !from_producer(it->second)) return;
    // A flowing delivery implies the producer registered us even if the
    // explicit ack was lost.
    it->second.acked = true;
    // Restore the producer's trace context so this node's source
    // admission continues the cross-container trace.
    delivery->element.trace = delivery->trace;
    const RemoteStreamWrapper::PushOutcome outcome = it->second.wrapper->Push(
        std::move(delivery->element), delivery->sequence);
    if (outcome.duplicate) dups_->Increment();
    if (outcome.gap_opened) gaps_->Increment();
    // All but pure duplicates below our cursor prove the subscription
    // is live (a restarted producer streams a fresh sequence space that
    // dedups to nothing).
    if (!outcome.duplicate) it->second.last_activity = clock_->NowMicros();
    return;
  }
  GSN_LOG(kWarn, "container")
      << node_id_ << ": unknown topic '" << message.topic << "'";
}

// --------------------------------------------------------------- Resilience

FederationEngine::PeerState& FederationEngine::PeerStateLocked(
    const std::string& peer, Timestamp now) {
  auto [it, inserted] = peers_.try_emplace(peer);
  if (inserted) {
    it->second.last_seen = now;
    it->second.circuit_gauge = metrics_->GetGauge(
        "gsn_circuit_state", {{"node", node_id_}, {"peer", peer}},
        "Per-peer circuit state (0 closed, 1 open, 2 half-open)");
  }
  return it->second;
}

bool FederationEngine::PeerAllowsSendLocked(const std::string& peer,
                                            Timestamp now) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return true;  // no evidence against the peer
  return it->second.breaker.AllowSend(now);
}

bool FederationEngine::NotePeerAlive(const std::string& from, Timestamp now) {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  const bool new_peer = peers_.find(from) == peers_.end();
  PeerState& peer = PeerStateLocked(from, now);
  peer.last_seen = now;
  if (peer.breaker.RecordSuccess()) {
    GSN_LOG(kInfo, "container")
        << node_id_ << ": circuit to " << from << " closed (peer back)";
  }
  peer.circuit_gauge->Set(static_cast<int64_t>(peer.breaker.StateAt(now)));
  return new_peer;
}

void FederationEngine::NotePeerError(const std::string& peer,
                                     const Status& error) {
  if (peer.empty() || peer == node_id_) return;
  const Timestamp now = clock_->NowMicros();
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  // Only peers already tracked: creating breaker state (and a
  // gsn_circuit_state series) for raw "ip:port" ids would leak garbage.
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& state = it->second;
  if (state.breaker.RecordFailure(now)) {
    GSN_LOG(kWarn, "container")
        << node_id_ << ": circuit to " << peer
        << " opened (transport: " << error.message() << ")";
  }
  state.circuit_gauge->Set(static_cast<int64_t>(state.breaker.StateAt(now)));
}

std::string FederationEngine::RebindLocked(const std::string& old_id,
                                           const std::string& peer,
                                           const std::string& sensor,
                                           const std::string& cancel_to,
                                           Timestamp now,
                                           std::vector<Outbound>* sends) {
  auto node = subscriptions_.extract(old_id);
  RemoteSubscription& sub = node.mapped();
  // Fresh sequence space: the new (or restarted) producer numbers from
  // 1, and the old cursor would dedup its stream away.
  sub.wrapper->Rebind(peer, sensor);
  sub.acked = false;
  sub.subscribe_attempts = 1;
  sub.next_subscribe_at = now + sub.retry.BackoffForAttempt(1, &rng_);
  sub.last_missing.clear();
  sub.nack_attempts = 0;
  sub.next_nack_at = 0;
  sub.last_activity = now;
  node.key() = NextSubscriptionIdLocked();
  sends->push_back(SubscribeTo(peer, node.key(), sensor));
  // If the old producer does still hold the subscription, this cancel
  // keeps it from streaming twice.
  network::UnsubscribeRequest cancel;
  cancel.subscription_id = old_id;
  sends->push_back({cancel_to, network::kTopicUnsubscribe, cancel.Encode()});
  return subscriptions_.insert(std::move(node)).position->first;
}

void FederationEngine::TryFailoverLocked(const std::string& id, Timestamp now,
                                         std::vector<Outbound>* sends) {
  RemoteSubscription& sub = subscriptions_.at(id);
  const std::string peer = sub.wrapper->peer_node();
  const std::string schema = sub.wrapper->output_schema().ToString();
  for (const DirectoryEntry& entry : directory_.Discover(sub.predicates)) {
    if (entry.node_id == peer || !PeerAllowsSendLocked(entry.node_id, now) ||
        entry.output_schema.ToString() != schema) {
      continue;
    }
    const std::string new_id = RebindLocked(
        id, entry.node_id, entry.sensor_name, /*cancel_to=*/"", now, sends);
    GSN_LOG(kInfo, "container")
        << node_id_ << ": failing over subscription " << id << " from "
        << peer << " to " << entry.node_id << " (" << entry.sensor_name
        << ") as " << new_id;
    failovers_->Increment();
    return;
  }
  // No alternative producer: keep the subscription and restart the
  // subscribe cycle against the current peer (it may come back).
  sub.acked = false;
  sub.subscribe_attempts = 0;
  sub.next_subscribe_at = now;
}

void FederationEngine::RunRound(Timestamp now) {
  if (network_ == nullptr) return;
  std::vector<Outbound> sends;
  bool announce = false;
  std::vector<std::string> republish;
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    if (now - last_announce_ >= kAnnounceInterval) {
      last_announce_ = now;
      announce = true;
    }
    if (now - last_heartbeat_ >= kHeartbeatInterval) {
      last_heartbeat_ = now;
      network::Heartbeat beat;
      beat.node_id = node_id_;
      beat.beat = ++heartbeat_beat_;
      sends.push_back({"", network::kTopicHeartbeat, beat.Encode()});
    }

    // Silent peers accumulate circuit-breaker failures, one per
    // heartbeat interval past the timeout.
    for (auto& [peer_id, peer] : peers_) {
      if (now - peer.last_seen >= kPeerTimeout &&
          now - peer.last_failure_mark >= kHeartbeatInterval) {
        peer.last_failure_mark = now;
        if (peer.breaker.RecordFailure(now)) {
          GSN_LOG(kWarn, "container")
              << node_id_ << ": circuit to " << peer_id << " opened";
        }
      }
      peer.circuit_gauge->Set(static_cast<int64_t>(peer.breaker.StateAt(now)));
    }

    // Consumer side: subscribe retries, gap repair, failover.
    std::vector<std::string> failover_candidates;
    std::vector<std::string> silent_subscriptions;
    for (auto& [sub_id, sub] : subscriptions_) {
      const std::string peer = sub.wrapper->peer_node();
      auto peer_it = peers_.find(peer);
      const bool peer_open = peer_it != peers_.end() &&
                             peer_it->second.breaker.StateAt(now) ==
                                 network::CircuitBreaker::State::kOpen;
      if (peer_open) {
        failover_candidates.push_back(sub_id);
        continue;
      }
      // Restart detection: the peer answers heartbeats but the stream
      // is silent past the tip cadence — after a producer crash the
      // subscriber table is gone while the redialed link looks
      // healthy, so nothing else would ever repair this subscription.
      // The silence clock only runs against a live peer; while the
      // peer is dark the breaker/failover machinery paces recovery.
      if (sub.acked) {
        const bool peer_alive = peer_it != peers_.end() &&
                                now - peer_it->second.last_seen < kPeerTimeout;
        if (!peer_alive) {
          sub.last_activity = now;
        } else if (now - sub.last_activity >= kSilenceTimeout) {
          silent_subscriptions.push_back(sub_id);
          continue;
        }
      }
      if (!sub.acked) {
        if (now < sub.next_subscribe_at) continue;
        if (sub.retry.Exhausted(sub.subscribe_attempts)) {
          failover_candidates.push_back(sub_id);
          continue;
        }
        ++sub.subscribe_attempts;
        retries_subscribe_->Increment();
        sends.push_back(
            SubscribeTo(peer, sub_id, sub.wrapper->remote_sensor()));
        sub.next_subscribe_at =
            now + sub.retry.BackoffForAttempt(sub.subscribe_attempts, &rng_);
        continue;
      }
      // Gap repair: NACK the missing ranges, pacing attempts only
      // while the missing set makes no progress.
      std::vector<network::SeqRange> missing = sub.wrapper->MissingRanges();
      if (missing.empty()) {
        sub.nack_attempts = 0;
        sub.last_missing.clear();
        continue;
      }
      if (missing != sub.last_missing) {
        sub.last_missing = missing;
        sub.nack_attempts = 0;  // progress — restart the budget
      }
      if (now < sub.next_nack_at) continue;
      if (sub.retry.Exhausted(sub.nack_attempts)) {
        // The producer can no longer replay these (evicted or gone):
        // give the head range up so the stream keeps flowing.
        const int64_t lost =
            sub.wrapper->AbandonMissingThrough(missing.front().to);
        if (lost > 0) {
          abandoned_->Increment(lost);
          GSN_LOG(kWarn, "container")
              << node_id_ << ": abandoned " << lost
              << " irrecoverable deliveries on " << sub_id;
        }
        sub.nack_attempts = 0;
        sub.last_missing.clear();
        continue;
      }
      ++sub.nack_attempts;
      retries_replay_->Increment();
      network::NackRequest nack;
      nack.subscription_id = sub_id;
      nack.ranges = std::move(missing);
      sends.push_back({peer, network::kTopicStreamNack, nack.Encode()});
      sub.next_nack_at =
          now + sub.retry.BackoffForAttempt(sub.nack_attempts, &rng_);
    }
    for (const std::string& sub_id : failover_candidates) {
      TryFailoverLocked(sub_id, now, &sends);
    }
    for (const std::string& sub_id : silent_subscriptions) {
      RemoteStreamWrapper* wrapper = subscriptions_.at(sub_id).wrapper;
      const std::string peer = wrapper->peer_node();
      const std::string new_id = RebindLocked(
          sub_id, peer, wrapper->remote_sensor(), /*cancel_to=*/peer, now,
          &sends);
      GSN_LOG(kWarn, "container")
          << node_id_ << ": subscription " << sub_id
          << " went silent on live peer " << peer
          << " (restarted producer?); resubscribing as " << new_id;
      resubscribes_->Increment();
    }

    // Producer side: periodic delivery high-water marks let the
    // subscriber detect tail loss; also refresh the replay gauge.
    if (now - last_tip_ >= kTipInterval) {
      last_tip_ = now;
      size_t replay_bytes = 0;
      for (const auto& [sub_id, subscriber] : subscribers_) {
        replay_bytes += subscriber.replay.bytes();
        // Tips go out even before the first delivery (last_sequence
        // 0): they are the subscriber's only liveness proof for a
        // quiet stream, and its restart detector keys on their cadence.
        if (!PeerAllowsSendLocked(subscriber.subscriber_node, now)) continue;
        network::StreamTip tip;
        tip.subscription_id = sub_id;
        tip.last_sequence = subscriber.next_seq - 1;
        sends.push_back({subscriber.subscriber_node, network::kTopicStreamTip,
                         tip.Encode()});
      }
      replay_bytes_->Set(static_cast<int64_t>(replay_bytes));
    }

    // Directory-publish retry rounds (Forget purges a retracted
    // sensor's rounds).
    for (auto it = pending_publishes_.begin();
         it != pending_publishes_.end();) {
      if (now < it->next_at) {
        ++it;
        continue;
      }
      republish.push_back(it->sensor_name);
      retries_publish_->Increment();
      ++it->round;
      if (it->round > kPublishRounds) {
        it = pending_publishes_.erase(it);
      } else {
        it->next_at =
            now + network::RetryPolicy{}.BackoffForAttempt(it->round, &rng_);
        ++it;
      }
    }
  }

  // Send order: announcements, heartbeat, the round's traffic, then
  // the publish retries.
  if (announce) AnnounceAll();
  for (const std::string& name : republish) {
    for (const DirectoryEntry& entry : OwnEntries({{"name", name}})) {
      sends.push_back({"", network::kTopicDirPublish, entry.Encode()});
    }
  }
  Send(now, std::move(sends));
}

// ------------------------------------------------------------ Introspection

std::vector<FederationEngine::PeerStatus> FederationEngine::PeerStatuses()
    const {
  const Timestamp now = clock_->NowMicros();
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  std::vector<PeerStatus> out;
  out.reserve(peers_.size());
  for (const auto& [peer_id, peer] : peers_) {
    out.push_back(
        {peer_id, network::CircuitBreaker::StateName(peer.breaker.StateAt(now)),
         peer.last_seen, peer.breaker.opened_total()});
  }
  return out;
}

std::vector<FederationEngine::Subscriber> FederationEngine::Subscribers()
    const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  std::vector<Subscriber> out;
  out.reserve(subscribers_.size());
  for (const auto& [id, subscriber] : subscribers_) {
    out.push_back({subscriber.sensor_name, subscriber.subscriber_node,
                   static_cast<int64_t>(subscriber.replay.bytes())});
  }
  return out;
}

}  // namespace gsn::container
