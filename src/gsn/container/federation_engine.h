#ifndef GSN_CONTAINER_FEDERATION_ENGINE_H_
#define GSN_CONTAINER_FEDERATION_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/container/integrity.h"
#include "gsn/network/circuit_breaker.h"
#include "gsn/network/directory.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/replay_buffer.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/transport.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/clock.h"
#include "gsn/util/rng.h"

namespace gsn::container {

/// One node's half of the GSN peer-to-peer protocol (paper §4,
/// docs/FEDERATION.md): the directory replica that `wrapper="remote"`
/// and `wrapper="local"` sources resolve through, and resilient
/// delivery between producers and consumers (sequenced, signed,
/// replay-buffered deliveries; NACK repair; retries; heartbeat-fed
/// circuit breakers with failover; silence rebinds). It is the
/// transport's NetworkNode for its node id; without a transport it is
/// the local replica alone, and Subscribe refuses.
///
/// All protocol state is guarded by one lock (lock="federation"), under
/// which the engine takes only leaf locks and sends nothing; it never
/// calls into its container, so it cannot reach a shard lock
/// (docs/CONCURRENCY.md).
class FederationEngine : public network::NetworkNode {
 public:
  // Protocol timings. Retries back off per network::RetryPolicy{} (a
  // source's retry-* predicates override it); breakers use
  // network::CircuitBreaker::Config{}.
  static constexpr Timestamp kHeartbeatInterval = kMicrosPerSecond;
  /// Peer silence past this earns one breaker failure per heartbeat.
  static constexpr Timestamp kPeerTimeout = 3 * kMicrosPerSecond;
  static constexpr Timestamp kTipInterval = kMicrosPerSecond;
  /// An acked subscription this silent against a live peer is rebound
  /// under a fresh id (producer subscriber tables are not durable).
  static constexpr Timestamp kSilenceTimeout = 10 * kMicrosPerSecond;
  static constexpr size_t kReplayBufferBytes = 1 << 20;  // per subscriber
  static constexpr int kPublishRounds = 3;  // retries after a deploy
  /// Anti-entropy: own directory entries are broadcast again this often.
  static constexpr Timestamp kAnnounceInterval = 5 * kMicrosPerSecond;

  /// Registers with `network` (null = standalone) under `node_id`;
  /// `seed` drives backoff jitter.
  FederationEngine(std::string node_id, std::shared_ptr<Clock> clock,
                   uint64_t seed, network::Transport* network,
                   const std::string& integrity_key,
                   telemetry::MetricRegistry* metrics,
                   telemetry::Tracer* tracer);
  ~FederationEngine() override;

  FederationEngine(const FederationEngine&) = delete;
  FederationEngine& operator=(const FederationEngine&) = delete;

  /// Adds this node's entry for a deployed sensor to the replica and
  /// broadcasts it, with kPublishRounds retry rounds.
  void Publish(const std::string& sensor_name,
               const std::map<std::string, std::string>& metadata,
               const Schema& output_schema);
  /// Queries the replica by predicate combination.
  std::vector<network::DirectoryEntry> Discover(
      const std::map<std::string, std::string>& query) const;
  /// Broadcasts every entry this node publishes (late joiners, first
  /// contact, anti-entropy). Takes no lock of the engine's.
  void AnnounceAll();

  /// Subscribes a remote source to the first producer matching its
  /// address `predicates` (retry-* keys set its retry policy instead)
  /// whose circuit allows traffic, else the first match, and returns
  /// the wrapper deliveries are pushed into. The caller owns it and
  /// must Forget `deployment_key` (the owning sensor's lowercased name)
  /// before destroying it. `alias` names the source in errors. Pushes
  /// reach the wrapper's sink under this engine's lock (on the transport
  /// thread, or in RunRound), so the sink may take leaf locks only.
  Result<std::unique_ptr<network::RemoteStreamWrapper>> Subscribe(
      const std::string& deployment_key, const std::string& alias,
      const std::map<std::string, std::string>& predicates);
  /// Sequences, signs and replay-buffers one output batch of
  /// `sensor_name` for each remote subscriber, then sends it.
  void Deliver(const std::string& sensor_name,
               const std::vector<StreamElement>& batch);
  /// Drops everything held for the deployment `sensor_name`: its
  /// subscriptions on remote producers (cancelled by broadcast), its
  /// remote subscribers, its publish rounds, and this node's directory
  /// entry (retracted by broadcast). After it returns no Push reaches
  /// the deployment's remote wrappers.
  void Forget(const std::string& sensor_name);
  /// One maintenance round at `now`: anti-entropy, heartbeat, breaker
  /// marks, subscribe/NACK/publish retries, failover, silence rebinds,
  /// and tips.
  void RunRound(Timestamp now);

  /// Health of one known peer (everything this node has heard from).
  struct PeerStatus {
    std::string node_id;
    std::string circuit;  // "closed" | "open" | "half-open"
    Timestamp last_seen = 0;
    int64_t circuit_opened_total = 0;
  };
  std::vector<PeerStatus> PeerStatuses() const;

  /// One remote consumer of a sensor hosted here.
  struct Subscriber {
    std::string sensor_name;
    std::string node_id;
    int64_t replay_bytes = 0;
  };
  std::vector<Subscriber> Subscribers() const;

  /// The engine's lock (lock="federation"), for contention stats.
  const telemetry::TimedMutex& lock() const { return mu_; }

  void OnMessage(const network::Message& message) override;

 private:
  /// Producer half of one subscription.
  struct RemoteSubscriber {
    std::string sensor_name;
    std::string subscriber_node;
    uint64_t next_seq = 1;  // next sequence number to assign
    network::ReplayBuffer replay;
  };

  /// Consumer half of one subscription, bound to the wrapper's
  /// peer_node().
  struct RemoteSubscription {
    network::RemoteStreamWrapper* wrapper = nullptr;  // owned by a sensor
    std::string deployment_key;  // lowercased owning sensor name
    std::map<std::string, std::string> predicates;  // failover query
    network::RetryPolicy retry;
    bool acked = false;
    int subscribe_attempts = 0;
    Timestamp next_subscribe_at = 0;
    /// NACK pacing: attempts count only while the missing set is
    /// static — any progress resets them.
    std::vector<network::SeqRange> last_missing;
    int nack_attempts = 0;
    Timestamp next_nack_at = 0;
    /// Last proof the producer still carries this subscription: an
    /// ack, a delivery that is no duplicate, or a tip at/ahead of our
    /// cursor.
    Timestamp last_activity = 0;
  };

  struct PeerState {
    Timestamp last_seen = 0;
    Timestamp last_failure_mark = 0;
    network::CircuitBreaker breaker;
    std::shared_ptr<telemetry::Gauge> circuit_gauge;
  };

  /// A directory publish still owed retry rounds; the entry itself is
  /// read from the replica when the round comes.
  struct PendingPublish {
    std::string sensor_name;
    int round = 1;
    Timestamp next_at = 0;
  };

  /// A message to send once the lock is released; empty `to` broadcasts.
  struct Outbound {
    std::string to;
    std::string topic;
    std::string payload;
  };

  /// Sends `sends` in order inside one transport burst.
  void Send(Timestamp now, std::vector<Outbound> sends);
  Outbound SubscribeTo(const std::string& peer, const std::string& id,
                       const std::string& sensor) const;
  /// This node's own directory entries matching `query` (Discover
  /// matches node ids case-insensitively; ours match exactly).
  std::vector<network::DirectoryEntry> OwnEntries(
      std::map<std::string, std::string> query) const;
  std::string NextSubscriptionIdLocked();

  /// Records liveness evidence for `from`; true on first contact.
  bool NotePeerAlive(const std::string& from, Timestamp now);
  /// Transport-reported failure (dial, reset, write error).
  void NotePeerError(const std::string& peer, const Status& error);
  PeerState& PeerStateLocked(const std::string& peer, Timestamp now);
  /// Whether traffic to `peer` may flow (circuit closed or probing).
  bool PeerAllowsSendLocked(const std::string& peer, Timestamp now) const;

  /// Rebinds `id` onto another producer matching its predicates and
  /// schema on an allowed peer; without one, restarts its subscribe
  /// cycle in place.
  void TryFailoverLocked(const std::string& id, Timestamp now,
                         std::vector<Outbound>* sends);
  /// Moves subscription `old_id` onto `peer`/`sensor` under a fresh id
  /// with a reset sequence space, queuing the subscribe and a cancel of
  /// `old_id` to `cancel_to` ("" broadcasts). Returns the new id.
  std::string RebindLocked(const std::string& old_id, const std::string& peer,
                           const std::string& sensor,
                           const std::string& cancel_to, Timestamp now,
                           std::vector<Outbound>* sends);

  const std::string node_id_;
  const std::shared_ptr<Clock> clock_;
  network::Transport* const network_;
  telemetry::MetricRegistry* const metrics_;
  telemetry::Tracer* const tracer_;
  const IntegrityService integrity_;
  /// Internally synchronized; a leaf under mu_.
  network::DirectoryService directory_;

  /// lock="federation": guards everything below.
  mutable telemetry::TimedMutex mu_;
  std::map<std::string, RemoteSubscriber> subscribers_;  // by subscription id
  std::map<std::string, RemoteSubscription> subscriptions_;  // by our id
  std::map<std::string, PeerState> peers_;
  std::vector<PendingPublish> pending_publishes_;
  int64_t next_subscription_ = 1;
  Timestamp last_announce_ = 0;
  Timestamp last_heartbeat_ = 0;
  Timestamp last_tip_ = 0;
  uint64_t heartbeat_beat_ = 0;
  Rng rng_;  // backoff jitter

  std::shared_ptr<telemetry::Counter> retries_subscribe_;
  std::shared_ptr<telemetry::Counter> retries_replay_;
  std::shared_ptr<telemetry::Counter> retries_publish_;
  std::shared_ptr<telemetry::Counter> gaps_;
  std::shared_ptr<telemetry::Counter> dups_;
  std::shared_ptr<telemetry::Counter> replays_;
  std::shared_ptr<telemetry::Counter> abandoned_;
  std::shared_ptr<telemetry::Counter> failovers_;
  std::shared_ptr<telemetry::Counter> resubscribes_;
  std::shared_ptr<telemetry::Gauge> replay_bytes_;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_FEDERATION_ENGINE_H_
