#ifndef GSN_NETWORK_SIMULATOR_H_
#define GSN_NETWORK_SIMULATOR_H_

#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "gsn/network/transport.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"
#include "gsn/util/result.h"
#include "gsn/util/rng.h"

namespace gsn::network {

/// In-process network between containers, standing in for the TCP/HTTP
/// links of a real GSN deployment (substitution documented in
/// DESIGN.md; EpollTransport is the real-socket sibling). A lossless
/// virtual-time fabric: messages experience configurable latency and
/// jitter, and delivery happens when the owner pumps DeliverUntil(now),
/// which makes multi-node experiments fully deterministic. Faults are
/// not the simulator's business: each node registers through its own
/// ChaosTransport, whose rules drop, partition, or cut its links
/// (docs/CHAOS.md), and ScheduleAt times those rule changes.
///
/// Thread-safe.
class NetworkSimulator : public Transport {
 public:
  struct LinkConfig {
    Timestamp base_latency_micros = 2 * kMicrosPerMilli;
    Timestamp jitter_micros = 0;  // uniform in [0, jitter]
  };

  /// Point-in-time view assembled from the registered metrics (kept as
  /// the pre-telemetry API).
  struct Stats {
    int64_t sent = 0;
    int64_t delivered = 0;
    int64_t dropped = 0;  // addressed to a node that departed in flight
    int64_t bytes_sent = 0;
  };

  /// Traffic telemetry (send/deliver/drop counters, simulated delivery
  /// latency) registers in `metrics`; a private registry is created
  /// when none is injected. The latency histogram observes
  /// `deliver_at - sent_at`, which is deterministic under virtual time.
  explicit NetworkSimulator(uint64_t seed = 1,
                            telemetry::MetricRegistry* metrics = nullptr);

  NetworkSimulator(const NetworkSimulator&) = delete;
  NetworkSimulator& operator=(const NetworkSimulator&) = delete;

  /// Attaches a node under `node_id`. Fails on duplicates.
  Status RegisterNode(const std::string& node_id, NetworkNode* node) override;
  Status UnregisterNode(const std::string& node_id) override;

  /// Default link parameters for all pairs.
  void SetDefaultLink(const LinkConfig& config);
  /// Overrides the link from `from` to `to` (directional).
  void SetLink(const std::string& from, const std::string& to,
               const LinkConfig& config);

  /// Enqueues a message. `now` is the send time; delivery time adds
  /// latency + jitter. Unknown destinations are an error.
  Status Send(Timestamp now, const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override;

  /// Broadcasts to every registered node except `from`.
  Status Broadcast(Timestamp now, const std::string& from,
                   const std::string& topic,
                   const std::string& payload) override;

  /// Delivers every queued message with deliver_at <= now, in delivery
  /// time order. Handlers may send more messages; those are delivered
  /// too if due. Scheduled actions due by `now` run interleaved in time
  /// order. Returns the number of messages delivered.
  int DeliverUntil(Timestamp now);

  /// DeliverUntil under the name the harnesses use: whoever owns the
  /// simulator pumps its deferred delivery between rounds.
  int Pump(Timestamp now) { return DeliverUntil(now); }
  std::string transport_name() const override { return "simulator"; }

  /// Schedules `action` to run during DeliverUntil once virtual time
  /// reaches `at`, interleaved with message deliveries in time order
  /// (actions run before messages due at the same instant). Actions
  /// may call any simulator method — this is how chaos scripts change
  /// nodes' ChaosTransport rules mid-run deterministically.
  void ScheduleAt(Timestamp at, std::function<void()> action);

  Stats stats() const;

 private:
  struct QueuedMessage {
    Message message;
    uint64_t sequence;  // tie-break for deterministic ordering
    bool operator>(const QueuedMessage& other) const {
      if (message.deliver_at != other.message.deliver_at) {
        return message.deliver_at > other.message.deliver_at;
      }
      return sequence > other.sequence;
    }
  };

  struct ScheduledAction {
    Timestamp at = 0;
    uint64_t sequence = 0;  // FIFO among actions at the same instant
    std::function<void()> action;
  };

  const LinkConfig& LinkFor(const std::string& from,
                            const std::string& to) const;

  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  std::shared_ptr<telemetry::Counter> sent_;
  std::shared_ptr<telemetry::Counter> delivered_;
  std::shared_ptr<telemetry::Counter> dropped_;
  std::shared_ptr<telemetry::Counter> bytes_sent_;
  std::shared_ptr<telemetry::Histogram> delivery_micros_;

  mutable std::mutex mu_;
  Rng rng_;
  LinkConfig default_link_;
  std::map<std::pair<std::string, std::string>, LinkConfig> links_;
  std::map<std::string, NetworkNode*> nodes_;
  std::priority_queue<QueuedMessage, std::vector<QueuedMessage>,
                      std::greater<QueuedMessage>>
      queue_;
  uint64_t sequence_ = 0;
  std::vector<ScheduledAction> actions_;  // sorted by (at, sequence)
  uint64_t action_sequence_ = 0;
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_SIMULATOR_H_
