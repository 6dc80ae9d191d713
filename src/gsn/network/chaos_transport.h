#ifndef GSN_NETWORK_CHAOS_TRANSPORT_H_
#define GSN_NETWORK_CHAOS_TRANSPORT_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "gsn/network/transport.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"
#include "gsn/util/result.h"

namespace gsn::network {

/// Fault-injecting Transport decorator (docs/CHAOS.md), the one fault
/// fabric: it wraps EpollTransport in a daemon (`gsnd --chaos-seed`)
/// and the lossless NetworkSimulator under virtual time (one decorator
/// per Federation node). Frames crossing the decorator are subjected
/// to per-peer, per-direction rules: drop, duplication, reordering,
/// fixed+jittered delay, bandwidth throttling, full partition, and
/// forced connection resets (via the inner transport's ResetPeer).
///
/// Determinism contract: the drop/dup/reorder/delay decision for the
/// i-th frame on a link is a pure function of (seed, peer, direction,
/// i) — each frame gets its own PRNG stream, so two runs that push the
/// same frame sequence through the same rules see the same fault
/// schedule regardless of thread interleaving. Throttle and reorder
/// *holds* translate into wall-clock waits, so exact delivery instants
/// still depend on the host scheduler; the schedule of which frames
/// are dropped/duplicated/delayed does not. ScheduleDigest() folds the
/// first N per-link decisions into a hash so external harnesses (the
/// chaos soak) can assert two daemons carry identical schedules.
///
/// Outbound rules apply in Send before the inner transport sees the
/// frame; inbound rules apply between the inner transport's delivery
/// and the registered node (RegisterNode interposes a shim). Dropped
/// and partitioned frames report OK — like real packet loss, the
/// sender cannot know, and the resilience layer above must recover.
/// Broadcasts pass through unmodified (per-peer rules have no single
/// peer to key on); the receivers' inbound rules still see them, and
/// bursts (Transport::Burst) are forwarded to the inner transport.
/// Thread-safe; held frames (delay, dup, reorder, throttle) are
/// replayed by one wall-clock scheduler thread, started on the first
/// hold, so drop/partition-only decorators cost no thread.
class ChaosTransport : public Transport {
 public:
  enum class Direction { kIn = 0, kOut = 1 };

  /// One link's fault rule. Probabilities are per frame in [0, 1].
  struct Rule {
    double drop = 0.0;
    double dup = 0.0;
    double reorder = 0.0;  // held back ~25ms so later frames overtake
    double reset = 0.0;    // frame lost + connection forcibly reset
    Timestamp delay_micros = 0;
    Timestamp delay_jitter_micros = 0;  // uniform in [0, jitter)
    int64_t throttle_bytes_per_sec = 0;  // 0 = unthrottled
    bool partitioned = false;

    bool IsDefault() const {
      return drop == 0.0 && dup == 0.0 && reorder == 0.0 && reset == 0.0 &&
             delay_micros == 0 && delay_jitter_micros == 0 &&
             throttle_bytes_per_sec == 0 && !partitioned;
    }
  };

  /// The per-frame fault decision (the deterministic part of the
  /// schedule; throttle waits are load-dependent and excluded).
  struct Decision {
    bool drop = false;
    bool dup = false;
    bool reorder = false;
    bool reset = false;
    Timestamp delay_micros = 0;
  };

  struct RuleEntry {
    std::string peer;
    Direction direction = Direction::kOut;
    Rule rule;
    uint64_t frames = 0;  // frames that consulted this link so far
  };

  struct Counters {
    int64_t dropped = 0;
    int64_t duplicated = 0;
    int64_t reordered = 0;
    int64_t delayed = 0;
    int64_t throttled = 0;
    int64_t partitioned = 0;
    int64_t resets = 0;

    bool operator==(const Counters&) const = default;
  };

  struct Options {
    uint64_t seed = 1;
    /// gsn_chaos_injected_total{fault=...} registers here when set.
    telemetry::MetricRegistry* metrics = nullptr;
  };

  /// Does not own `inner`; `inner` must outlive this decorator.
  explicit ChaosTransport(Transport* inner);
  ChaosTransport(Transport* inner, Options options);
  ~ChaosTransport() override;

  ChaosTransport(const ChaosTransport&) = delete;
  ChaosTransport& operator=(const ChaosTransport&) = delete;

  // -- Transport ------------------------------------------------------------

  Status RegisterNode(const std::string& node_id, NetworkNode* node) override;
  Status UnregisterNode(const std::string& node_id) override;
  Status Send(Timestamp now, const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override;
  Status Broadcast(Timestamp now, const std::string& from,
                   const std::string& topic,
                   const std::string& payload) override;
  std::vector<ConnectionStats> Connections() const override {
    return inner_->Connections();
  }
  ChaosTransport* AsChaos() override { return this; }
  std::string transport_name() const override {
    return "chaos+" + inner_->transport_name();
  }
  void SetErrorCallback(ErrorCallback callback) override {
    inner_->SetErrorCallback(std::move(callback));
  }
  Status ResetPeer(const std::string& peer) override {
    return inner_->ResetPeer(peer);
  }
  void OpenBurst() override { inner_->OpenBurst(); }
  void CloseBurst() override { inner_->CloseBurst(); }

  // -- Chaos control (chaos command, POST /api/v1/chaos) --------------------

  void SetRule(const std::string& peer, Direction direction, const Rule& rule);
  Rule GetRule(const std::string& peer, Direction direction) const;
  /// Removes every rule for `peer`; empty peer clears all rules.
  void ClearRules(const std::string& peer = "");
  /// Restarts the deterministic schedule: new seed, per-link frame
  /// counters back to zero, throttle debt cleared. Rules are kept.
  void Reseed(uint64_t seed);
  uint64_t seed() const;

  std::vector<RuleEntry> Rules() const;
  Counters counters() const;
  Transport* inner() const { return inner_; }

  /// The per-frame decision the schedule assigns to frame
  /// `frame_index` of (peer, direction) under the current seed and
  /// rules — exposed so tests can pin the determinism contract.
  Decision DecisionFor(const std::string& peer, Direction direction,
                       uint64_t frame_index) const;

  /// FNV-1a hash over the configured rules plus each link's decisions
  /// for frames [0, frames_per_link): equal across two instances iff
  /// seed and rules agree, which is what "the same seed reproduces the
  /// same fault schedule" means on a real network.
  uint64_t ScheduleDigest(uint64_t frames_per_link = 64) const;

 private:
  /// Interposed NetworkNode: the inner transport delivers here, and
  /// inbound rules run before the real node sees the message.
  class InboundShim;

  /// Injected-fault kinds, the `fault` label of
  /// gsn_chaos_injected_total.
  enum Fault {
    kDrop,
    kDup,
    kReorder,
    kDelay,
    kThrottle,
    kPartition,
    kReset,
    kFaultKinds
  };

  struct LinkState {
    Rule rule;
    uint64_t frames = 0;
    Timestamp throttle_free_steady = 0;  // token-bucket next-free time
  };

  struct ScheduledAction {
    Timestamp due_steady = 0;
    uint64_t seq = 0;  // FIFO among same-instant actions
    std::function<void()> fn;
    bool operator>(const ScheduledAction& other) const {
      if (due_steady != other.due_steady) {
        return due_steady > other.due_steady;
      }
      return seq > other.seq;
    }
  };

  /// Inbound path: the shim hands every delivery here; rules for
  /// (message.from, kIn) decide its fate before DeliverInbound pushes
  /// it to the registered node.
  void OnInboundMessage(const std::string& node_id, const Message& message);
  void DeliverInbound(const std::string& node_id, const Message& message);

  Decision DecideLocked(const Rule& rule, uint64_t link_hash,
                        uint64_t frame_index) const;
  /// Applies `link`'s rule to a frame of `bytes` bytes; returns false
  /// when the frame is consumed (dropped/partitioned) and otherwise
  /// fills the extra wait before it may proceed.
  bool AdmitFrameLocked(const std::string& peer, Direction direction,
                        size_t bytes, Timestamp steady_now, bool* duplicate,
                        bool* reset, Timestamp* wait_micros);
  /// Queues a held frame, starting the scheduler thread on first use.
  void Schedule(Timestamp due_steady, std::function<void()> fn);
  void SchedulerMain();
  void CountFault(Fault fault);

  Transport* const inner_;

  mutable std::mutex mu_;
  uint64_t seed_;                                    // guarded by mu_
  std::map<std::pair<std::string, int>, LinkState> links_;  // guarded by mu_
  std::map<std::string, std::unique_ptr<InboundShim>> shims_;  // guarded by mu_
  /// Inbound deliveries running outside mu_; UnregisterNode waits on
  /// inbound_done_ for them to finish.
  int inbound_in_flight_ = 0;  // guarded by mu_
  std::condition_variable inbound_done_;

  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::priority_queue<ScheduledAction, std::vector<ScheduledAction>,
                      std::greater<ScheduledAction>>
      scheduled_;        // guarded by sched_mu_
  uint64_t sched_seq_ = 0;  // guarded by sched_mu_
  bool stopping_ = false;   // guarded by sched_mu_
  std::thread scheduler_;   // started under sched_mu_ by Schedule

  std::array<std::atomic<int64_t>, kFaultKinds> injected_{};
  /// gsn_chaos_injected_total{fault} handles, registered once at
  /// construction (null without a registry).
  std::array<std::shared_ptr<telemetry::Counter>, kFaultKinds>
      injected_metrics_;
};

/// Parses Direction from "in" | "out" | "both"-style words; used by
/// the shared chaos command grammar.
const char* DirectionName(ChaosTransport::Direction direction);

/// Executes one line of the chaos vocabulary (docs/CHAOS.md) against
/// the container's ChaosTransport: the per-peer rule grammar
/// (loss/dup/reorder/delay/throttle/partition/heal/reset/seed). It only
/// writes; the read is the `chaos status` / GET /api/v1/chaos resource.
/// Both the `chaos` management command and POST /api/v1/chaos route
/// through here, so virtual-time and real-TCP runs are driven by one
/// grammar. Returns the human-readable confirmation, or
/// InvalidArgument with a usage string (or naming a transport that
/// carries no decorator).
Result<std::string> ExecuteChaosCommand(Transport* transport,
                                        const std::string& args);

}  // namespace gsn::network

#endif  // GSN_NETWORK_CHAOS_TRANSPORT_H_
