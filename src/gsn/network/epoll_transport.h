#ifndef GSN_NETWORK_EPOLL_TRANSPORT_H_
#define GSN_NETWORK_EPOLL_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gsn/network/http_server.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/socket_ops.h"
#include "gsn/network/transport.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"
#include "gsn/util/result.h"
#include "gsn/util/rng.h"

namespace gsn::network {

/// The real-socket Transport (docs/TRANSPORT.md): one edge-triggered
/// epoll event loop drives every connection of a process without
/// blocking — the C10k design the paper's "access via the Web" layer
/// needs at scale. Two planes share the loop:
///
///  - Peer plane (`ListenPeer` + `AddPeer`): length-prefixed frames
///    carrying Transport messages between containers. Outbound links
///    dial lazily on first Send and redial on the next Send after a
///    failure; inbound links learn their peer's node id from the first
///    frame, and replies prefer that live connection over dialing back
///    — which is what lets a consumer behind a NAT-style forwarder
///    subscribe to a producer that cannot connect back (the sensd
///    gateway topology).
///  - HTTP plane (`ListenHttp`): incremental HTTP/1.1 parsing with
///    keep-alive and pipelining; the handler runs on the loop thread,
///    so handlers must not block indefinitely (the web interface
///    copies snapshots out and serializes without container locks).
///
/// Backpressure: every connection owns a bounded write queue
/// (`max_write_queue_bytes`). A send that would overflow it closes the
/// connection and counts an overflow — slow readers are disconnected
/// rather than allowed to pin memory, and the federation resilience
/// layer (sequence numbers, NACK/replay) re-delivers what the closed
/// link lost. Idle connections (no bytes either way for
/// `idle_timeout_micros`, which also bounds stalled half-requests) are
/// reaped by a periodic sweep.
///
/// Writes: a connection's queue is one buffer, and a flush writes all
/// of it with one send. A send wakes the loop, except inside a
/// Transport::Burst: then its link is held, and a burst's close hands
/// every held link to the loop with one wake, so a round's frames to
/// one peer leave in one write. A frame that brings a held queue to
/// its bound is written at once by the sending thread, so a burst
/// never overflows a link that is draining.
///
/// Thread-safe; delivery callbacks run on the event-loop thread.
class EpollTransport : public Transport {
 public:
  struct Options {
    /// Per-connection write queue bound: a send finding the queue
    /// already at the bound closes the connection (ResourceExhausted).
    /// One item may exceed the bound, so an oversized response still
    /// reaches a healthy reader.
    size_t max_write_queue_bytes = 4 * 1024 * 1024;
    /// Connections idle this long are closed (0 disables). Also serves
    /// as the read timeout for stalled half-written requests.
    Timestamp idle_timeout_micros = 60 * kMicrosPerSecond;
    /// gsn_transport_* metrics register here when non-null, labelled
    /// {role=<metrics_role>} so a daemon's peer and HTTP transports
    /// stay distinct families.
    telemetry::MetricRegistry* metrics = nullptr;
    std::string metrics_role = "peer";
    /// Syscall seam (docs/CHAOS.md): every accept/connect/recv/send
    /// goes through this, so tests inject EINTR/EAGAIN storms, short
    /// writes, mid-frame resets, and EMFILE. Null uses the real
    /// syscalls; the instance must outlive the transport.
    SocketOps* socket_ops = nullptr;
    /// Non-blocking connects that have not completed within this are
    /// failed (counted as dial failures) and redialed with backoff.
    /// 0 disables the deadline.
    Timestamp connect_timeout_micros = 5 * kMicrosPerSecond;
    /// After EMFILE/ENFILE on accept, the listen fd is unregistered
    /// from epoll and re-armed this much later — pausing accepts
    /// instead of hot-spinning on level-triggered readiness.
    Timestamp accept_rearm_micros = 100 * kMicrosPerMilli;
    /// Automatic redial of failed dial-table peer links: exponential
    /// backoff per RetryPolicy, attempts reset when a connect
    /// completes. Once exhausted, auto-redial stops until the next
    /// explicit Send restarts the cycle; `max_attempts = 1` leaves
    /// every redial to an explicit Send.
    RetryPolicy redial_policy;
  };

  using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

  EpollTransport();
  explicit EpollTransport(Options options);
  ~EpollTransport() override;

  EpollTransport(const EpollTransport&) = delete;
  EpollTransport& operator=(const EpollTransport&) = delete;

  /// Creates the epoll instance and starts the event loop. Call before
  /// ListenPeer/ListenHttp/AddPeer/Send.
  Status Start();
  /// Stops the loop and closes every socket. Idempotent.
  void Stop();
  bool running() const { return running_.load(); }

  /// Binds the framed peer plane on 127.0.0.1:`port` (0 = ephemeral).
  Status ListenPeer(uint16_t port);
  uint16_t peer_port() const { return peer_port_.load(); }

  /// Binds the HTTP plane on 127.0.0.1:`port` (0 = ephemeral);
  /// `handler` serves every request on the loop thread.
  Status ListenHttp(uint16_t port, HttpHandler handler);
  uint16_t http_port() const { return http_port_.load(); }

  /// Static dial table: Send/Broadcast to `node_id` connects to
  /// `host`:`port` when no live connection exists.
  void AddPeer(const std::string& node_id, const std::string& host,
               uint16_t port);

  // -- Transport ------------------------------------------------------------

  Status RegisterNode(const std::string& node_id, NetworkNode* node) override;
  Status UnregisterNode(const std::string& node_id) override;
  Status Send(Timestamp now, const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override;
  Status Broadcast(Timestamp now, const std::string& from,
                   const std::string& topic,
                   const std::string& payload) override;
  std::vector<ConnectionStats> Connections() const override;
  std::string transport_name() const override { return "epoll"; }
  void SetErrorCallback(ErrorCallback callback) override;
  void OpenBurst() override;
  void CloseBurst() override;
  /// Abruptly tears down every live connection to `peer` (the chaos
  /// "connection reset" fault). Closes happen on the loop thread; the
  /// peer plane redials with backoff afterwards.
  Status ResetPeer(const std::string& peer) override;

  // -- Introspection (tests, status surfaces) -------------------------------

  size_t connection_count() const;
  int64_t accepted_total() const { return accepted_total_.load(); }
  int64_t timeouts_total() const { return timeouts_total_.load(); }
  int64_t overflows_total() const { return overflows_total_.load(); }
  int64_t connect_failures_total() const {
    return connect_failures_total_.load();
  }
  int64_t http_requests_total() const { return http_requests_total_.load(); }
  int64_t frames_delivered_total() const {
    return frames_delivered_total_.load();
  }
  int64_t accept_errors_total() const { return accept_errors_total_.load(); }
  int64_t dial_failures_total() const { return dial_failures_total_.load(); }
  int64_t reconnects_total() const { return reconnects_total_.load(); }
  int64_t resets_total() const { return resets_total_.load(); }

 private:
  enum class ConnKind { kPeerOut, kPeerIn, kHttp };

  /// One socket. Created under mu_; mutated under mu_; destroyed only
  /// on the loop thread (so the loop may hold a Conn* across unlocked
  /// handler calls).
  struct Conn {
    int fd = -1;
    ConnKind kind = ConnKind::kPeerIn;
    /// Peer node id (peer plane; empty on inbound links until the
    /// first frame identifies the sender) or "ip:port" (HTTP plane).
    std::string peer;
    bool connecting = false;   // non-blocking connect in flight
    bool read_closed = false;  // peer half-closed its write side
    bool want_close = false;   // close once the write queue drains
    std::string inbuf;
    /// Queued output: frames and responses append, and a flush writes
    /// from out_off on.
    std::string outbuf;
    size_t out_off = 0;
    int64_t frames_in = 0;
    int64_t frames_out = 0;
    int64_t requests_served = 0;
    Timestamp opened_steady = 0;
    Timestamp last_activity_steady = 0;
    /// Deadline for an in-flight non-blocking connect (0 = none); a
    /// connecting conn past it is failed and redialed with backoff.
    Timestamp connect_deadline_steady = 0;

    size_t queued() const { return outbuf.size() - out_off; }
  };

  /// Redial bookkeeping for one dial-table peer whose link failed.
  struct DialState {
    int attempts = 0;  // consecutive failures (resets on success)
    /// When the loop should redial; meaningful while auto_pending.
    Timestamp next_redial_steady = 0;
    bool auto_pending = false;
  };

  /// A delivery decoded from a frame, dispatched outside mu_.
  struct PendingDelivery {
    NetworkNode* node = nullptr;
    Message message;
  };

  // Loop-side machinery. All sockets are closed only by the loop.
  void LoopMain();
  void HandleWake();
  void AcceptReady(int listen_fd, ConnKind kind);
  void ConnReady(int fd, uint32_t events);
  /// Reads until EAGAIN/EOF; returns false when the conn died.
  bool ReadReady(Conn* conn);
  void ProcessPeerInput(Conn* conn);
  void ProcessHttpInput(Conn* conn);
  /// Drains the write queue until EAGAIN; closes on error or when
  /// want_close hits an empty queue.
  void FlushLocked(Conn* conn);
  /// Writes the queue until it is empty or the socket would block, and
  /// returns the error that stopped it. Never closes, so a sending
  /// thread may call it.
  Status WriteLocked(Conn* conn);
  /// `allow_redial` is false for deliberate closes (idle reaping) that
  /// must not bounce the link back up.
  void CloseConnLocked(Conn* conn, const Status& reason,
                       bool allow_redial = true);
  void SweepIdleLocked(Timestamp steady_now);
  /// Periodic peer-plane upkeep (loop thread, ~50ms cadence): connect
  /// deadlines, due redials, paused-listener re-arm, flush retries,
  /// and a defensive EPOLL_CTL_MOD edge re-arm on peer conns (missed
  /// edges — e.g. a spurious EAGAIN — otherwise strand buffered data).
  void MaintainLocked(Timestamp steady_now);
  void FirePending();  // deliveries + callbacks queued under mu_

  // Shared helpers (any thread, mu_ held).
  Status EnqueueFrameLocked(const std::string& to, const std::string& bytes);
  /// `force` skips the backoff gate (the loop redialing a due peer).
  Conn* DialLocked(const std::string& node_id, bool force);
  /// Counts a dial failure, surfaces it on the error callback with the
  /// peer id and errno string, and schedules the backoff redial.
  void NoteDialFailureLocked(const std::string& peer, const Status& reason);
  /// A completed connect: counts a reconnect when failures preceded it
  /// and clears the peer's redial state.
  void NoteDialSuccessLocked(const std::string& peer);
  void ScheduleRedialLocked(const std::string& peer, Timestamp steady_now);
  void WakeLoop();
  void UpdateGaugesLocked();

  static Result<int> MakeListener(uint16_t port, uint16_t* bound_port);

  const Options options_;
  SocketOps* const ops_;  // options_.socket_ops or SocketOps::Real()

  std::atomic<bool> running_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<int> peer_listen_fd_{-1};
  std::atomic<int> http_listen_fd_{-1};
  std::atomic<uint16_t> peer_port_{0};
  std::atomic<uint16_t> http_port_{0};
  std::thread loop_;

  mutable std::mutex mu_;
  HttpHandler http_handler_;                      // guarded by mu_
  ErrorCallback error_callback_;                  // guarded by mu_
  std::map<std::string, NetworkNode*> local_nodes_;  // guarded by mu_
  std::map<int, std::unique_ptr<Conn>> conns_;       // guarded by mu_
  /// node id -> fd of the preferred live link (latest learned wins).
  std::map<std::string, int> peer_conns_;  // guarded by mu_
  /// Static dial table: node id -> (host, port).
  std::map<std::string, std::pair<std::string, uint16_t>> peer_addrs_;
  /// Fds with freshly queued output (Send from non-loop threads).
  std::set<int> flush_pending_;  // guarded by mu_
  /// Bursts open now, and the peer links given frames while one was:
  /// the loop leaves these until a burst closes and moves them to
  /// flush_pending_.
  int open_bursts_ = 0;     // guarded by mu_
  std::set<int> burst_held_;  // guarded by mu_
  /// Fds queued for forced close by ResetPeer (closed on loop thread).
  std::set<int> reset_pending_;  // guarded by mu_
  /// Redial bookkeeping per failed dial-table peer.
  std::map<std::string, DialState> dial_states_;  // guarded by mu_
  Rng redial_rng_{1};  // guarded by mu_ (backoff jitter, fixed seed)
  /// Listen fds paused after EMFILE, with their re-arm deadline.
  std::map<int, Timestamp> paused_listeners_;  // guarded by mu_
  /// True once the peer plane is in use (listener bound or dial table
  /// non-empty): the loop then ticks at the maintenance cadence.
  std::atomic<bool> peer_plane_active_{false};
  /// Deliveries/callbacks accumulated under mu_, fired by FirePending.
  std::vector<PendingDelivery> pending_deliveries_;   // guarded by mu_
  std::vector<std::pair<std::string, Status>> pending_errors_;
  /// True while FirePending runs callbacks outside mu_; UnregisterNode
  /// waits on dispatch_done_ for it to clear.
  bool dispatching_ = false;  // guarded by mu_
  std::condition_variable dispatch_done_;
  /// Running total of queued write bytes across connections.
  size_t total_out_bytes_ = 0;  // guarded by mu_
  Timestamp last_sweep_steady_ = 0;     // loop thread only
  Timestamp last_maintain_steady_ = 0;  // loop thread only

  std::atomic<int64_t> accepted_total_{0};
  std::atomic<int64_t> timeouts_total_{0};
  std::atomic<int64_t> overflows_total_{0};
  std::atomic<int64_t> connect_failures_total_{0};
  std::atomic<int64_t> http_requests_total_{0};
  std::atomic<int64_t> frames_delivered_total_{0};
  std::atomic<int64_t> accept_errors_total_{0};
  std::atomic<int64_t> dial_failures_total_{0};
  std::atomic<int64_t> reconnects_total_{0};
  std::atomic<int64_t> resets_total_{0};

  // gsn_transport_* (null when no registry was injected).
  std::shared_ptr<telemetry::Gauge> connections_gauge_;
  std::shared_ptr<telemetry::Counter> accepted_counter_;
  std::shared_ptr<telemetry::Gauge> queued_bytes_gauge_;
  std::shared_ptr<telemetry::Counter> timeouts_counter_;
  std::shared_ptr<telemetry::Counter> overflows_counter_;
  std::shared_ptr<telemetry::Counter> http_requests_counter_;
  std::shared_ptr<telemetry::Counter> accept_errors_counter_;
  std::shared_ptr<telemetry::Counter> dial_failures_counter_;
  std::shared_ptr<telemetry::Counter> reconnects_counter_;
  std::shared_ptr<telemetry::Counter> resets_counter_;
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_EPOLL_TRANSPORT_H_
