#ifndef GSN_NETWORK_TRANSPORT_H_
#define GSN_NETWORK_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gsn/util/clock.h"
#include "gsn/util/result.h"

namespace gsn::network {

/// A message between GSN containers. `topic` selects the protocol
/// handler (directory.publish, subscribe, stream, query, ...); payload
/// bytes are Codec-encoded by the protocol layer.
struct Message {
  std::string from;
  std::string to;
  std::string topic;
  std::string payload;
  Timestamp sent_at = 0;
  Timestamp deliver_at = 0;
};

/// Receiver interface implemented by GSN containers.
class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  /// Called by the transport when a message is delivered. Handlers may
  /// send further messages but must not block. Real transports invoke
  /// this from their event-loop thread, so implementations must be
  /// internally synchronized.
  virtual void OnMessage(const Message& message) = 0;
};

/// Point-in-time view of one transport connection, surfaced by
/// GET /api/v1/transport and the `transport` management command.
struct ConnectionStats {
  /// Peer node id for the federation plane; "ip:port" for HTTP clients.
  std::string peer;
  std::string kind;   // "peer-out" | "peer-in" | "http"
  std::string state;  // "connecting" | "open" | "draining"
  /// Bytes waiting in this connection's bounded write queue.
  size_t queued_bytes = 0;
  /// HTTP requests served on this connection — the keep-alive reuse
  /// count (0 for peer-plane connections).
  int64_t requests_served = 0;
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  Timestamp age_micros = 0;   // since the connection opened
  Timestamp idle_micros = 0;  // since the last byte in either direction
};

class ChaosTransport;

/// The network fabric between GSN containers, extracted from the
/// simulator-coupled federation path so `gsnd` daemons can federate
/// over real sockets (docs/TRANSPORT.md). Two implementations:
///
///  - NetworkSimulator — the in-process deterministic fabric: lossless,
///    with latency and jitter under virtual time.
///  - EpollTransport — an edge-triggered non-blocking TCP transport
///    with framed peer links, an HTTP/1.1 keep-alive role, bounded
///    per-connection write queues, and idle timeouts.
///
/// Faults on either are ChaosTransport rules (docs/CHAOS.md): the
/// decorator wraps whichever implementation a node registers through.
///
/// Delivery is push-based: a registered NetworkNode's OnMessage fires
/// when a message arrives (when the simulator's owner pumps it, on the
/// event loop thread for real transports). Send/Broadcast are asynchronous
/// and may drop — the resilience layer above (sequence numbers,
/// NACK/replay, heartbeats) owns end-to-end delivery.
class Transport {
 public:
  /// Close/error notification: `peer` is the connection's peer id (or
  /// address) and `error` the reason the transport gave up on it.
  using ErrorCallback =
      std::function<void(const std::string& peer, const Status& error)>;

  virtual ~Transport() = default;

  /// Attaches a local delivery target under `node_id`.
  virtual Status RegisterNode(const std::string& node_id,
                              NetworkNode* node) = 0;
  /// Detaches `node_id`. Once it returns, no delivery to the node is in
  /// flight (save one the caller is itself running), so the node may be
  /// destroyed.
  virtual Status UnregisterNode(const std::string& node_id) = 0;

  /// Queues one framed message for `to`. Asynchronous: an OK status
  /// means accepted for delivery, not delivered. Backpressure: a full
  /// per-connection write queue fails the send (ResourceExhausted) and
  /// closes the connection.
  virtual Status Send(Timestamp now, const std::string& from,
                      const std::string& to, const std::string& topic,
                      std::string payload) = 0;

  /// Broadcasts to every reachable peer (and co-located node) except
  /// `from`.
  virtual Status Broadcast(Timestamp now, const std::string& from,
                           const std::string& topic,
                           const std::string& payload) = 0;

  /// Live connection snapshot (empty for the simulator: its links are
  /// logical, not connections).
  virtual std::vector<ConnectionStats> Connections() const { return {}; }

  /// Downcast hook for the chaos surfaces (`chaos` management command,
  /// GET/POST /api/v1/chaos, fault-injection tests): non-null only for
  /// ChaosTransport (docs/CHAOS.md).
  virtual ChaosTransport* AsChaos() { return nullptr; }

  /// Forcibly tears down every live connection to `peer` (abrupt
  /// close, no drain) — the chaos "connection reset" fault. The peer
  /// plane redials with backoff afterwards. Transports without real
  /// connections report InvalidArgument.
  virtual Status ResetPeer(const std::string& peer) {
    return Status::InvalidArgument("reset not supported on '" +
                                   transport_name() + "' (peer " + peer + ")");
  }

  /// Implementation name for status surfaces: "simulator" | "epoll".
  virtual std::string transport_name() const = 0;

  virtual void SetErrorCallback(ErrorCallback /*callback*/) {}

  /// Scope in which sends may leave together (docs/TRANSPORT.md,
  /// "Bursts"): the transport may hold a send until a burst closes,
  /// then write each peer's share at once. Bursts nest and may be
  /// opened on any thread; a send made while any is open is held at
  /// most until the next close. Frames, their order per peer and every
  /// delivery guarantee stay as they are.
  class Burst {
   public:
    explicit Burst(Transport* transport) : transport_(transport) {
      if (transport_ != nullptr) transport_->OpenBurst();
    }
    ~Burst() {
      if (transport_ != nullptr) transport_->CloseBurst();
    }
    Burst(const Burst&) = delete;
    Burst& operator=(const Burst&) = delete;

   private:
    Transport* const transport_;
  };

  /// The hooks behind Burst, no-ops unless the transport holds sends.
  virtual void OpenBurst() {}
  virtual void CloseBurst() {}
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_TRANSPORT_H_
