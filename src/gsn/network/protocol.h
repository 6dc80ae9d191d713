#ifndef GSN_NETWORK_PROTOCOL_H_
#define GSN_NETWORK_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::network {

/// Message topics of the inter-container protocol. Containers speak a
/// small peer-to-peer protocol replacing the Java GSN's HTTP/RMI plane:
///
///   kTopicDirPublish  — gossip a DirectoryEntry (payload: entry)
///   kTopicDirRemove   — retract a sensor (payload: DirRemove)
///   kTopicSubscribe   — subscribe to a remote sensor's output stream
///   kTopicSubAck      — producer's acknowledgement of a subscription
///   kTopicUnsubscribe — cancel a subscription
///   kTopicStream      — one output element for a subscription
///   kTopicStreamTip   — producer's highest assigned sequence number
///   kTopicStreamNack  — subscriber's replay request for missing seqs
///   kTopicHeartbeat   — periodic liveness beacon (broadcast)
inline constexpr char kTopicDirPublish[] = "dir.publish";
inline constexpr char kTopicDirRemove[] = "dir.remove";
inline constexpr char kTopicSubscribe[] = "sub.request";
inline constexpr char kTopicSubAck[] = "sub.ack";
inline constexpr char kTopicUnsubscribe[] = "sub.cancel";
inline constexpr char kTopicStream[] = "sub.stream";
inline constexpr char kTopicStreamTip[] = "sub.tip";
inline constexpr char kTopicStreamNack[] = "sub.nack";
inline constexpr char kTopicHeartbeat[] = "peer.heartbeat";

/// Retraction of a published sensor.
struct DirRemove {
  std::string node_id;
  std::string sensor_name;

  std::string Encode() const;
  static Result<DirRemove> Decode(std::string_view data);
};

/// Subscription request: `subscriber_node` asks the receiving container
/// to push `sensor_name`'s output stream, tagged with subscription_id.
struct SubscribeRequest {
  std::string subscription_id;
  std::string sensor_name;
  std::string subscriber_node;

  std::string Encode() const;
  static Result<SubscribeRequest> Decode(std::string_view data);
};

/// Cancellation of a subscription.
struct UnsubscribeRequest {
  std::string subscription_id;

  std::string Encode() const;
  static Result<UnsubscribeRequest> Decode(std::string_view data);
};

/// One pushed stream element. `signature` is the producing container's
/// HMAC over (sensor name, element) — the integrity layer of Fig 2;
/// a receiver drops any delivery whose signature does not verify,
/// including an empty one. `trace` carries the producing container's
/// trace context so the receiving container continues the same trace;
/// it rides outside the signed payload (observability metadata, not
/// sensor data). `sequence` is the per-subscription delivery number
/// (1-based, dense): the receiving RemoteStreamWrapper uses it to
/// detect gaps (→ NACK/replay) and drop duplicates, so lossy links
/// still yield exactly-once admission.
struct StreamDelivery {
  std::string subscription_id;
  std::string sensor_name;
  std::string signature;
  StreamElement element;
  TraceContext trace;
  uint64_t sequence = 0;

  std::string Encode() const;
  static Result<StreamDelivery> Decode(std::string_view data);
};

/// Producer's acknowledgement of a SubscribeRequest. Until it arrives
/// the subscriber re-sends the request under its retry policy
/// (subscribes are idempotent on the producer).
struct SubscribeAck {
  std::string subscription_id;

  std::string Encode() const;
  static Result<SubscribeAck> Decode(std::string_view data);
};

/// Inclusive range of missing sequence numbers.
struct SeqRange {
  uint64_t from = 0;
  uint64_t to = 0;

  bool operator==(const SeqRange& other) const {
    return from == other.from && to == other.to;
  }
};

/// Subscriber's replay request: "I have gaps at these sequences". The
/// producer re-sends whatever its replay buffer still holds.
struct NackRequest {
  std::string subscription_id;
  std::vector<SeqRange> ranges;

  std::string Encode() const;
  static Result<NackRequest> Decode(std::string_view data);
};

/// Producer's periodic "high-water mark" for a subscription: the last
/// sequence it assigned. Lets the subscriber detect *tail* loss — a
/// dropped final delivery would otherwise never look like a gap.
struct StreamTip {
  std::string subscription_id;
  uint64_t last_sequence = 0;

  std::string Encode() const;
  static Result<StreamTip> Decode(std::string_view data);
};

/// Periodic liveness beacon, broadcast by every container. Feeds the
/// per-peer circuit breakers: missed heartbeats accumulate failures,
/// any received message records a success.
struct Heartbeat {
  std::string node_id;
  uint64_t beat = 0;

  std::string Encode() const;
  static Result<Heartbeat> Decode(std::string_view data);
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_PROTOCOL_H_
