#ifndef GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_
#define GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/network/protocol.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::network {

/// The `wrapper="remote"` data source (paper Fig 1: "the data stream is
/// obtained from the Internet through GSN (thus logical addressing is
/// possible)"). The container resolves the address predicates against
/// its directory replica and subscribes to the matching sensor on its
/// host node; the federation engine pushes each delivery here, and the
/// wrapper offers it on to its sink, the owning StreamSource's admission
/// queue.
///
/// The wrapper is also the receive half of the resilient delivery
/// protocol (docs/FEDERATION.md): deliveries carry a dense per-
/// subscription sequence number, and this class admits them in order
/// exactly once — duplicates are dropped, out-of-order arrivals are
/// parked until the gap fills, and MissingRanges() tells the container
/// what to NACK for replay. ObserveTip() raises the known high-water
/// mark so a lost *tail* delivery still registers as a gap.
///
/// Each run of in-order releases is offered to the sink as one batch.
/// What the sink refuses (shed policy block on a full queue, a draining
/// source, or no sink attached yet) is neither admitted nor parked, like
/// a delivery lost in transit: its sequence stays missing until a NACK
/// has it re-sent. While the sink refuses, out-of-order arrivals are not
/// parked either. Lock order: engine, this wrapper, the sink's queue.
class RemoteStreamWrapper : public wrappers::Wrapper {
 public:
  /// Takes an in-order run; returns how many (a prefix) it took.
  using Sink = std::function<size_t(std::vector<StreamElement>)>;

  /// Outcome of one Push, for the container's gap/dup telemetry.
  struct PushOutcome {
    int admitted = 0;        // elements the sink took, in order
    bool duplicate = false;  // sequence already seen
    bool gap_opened = false; // arrival parked behind a new gap
  };

  /// `schema` comes from the matched DirectoryEntry; `peer` / `sensor`
  /// identify the remote producer (for diagnostics and failover).
  RemoteStreamWrapper(Schema schema, std::string peer_node,
                      std::string remote_sensor);

  const Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "remote"; }

  /// Set once, after the owning source exists; until then every
  /// in-order delivery is refused.
  void AttachSink(Sink sink);

  /// Called by the federation engine when a kTopicStream message
  /// arrives. Sequences are 1-based and dense.
  PushOutcome Push(StreamElement element, uint64_t sequence);

  /// Producer's high-water mark from a StreamTip: sequences up to
  /// `last_sequence` exist, so any not yet seen are gaps.
  void ObserveTip(uint64_t last_sequence);

  /// The sequences still missing in [next expected, high-water mark],
  /// as maximal inclusive ranges (what the container NACKs). At most
  /// `max_ranges` are returned; the rest surface on later calls.
  std::vector<SeqRange> MissingRanges(size_t max_ranges = 32) const;

  /// Gives up on every missing sequence <= `through`: parked elements
  /// are offered, absent (or refused) ones are counted as abandoned, and
  /// the expected sequence advances past them. Returns how many
  /// sequences were abandoned. Called when replay retries exhaust (the
  /// producer evicted them, or is gone for good).
  int64_t AbandonMissingThrough(uint64_t through);

  /// Points the wrapper at a different producer after failover. The
  /// new subscription has a fresh sequence space, so all sequencing
  /// state resets; what the sink already took stays there.
  void Rebind(std::string peer_node, std::string remote_sensor);

  std::string peer_node() const;
  std::string remote_sensor() const;
  /// Raw deliveries pushed (including duplicates, parked and refused).
  int64_t received_count() const;
  /// Elements the sink took in order — under the resilient protocol
  /// this is exactly the number of distinct sequences accepted.
  int64_t admitted_count() const;
  int64_t duplicate_count() const;
  int64_t abandoned_count() const;
  /// Next sequence the wrapper waits for (1 until anything arrives).
  uint64_t expected_sequence() const;
  /// Highest sequence seen or announced via tip (0 initially).
  uint64_t max_seen_sequence() const;

 private:
  /// AbandonMissingThrough, and with `through` = expected - 1 an
  /// in-order Push. Returns how many elements the sink took.
  size_t ReleaseLocked(uint64_t through);

  const Schema schema_;

  mutable std::mutex mu_;
  Sink sink_;
  std::string peer_node_;
  std::string remote_sensor_;
  /// Out-of-order arrivals parked until the sequence below them fills.
  std::map<uint64_t, StreamElement> pending_;
  uint64_t expected_seq_ = 1;
  uint64_t max_seen_ = 0;
  bool refusing_ = false;  // the sink refused part of the last run
  int64_t received_ = 0;
  int64_t admitted_ = 0;
  int64_t duplicates_ = 0;
  int64_t abandoned_ = 0;
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_
