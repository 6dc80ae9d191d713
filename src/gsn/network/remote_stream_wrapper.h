#ifndef GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_
#define GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_

#include <cstdint>
#include <deque>
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
/// its directory replica, subscribes to the matching sensor on its host
/// node, and pushes delivered elements into this wrapper's queue; the
/// owning stream source drains it on Poll like any local device.
///
/// The wrapper is also the receive half of the resilient delivery
/// protocol (docs/FEDERATION.md): deliveries carry a dense per-
/// subscription sequence number, and this class admits them in order
/// exactly once — duplicates are dropped, out-of-order arrivals are
/// parked until the gap fills, and MissingRanges() tells the container
/// what to NACK for replay. ObserveTip() raises the known high-water
/// mark so a lost *tail* delivery still registers as a gap.
///
/// An arrival is a Push or an AbandonMissingThrough that releases at
/// least one element in order; duplicates and parked arrivals are not.
/// On each arrival `on_arrival` (fixed at construction, so it is in
/// place before the transport thread can reach the wrapper) runs after
/// the wrapper's lock is released (docs/PERFORMANCE.md §7).
class RemoteStreamWrapper : public wrappers::Wrapper {
 public:
  /// Outcome of one Push, for the container's gap/dup telemetry.
  struct PushOutcome {
    int admitted = 0;        // elements released to Poll (in order)
    bool duplicate = false;  // sequence already seen
    bool gap_opened = false; // arrival parked behind a new gap
  };

  /// `schema` comes from the matched DirectoryEntry; `peer` / `sensor`
  /// identify the remote producer (for diagnostics and failover).
  RemoteStreamWrapper(Schema schema, std::string peer_node,
                      std::string remote_sensor,
                      std::function<void()> on_arrival = {});

  const Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "remote"; }

  Result<std::vector<StreamElement>> Poll(Timestamp now) override;

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
  /// are admitted, absent ones are counted as abandoned, and the
  /// expected sequence advances past them. Returns how many sequences
  /// were abandoned. Called when replay retries exhaust (the producer
  /// evicted them, or is gone for good).
  int AbandonMissingThrough(uint64_t through);

  /// Points the wrapper at a different producer after failover. The
  /// new subscription has a fresh sequence space, so all sequencing
  /// state resets; queued-but-unpolled elements survive.
  void Rebind(std::string peer_node, std::string remote_sensor);

  std::string peer_node() const;
  std::string remote_sensor() const;
  /// Raw deliveries pushed (including duplicates and parked arrivals).
  int64_t received_count() const;
  /// Elements admitted in order to Poll — under the resilient protocol
  /// this is exactly the number of distinct sequences accepted.
  int64_t admitted_count() const;
  int64_t duplicate_count() const;
  int64_t abandoned_count() const;
  /// Next sequence the wrapper waits for (1 until anything arrives).
  uint64_t expected_sequence() const;
  /// Highest sequence seen or announced via tip (0 initially).
  uint64_t max_seen_sequence() const;

 private:
  /// Moves the parked run starting at the expected sequence to the
  /// queue; returns how many it released. Requires mu_.
  int ReleaseParkedLocked();

  const Schema schema_;
  const std::function<void()> on_arrival_;

  mutable std::mutex mu_;
  std::string peer_node_;
  std::string remote_sensor_;
  std::deque<StreamElement> queue_;
  /// Out-of-order arrivals parked until the sequence below them fills.
  std::map<uint64_t, StreamElement> pending_;
  uint64_t expected_seq_ = 1;
  uint64_t max_seen_ = 0;
  int64_t received_ = 0;
  int64_t admitted_ = 0;
  int64_t duplicates_ = 0;
  int64_t abandoned_ = 0;
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_REMOTE_STREAM_WRAPPER_H_
