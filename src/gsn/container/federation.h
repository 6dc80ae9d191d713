#ifndef GSN_CONTAINER_FEDERATION_H_
#define GSN_CONTAINER_FEDERATION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/network/chaos_transport.h"
#include "gsn/network/simulator.h"
#include "gsn/util/clock.h"

namespace gsn::container {

/// A small Sensor Internet: several GSN containers on one simulated
/// network sharing one virtual clock — the multi-node setup of the
/// paper's demonstration (Fig 5: four sensor networks on three GSN
/// nodes). Owns the clock, the network, and the containers, and
/// provides the scheduling loop that advances them together. Each node
/// registers through its own ChaosTransport over the shared lossless
/// simulator, as `gsnd --chaos-seed` does for a daemon: faults are that
/// node's rules, reached via `node(id)->network()->AsChaos()` or its
/// `chaos` command (docs/CHAOS.md). Every node drains its shards on one
/// tick worker, so a seeded schedule stores the same rows on every run.
class Federation {
 public:
  explicit Federation(uint64_t seed = 1);

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Creates and registers a container behind a fresh, rule-free chaos
  /// decorator. `storage_dir` enables permanent storage for sensors
  /// that request it.
  Result<Container*> AddNode(const std::string& node_id,
                             const std::string& storage_dir = "");
  /// Removes a node (its published sensors are retracted from peers)
  /// together with its decorator and rules.
  Status RemoveNode(const std::string& node_id);
  Container* node(const std::string& node_id) const;
  std::vector<std::string> NodeIds() const;

  std::shared_ptr<VirtualClock> clock() const { return clock_; }
  network::NetworkSimulator& network() { return network_; }
  /// Federation-wide tracer (injected into every node), so a tuple
  /// crossing containers lands all its spans in one store. Enable with
  /// tracer().set_sample_rate(rate).
  telemetry::Tracer& tracer() { return tracer_; }

  /// Advances virtual time by `step` and runs one round: deliver due
  /// network messages, then Tick every container. Returns total output
  /// elements produced this round.
  Result<int> Step(Timestamp step);

  /// Runs Step(step) until `duration` has elapsed. Returns total output
  /// elements produced.
  Result<int> RunFor(Timestamp duration, Timestamp step);

 private:
  std::shared_ptr<VirtualClock> clock_;
  network::NetworkSimulator network_;
  /// Declared before nodes_: containers hold a pointer to this tracer,
  /// so it must outlive them during destruction.
  telemetry::Tracer tracer_;
  struct Node {
    /// Declared before the container, which registers through it, so
    /// it is created first and destroyed last.
    std::unique_ptr<network::ChaosTransport> chaos;
    std::unique_ptr<Container> container;
  };
  std::map<std::string, Node> nodes_;
  uint64_t seed_;
  uint64_t node_counter_ = 0;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_FEDERATION_H_
