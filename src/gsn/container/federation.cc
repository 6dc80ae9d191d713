#include "gsn/container/federation.h"

namespace gsn::container {

Federation::Federation(uint64_t seed)
    : clock_(std::make_shared<VirtualClock>()),
      network_(seed ^ 0x5eedf00d),
      seed_(seed) {}

Result<Container*> Federation::AddNode(const std::string& node_id,
                                       const std::string& storage_dir) {
  if (nodes_.count(node_id)) {
    return Status::AlreadyExists("node already exists: " + node_id);
  }
  const uint64_t node_seed = seed_ + 31 * ++node_counter_;
  network::ChaosTransport::Options chaos_options;
  chaos_options.seed = node_seed;
  Node node;
  node.chaos =
      std::make_unique<network::ChaosTransport>(&network_, chaos_options);
  Container::Options options;
  options.node_id = node_id;
  options.clock = clock_;
  options.seed = node_seed;
  options.storage_dir = storage_dir;
  options.network = node.chaos.get();
  options.tracer = &tracer_;
  // One worker drains the shards in index order (the pool is FIFO), so
  // a local chain across shards sees its pushes in a fixed order.
  options.sharding.tick_workers = 1;
  node.container = std::make_unique<Container>(std::move(options));
  Container* ptr = node.container.get();
  nodes_[node_id] = std::move(node);
  // Late joiner: ask existing nodes to re-announce so the new replica
  // converges (delivered on the next Step).
  for (auto& [id, other] : nodes_) {
    if (id != node_id) other.container->AnnounceAll();
  }
  return ptr;
}

Status Federation::RemoveNode(const std::string& node_id) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    return Status::NotFound("no such node: " + node_id);
  }
  // ~Container undeploys sensors and retracts entries, then the
  // decorator goes.
  nodes_.erase(it);
  return Status::OK();
}

Container* Federation::node(const std::string& node_id) const {
  auto it = nodes_.find(node_id);
  return it == nodes_.end() ? nullptr : it->second.container.get();
}

std::vector<std::string> Federation::NodeIds() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

Result<int> Federation::Step(Timestamp step) {
  clock_->Advance(step);
  const Timestamp now = clock_->NowMicros();
  network_.Pump(now);
  int produced = 0;
  for (auto& [id, node] : nodes_) {
    GSN_ASSIGN_OR_RETURN(int n, node.container->Tick());
    produced += n;
  }
  // Deliver messages sent during the tick that are due immediately
  // (zero-latency links in tests).
  network_.Pump(now);
  return produced;
}

Result<int> Federation::RunFor(Timestamp duration, Timestamp step) {
  if (step <= 0) return Status::InvalidArgument("step must be > 0");
  int produced = 0;
  for (Timestamp elapsed = 0; elapsed < duration; elapsed += step) {
    GSN_ASSIGN_OR_RETURN(int n, Step(step));
    produced += n;
  }
  return produced;
}

}  // namespace gsn::container
