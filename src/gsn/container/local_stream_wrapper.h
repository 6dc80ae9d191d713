#ifndef GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_
#define GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_

#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "gsn/wrappers/wrapper.h"

namespace gsn::container {

/// The `wrapper="local"` data source: feeds one virtual sensor from
/// another sensor *on the same container* (paper §2: "a virtual sensor
/// corresponds either to a data stream received directly from sensors
/// or to a data stream derived from other virtual sensors"). The
/// container resolves the address predicates against its own
/// deployments and registers a listener on the producer; elements are
/// queued here and drained by the consumer's stream source on Poll.
///
/// Unlike `remote`, no network hop or signature is involved — delivery
/// is the producer's in-process listener fan-out.
///
/// Every Push and non-empty PushBatch is an arrival: `on_arrival` (set
/// once, at construction) runs after the queue lock is released, so the
/// container can wake the consumer at once (docs/PERFORMANCE.md §7).
class LocalStreamWrapper : public wrappers::Wrapper {
 public:
  LocalStreamWrapper(Schema schema, std::string producer_name,
                     std::function<void()> on_arrival = {});

  const Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "local"; }

  Result<std::vector<StreamElement>> Poll(Timestamp now) override;

  /// Called from the producer's output listener.
  void Push(StreamElement element);
  /// Enqueues a whole output batch under one lock acquisition.
  void PushBatch(const std::vector<StreamElement>& batch);
  /// After the producer is undeployed the wrapper keeps draining its
  /// queue but receives nothing new.
  void MarkProducerGone();

  const std::string& producer_name() const { return producer_name_; }
  bool producer_gone() const;
  int64_t received_count() const;

 private:
  const Schema schema_;
  const std::string producer_name_;
  const std::function<void()> on_arrival_;

  mutable std::mutex mu_;
  std::deque<StreamElement> queue_;
  int64_t received_ = 0;
  bool producer_gone_ = false;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_LOCAL_STREAM_WRAPPER_H_
