#include "gsn/vsensor/stream_source.h"

namespace gsn::vsensor {

StreamSource::StreamSource(StreamSourceSpec spec,
                           std::unique_ptr<wrappers::Wrapper> wrapper,
                           uint64_t seed, telemetry::MetricRegistry* metrics,
                           telemetry::Tracer* tracer, std::string node)
    : spec_(std::move(spec)),
      wrapper_(std::move(wrapper)),
      window_(spec_.window),
      rng_(seed),
      tracer_(tracer),
      node_(std::move(node)) {
  telemetry::MetricRegistry* registry = metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  const telemetry::Labels wrapper_label = {
      {"wrapper", wrapper_->type_name()}};
  poll_micros_ = registry->GetHistogram(
      "gsn_wrapper_poll_micros", wrapper_label,
      "Time spent in the wrapper's produce loop per poll");
  produced_total_ = registry->GetCounter(
      "gsn_wrapper_elements_total", wrapper_label,
      "Stream elements produced by wrappers of this type");
}

void StreamSource::ConfigureAdmission(const std::string& sensor,
                                      int64_t default_capacity,
                                      ShedPolicy default_policy,
                                      telemetry::MetricRegistry* metrics,
                                      std::function<void()> arrival_hook) {
  // Wiring time: no tick or push reaches the source yet, so
  // instrumenting the mutex before locking it is race-free.
  mu_.Instrument(metrics, "admission",
                 {{"sensor", sensor}, {"source", spec_.alias}});
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  arrival_hook_ = std::move(arrival_hook);
  queue_capacity_ =
      spec_.queue_capacity > 0 ? spec_.queue_capacity : default_capacity;
  if (queue_capacity_ < 1) queue_capacity_ = 1;
  shed_policy_ = default_policy;
  if (!spec_.shed_policy.empty()) {
    Result<ShedPolicy> parsed = ParseShedPolicy(spec_.shed_policy);
    if (parsed.ok()) shed_policy_ = *parsed;  // Validate() already vetted it
  }
  if (metrics != nullptr) {
    shed_total_ = metrics->GetCounter(
        "gsn_admission_shed_total", {{"policy", ShedPolicyName(shed_policy_)}},
        "Overload events at the admission queue: elements dropped "
        "(drop-oldest/drop-newest, or pushed under block) or wrapper polls "
        "deferred (block)");
    depth_gauge_ = metrics->GetGauge(
        "gsn_admission_queue_depth",
        {{"sensor", sensor}, {"source", spec_.alias}},
        "Elements waiting in the admission queue");
    queue_wait_micros_ = metrics->GetHistogram(
        "gsn_queue_wait_micros", {{"sensor", sensor}, {"source", spec_.alias}},
        "Wall time elements spent in the admission queue between the "
        "wrapper and the pipeline");
  }
}

size_t StreamSource::EnqueueLocked(std::vector<StreamElement>& elements,
                                   WhenBlocked when_blocked, size_t* enqueued) {
  int64_t stamp = 0;  // one clock read stamps the batch's queue-wait start
  if (queue_wait_micros_ != nullptr && !elements.empty()) {
    stamp = telemetry::SteadyClock::Instance()->NowMicros();
  }
  size_t taken = 0;
  for (StreamElement& e : elements) {
    const bool full =
        queue_capacity_ > 0 &&
        admission_queue_.size() >= static_cast<size_t>(queue_capacity_);
    // Room would mean waiting, which no caller can do (a poll gets here
    // only when one batch over-fills a block queue).
    const bool blocked =
        !admitting_ || (full && shed_policy_ == ShedPolicy::kBlock);
    if (blocked && when_blocked == WhenBlocked::kRefuse) break;
    ++taken;
    if (full || blocked) {
      ++shed_;
      if (shed_total_ != nullptr) shed_total_->Increment();
      if (blocked || shed_policy_ == ShedPolicy::kDropNewest) continue;
      admission_queue_.pop_front();  // drop-oldest
    }
    admission_queue_.push_back({std::move(e), stamp});
    ++*enqueued;
  }
  return taken;
}

Status StreamSource::PumpLocked(
    Timestamp now, std::unique_lock<telemetry::TimedMutex>* lock) {
  if (!admitting_) return Status::OK();
  if (queue_capacity_ > 0 && shed_policy_ == ShedPolicy::kBlock &&
      admission_queue_.size() >= static_cast<size_t>(queue_capacity_)) {
    // Backpressure: in this pull-based design, not polling the wrapper
    // is what "blocking the producer" means.
    ++shed_;
    if (shed_total_ != nullptr) shed_total_->Increment();
    return Status::OK();
  }
  lock->unlock();
  telemetry::Span poll_span(poll_micros_.get());
  Result<std::vector<StreamElement>> produced = wrapper_->Poll(now);
  poll_span.Stop();
  lock->lock();
  if (!produced.ok()) return produced.status();
  produced_total_->Increment(static_cast<int64_t>(produced->size()));
  size_t enqueued = 0;
  EnqueueLocked(*produced, WhenBlocked::kShed, &enqueued);
  return Status::OK();
}

size_t StreamSource::Offer(std::vector<StreamElement> elements,
                           WhenBlocked when_blocked) {
  size_t taken = 0;
  size_t enqueued = 0;
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    taken = EnqueueLocked(elements, when_blocked, &enqueued);
    produced_total_->Increment(static_cast<int64_t>(taken));
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(admission_queue_.size()));
    }
  }
  // An arrival is exactly this: an element entered the admission queue.
  if (enqueued > 0 && arrival_hook_) arrival_hook_();
  return taken;
}

Status StreamSource::Pump(Timestamp now) {
  std::unique_lock<telemetry::TimedMutex> lock(mu_);
  const Status pumped = PumpLocked(now, &lock);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(admission_queue_.size()));
  }
  return pumped;
}

Result<std::vector<StreamElement>> StreamSource::Poll(Timestamp now) {
  std::unique_lock<telemetry::TimedMutex> lock(mu_);
  GSN_RETURN_IF_ERROR(PumpLocked(now, &lock));
  std::vector<StreamElement> admitted;

  // Replay buffered elements first if we just reconnected.
  if (connected_ && !disconnect_buffer_.empty()) {
    for (StreamElement& e : disconnect_buffer_) {
      window_.Add(e);
      admitted.push_back(std::move(e));
      ++admitted_;
    }
    disconnect_buffer_.clear();
  }

  // Requeued quarantine elements next: they already passed sampling and
  // disconnect handling on first admission, so they go straight to the
  // window (at-least-once redelivery).
  while (!injected_.empty()) {
    StreamElement e = std::move(injected_.front());
    injected_.pop_front();
    window_.Add(e);
    admitted.push_back(std::move(e));
    ++admitted_;
  }

  std::deque<QueuedElement> queued;
  queued.swap(admission_queue_);
  // Queue residency ends here for the whole drained batch, whatever
  // sampling/disconnect handling decides next.
  if (queue_wait_micros_ != nullptr && !queued.empty()) {
    const int64_t drained_micros =
        telemetry::SteadyClock::Instance()->NowMicros();
    for (const QueuedElement& q : queued) {
      if (q.enqueued_micros > 0) {
        queue_wait_micros_->Observe(drained_micros - q.enqueued_micros);
      }
    }
  }
  for (QueuedElement& qe : queued) {
    StreamElement& e = qe.element;
    // Sampling happens before buffering: a sampled-out element is gone
    // regardless of link state.
    if (spec_.sampling_rate < 1.0 && !rng_.NextBool(spec_.sampling_rate)) {
      ++sampled_out_;
      continue;
    }
    // Missing-value repair (paper §4): substitute the last non-NULL
    // value seen per column, and remember fresh values.
    if (spec_.fill_missing_with_last) {
      if (last_known_.size() < e.values.size()) {
        last_known_.resize(e.values.size(), Value::Null());
      }
      for (size_t i = 0; i < e.values.size(); ++i) {
        if (e.values[i].is_null()) {
          if (!last_known_[i].is_null()) {
            e.values[i] = last_known_[i];
            ++filled_missing_;
          }
        } else {
          last_known_[i] = e.values[i];
        }
      }
    }
    if (!connected_) {
      if (spec_.disconnect_buffer > 0) {
        disconnect_buffer_.push_back(std::move(e));
        while (disconnect_buffer_.size() >
               static_cast<size_t>(spec_.disconnect_buffer)) {
          disconnect_buffer_.pop_front();
          ++dropped_disconnected_;
        }
      } else {
        ++dropped_disconnected_;
      }
      continue;
    }
    window_.Add(e);
    admitted.push_back(std::move(e));
    ++admitted_;
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(admission_queue_.size()));
  }
  StampTraces(&admitted);
  return admitted;
}

void StreamSource::Inject(const StreamElement& element) {
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    injected_.push_back(element);
  }
  if (arrival_hook_) arrival_hook_();
}

void StreamSource::SetAdmitting(bool admitting) {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  admitting_ = admitting;
}

bool StreamSource::admitting() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return admitting_;
}

size_t StreamSource::queue_depth() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return admission_queue_.size();
}

int64_t StreamSource::shed_count() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return shed_;
}

int64_t StreamSource::queue_capacity() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return queue_capacity_;
}

ShedPolicy StreamSource::shed_policy() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return shed_policy_;
}

void StreamSource::StampTraces(std::vector<StreamElement>* admitted) {
  if (tracer_ == nullptr) return;
  for (StreamElement& e : *admitted) {
    if (e.trace.valid()) {
      // Element already traced (remote delivery): continue the trace so
      // the consuming container's spans link to the producer's.
      telemetry::Span admit(tracer_, "source.admit", e.trace);
      admit.set_node(node_);
      admit.set_sensor(spec_.alias);
      e.trace = admit.context();
    } else {
      telemetry::Span produce(tracer_, "wrapper.produce");
      produce.set_node(node_);
      produce.set_sensor(spec_.alias);
      e.trace = produce.context();
    }
  }
}

Relation StreamSource::WindowRelation(Timestamp now) const {
  // Shares the buffered rows (ref-count bump per row, no Value copies).
  return window_.SnapshotRelation(now, wrapper_->output_schema());
}

void StreamSource::SetConnected(bool connected) {
  bool replay = false;  // reconnected over a buffered backlog
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    replay = connected && !connected_ && !disconnect_buffer_.empty();
    connected_ = connected;
  }
  if (replay && arrival_hook_) arrival_hook_();
}

bool StreamSource::connected() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return connected_;
}

int64_t StreamSource::admitted_count() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return admitted_;
}

int64_t StreamSource::sampled_out_count() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return sampled_out_;
}

int64_t StreamSource::dropped_disconnected_count() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return dropped_disconnected_;
}

int64_t StreamSource::filled_missing_count() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return filled_missing_;
}

}  // namespace gsn::vsensor
