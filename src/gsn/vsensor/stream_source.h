#ifndef GSN_VSENSOR_STREAM_SOURCE_H_
#define GSN_VSENSOR_STREAM_SOURCE_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "gsn/storage/window_buffer.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/rng.h"
#include "gsn/vsensor/spec.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::vsensor {

/// One running stream source: a wrapper plus the stream-quality
/// machinery of the input stream manager (paper §4: "the input stream
/// manager ... manages the input streams and ensures stream quality
/// (disconnections, unexpected delays, missing values)").
///
/// Per element, in order:
///   0. admission queue — the source's one queue, a bounded FIFO before
///      the pipeline (overload protection, paper §3: "avoid overloads"),
///      filled by polling a pull wrapper or by a push source's Offer; a
///      full queue sheds per the configured ShedPolicy (drop-oldest /
///      drop-newest / block — block stops polling the wrapper, i.e.
///      upstream backpressure; a pusher cannot wait, see Offer);
///   1. sampling  — admit with probability `sampling-rate` (paper §3:
///      "sampling of data streams in order to reduce the data rate");
///   2. disconnect handling — while disconnected, admitted elements go
///      to a bounded FIFO (`disconnect-buffer`); on reconnect they are
///      replayed ahead of new data, oldest dropped on overflow;
///   3. windowing — admitted elements enter the source's count/time
///      window, the relation its SQL sees as WRAPPER.
class StreamSource {
 public:
  /// Registers per-wrapper-type telemetry (poll-loop latency, elements
  /// produced) in `metrics`, defaulting to the process registry. When a
  /// `tracer` is given, every admitted element is stamped with a trace
  /// context: a fresh root trace ("wrapper.produce") for untraced
  /// elements, or a "source.admit" child span when the element already
  /// carries one (remote deliveries continuing the producer's trace).
  StreamSource(StreamSourceSpec spec,
               std::unique_ptr<wrappers::Wrapper> wrapper, uint64_t seed,
               telemetry::MetricRegistry* metrics = nullptr,
               telemetry::Tracer* tracer = nullptr, std::string node = "");

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  Status Start() { return wrapper_->Start(); }
  void Stop() { wrapper_->Stop(); }

  /// Resolves the admission queue bound and shed policy: the spec's
  /// own values when set, otherwise the container defaults given here.
  /// `sensor` labels the queue-depth series so the container can drop
  /// it at undeploy. `arrival_hook` runs, outside the admission lock,
  /// whenever an element reaches the source between polls: an Offer
  /// that enqueued, an Inject, or a reconnect over a buffered backlog.
  /// Call once at deploy, before any Poll or Offer.
  void ConfigureAdmission(const std::string& sensor, int64_t default_capacity,
                          ShedPolicy default_policy,
                          telemetry::MetricRegistry* metrics = nullptr,
                          std::function<void()> arrival_hook = {});

  /// What Offer does with an element it could only take by waiting
  /// (policy block on a full queue, or a source not admitting).
  enum class WhenBlocked {
    kShed,    // shed and count it: a local chain cannot re-send it
    kRefuse,  // leave it: a remote producer re-sends it on a NACK
  };
  /// The push entry: enqueues `elements` in order under the same bound
  /// and shed policy as a poll, without ever waiting. Returns how many
  /// it took (enqueued or shed), a prefix of `elements`.
  size_t Offer(std::vector<StreamElement> elements, WhenBlocked when_blocked);

  /// Pumps the wrapper into the admission queue and drains the queue
  /// through the admission pipeline. Returns the elements newly
  /// admitted to the window at this poll (the pipeline triggers on
  /// them).
  Result<std::vector<StreamElement>> Poll(Timestamp now);

  /// Pumps the wrapper into the admission queue WITHOUT draining it —
  /// used while the owning sensor is paused for a supervised restart,
  /// so backlog builds observably (and sheds per policy) instead of
  /// stalling or silently vanishing.
  Status Pump(Timestamp now);

  /// Queues an element for re-admission ahead of new data on the next
  /// Poll (quarantine requeue) and runs the arrival hook. Bypasses
  /// sampling and disconnect handling — the element already passed both
  /// once — so delivery is at-least-once.
  void Inject(const StreamElement& element);

  /// Drain gate: while false, Poll stops pumping the wrapper (no new
  /// load admitted) but keeps draining what is already queued.
  void SetAdmitting(bool admitting);
  bool admitting() const;

  /// The window contents as a flat relation (schema: timed + wrapper
  /// schema), i.e. the WRAPPER relation of the source query.
  Relation WindowRelation(Timestamp now) const;
  /// `plan`'s answer over the window as of `now`, from the state the
  /// window keeps beside its rows (WindowBuffer::Answer).
  Result<Relation> WindowAnswer(const sql::IncrementalPlan& plan,
                                Timestamp now) const {
    return window_.Answer(plan, now);
  }

  /// Simulates link loss/recovery for this source. A reconnect over a
  /// buffered backlog runs the arrival hook: the next Poll replays it.
  void SetConnected(bool connected);
  bool connected() const;

  const StreamSourceSpec& spec() const { return spec_; }
  const wrappers::Wrapper& wrapper() const { return *wrapper_; }
  wrappers::Wrapper* mutable_wrapper() { return wrapper_.get(); }

  // -- Stream-quality counters ------------------------------------------
  int64_t admitted_count() const;
  int64_t sampled_out_count() const;
  int64_t dropped_disconnected_count() const;
  int64_t filled_missing_count() const;

  // -- Overload-protection introspection --------------------------------
  size_t queue_depth() const;
  int64_t shed_count() const;
  int64_t queue_capacity() const;
  ShedPolicy shed_policy() const;

 private:
  /// One admission-queue slot: the element plus its steady-clock
  /// enqueue stamp, so the drain observes real queue-wait time
  /// (gsn_queue_wait_micros) even when the container runs on a
  /// VirtualClock.
  struct QueuedElement {
    StreamElement element;
    int64_t enqueued_micros = 0;
  };

  /// Wrapper → admission queue under the shed policy.
  Status PumpLocked(Timestamp now,
                    std::unique_lock<telemetry::TimedMutex>* lock);
  /// The enqueue-and-shed loop of polls and offers. Returns how many it
  /// took; `*enqueued` counts those that entered the queue.
  size_t EnqueueLocked(std::vector<StreamElement>& elements,
                       WhenBlocked when_blocked, size_t* enqueued);
  /// Stamps/continues trace contexts on the elements admitted this
  /// poll (no-op without a tracer).
  void StampTraces(std::vector<StreamElement>* admitted);

  const StreamSourceSpec spec_;
  std::unique_ptr<wrappers::Wrapper> wrapper_;
  storage::WindowBuffer window_;
  Rng rng_;
  telemetry::Tracer* tracer_ = nullptr;
  std::string node_;
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  std::shared_ptr<telemetry::Histogram> poll_micros_;
  std::shared_ptr<telemetry::Counter> produced_total_;

  /// Instrumented at ConfigureAdmission so deployed sources report
  /// admission-lock contention (lock="admission") to the profiler.
  mutable telemetry::TimedMutex mu_;
  bool connected_ = true;
  std::deque<StreamElement> disconnect_buffer_;
  int64_t admitted_ = 0;
  int64_t sampled_out_ = 0;
  int64_t dropped_disconnected_ = 0;
  int64_t filled_missing_ = 0;
  /// Last non-NULL value per column (fill-missing="last").
  std::vector<Value> last_known_;

  // -- Overload protection ----------------------------------------------
  /// Wrapper output waiting for the pipeline (bounded by
  /// queue_capacity_ under shed_policy_).
  std::deque<QueuedElement> admission_queue_;
  /// Requeued quarantine elements, admitted ahead of the queue.
  std::deque<StreamElement> injected_;
  /// 0 = unbounded (standalone sources, before ConfigureAdmission);
  /// deployed sources always get a positive bound.
  int64_t queue_capacity_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kDropOldest;
  bool admitting_ = true;
  int64_t shed_ = 0;
  std::shared_ptr<telemetry::Counter> shed_total_;   // label policy=
  std::shared_ptr<telemetry::Gauge> depth_gauge_;    // labels sensor=,source=
  /// Time elements spend queued between wrapper and pipeline
  /// (labels sensor=,source=); null until ConfigureAdmission.
  std::shared_ptr<telemetry::Histogram> queue_wait_micros_;
  std::function<void()> arrival_hook_;  // set once, at ConfigureAdmission
};

}  // namespace gsn::vsensor

#endif  // GSN_VSENSOR_STREAM_SOURCE_H_
