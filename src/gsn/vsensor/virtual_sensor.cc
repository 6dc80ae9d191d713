#include "gsn/vsensor/virtual_sensor.h"

#include "gsn/sql/parser.h"
#include "gsn/util/logging.h"

namespace gsn::vsensor {

VirtualSensor::VirtualSensor(
    VirtualSensorSpec spec,
    std::vector<std::vector<std::unique_ptr<StreamSource>>> sources,
    std::shared_ptr<Clock> clock, telemetry::MetricRegistry* metrics,
    telemetry::Tracer* tracer, std::string node)
    : spec_(std::move(spec)),
      clock_(std::move(clock)),
      tracer_(tracer),
      node_(std::move(node)) {
  telemetry::MetricRegistry* registry = metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  const telemetry::Labels sensor_label = {{"sensor", spec_.name}};
  metrics_.triggers = registry->GetCounter(
      "gsn_sensor_triggers_total", sensor_label,
      "Input batches processed by the virtual sensor pipeline");
  metrics_.tuples = registry->GetCounter(
      "gsn_sensor_tuples_total", sensor_label,
      "Output stream elements produced by the virtual sensor");
  metrics_.rate_limited = registry->GetCounter(
      "gsn_sensor_rate_limited_total", sensor_label,
      "Output elements dropped by the per-stream rate bound");
  metrics_.errors =
      registry->GetCounter("gsn_sensor_errors_total", sensor_label,
                           "Failed pipeline runs");
  metrics_.last_processing = registry->GetGauge(
      "gsn_sensor_last_processing_micros", sensor_label,
      "Processing time of the most recent trigger");
  metrics_.processing = registry->GetHistogram(
      "gsn_sensor_processing_micros", sensor_label,
      "In-container processing time per stream element trigger (Fig 3)");
  auto stage_histogram = [&](const char* stage) {
    telemetry::Labels labels = sensor_label;
    labels.emplace_back("stage", stage);
    return registry->GetHistogram(
        "gsn_pipeline_stage_micros", labels,
        "Per-stage latency of the 5-step processing pipeline");
  };
  metrics_.stage_window = stage_histogram("window_sql");
  metrics_.stage_stream_sql = stage_histogram("stream_sql");
  metrics_.stage_deliver = stage_histogram("deliver");
  metrics_.batch_size = registry->GetHistogram(
      "gsn_pipeline_batch_size", sensor_label,
      "Stream elements admitted per pipeline trigger");
  streams_.resize(spec_.input_streams.size());
  for (size_t i = 0; i < spec_.input_streams.size(); ++i) {
    StreamRuntime& rt = streams_[i];
    rt.spec = &spec_.input_streams[i];
    if (i < sources.size()) rt.sources = std::move(sources[i]);
    // Queries were validated by spec.Validate(); parse failures here
    // would be programmer error.
    Result<std::unique_ptr<sql::SelectStmt>> q =
        sql::ParseSelect(rt.spec->query);
    if (q.ok()) rt.query = *std::move(q);
    for (size_t s = 0; s < rt.spec->sources.size(); ++s) {
      Result<std::unique_ptr<sql::SelectStmt>> sq =
          sql::ParseSelect(rt.spec->sources[s].query);
      rt.source_queries.push_back(sq.ok() ? *std::move(sq) : nullptr);
      std::optional<sql::IncrementalPlan> plan;
      if (rt.source_queries.back() != nullptr && s < rt.sources.size()) {
        plan = sql::CompileIncremental(
            *rt.source_queries.back(), "wrapper",
            rt.sources[s]->wrapper().output_schema().WithTimedField());
      }
      rt.source_plans.push_back(std::move(plan));
    }
    // Rate bound: allow an initial burst of one element.
    rt.tokens = rt.spec->max_rate > 0 ? 1.0 : 0.0;
  }
}

Status VirtualSensor::Start() {
  for (StreamRuntime& stream : streams_) {
    for (auto& source : stream.sources) {
      GSN_RETURN_IF_ERROR(source->Start());
    }
  }
  GSN_LOG(kInfo, "vsensor") << "started '" << spec_.name << "' with "
                            << streams_.size() << " input stream(s)";
  return Status::OK();
}

void VirtualSensor::Stop() {
  for (StreamRuntime& stream : streams_) {
    for (auto& source : stream.sources) source->Stop();
  }
}

void VirtualSensor::AddListener(OutputListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.push_back(std::move(listener));
}

void VirtualSensor::AddBatchListener(BatchListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_listeners_.push_back(std::move(listener));
}

void VirtualSensor::SetErrorListener(ErrorListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  error_listener_ = std::move(listener);
}

Status VirtualSensor::PumpSources(Timestamp now) {
  Status first_error = Status::OK();
  for (StreamRuntime& stream : streams_) {
    for (auto& source : stream.sources) {
      const Status pumped = source->Pump(now);
      if (!pumped.ok() && first_error.ok()) first_error = pumped;
    }
  }
  return first_error;
}

void VirtualSensor::SetAdmitting(bool admitting) {
  for (StreamRuntime& stream : streams_) {
    for (auto& source : stream.sources) source->SetAdmitting(admitting);
  }
}

size_t VirtualSensor::QueueDepth() const {
  size_t depth = 0;
  for (const StreamRuntime& stream : streams_) {
    for (const auto& source : stream.sources) depth += source->queue_depth();
  }
  return depth;
}

int64_t VirtualSensor::ShedCount() const {
  int64_t shed = 0;
  for (const StreamRuntime& stream : streams_) {
    for (const auto& source : stream.sources) shed += source->shed_count();
  }
  return shed;
}

bool VirtualSensor::AnyQueueFull() const {
  for (const StreamRuntime& stream : streams_) {
    for (const auto& source : stream.sources) {
      const int64_t capacity = source->queue_capacity();
      if (capacity > 0 &&
          static_cast<int64_t>(source->queue_depth()) >= capacity) {
        return true;
      }
    }
  }
  return false;
}

StreamSource* VirtualSensor::FindSource(const std::string& stream_name,
                                        const std::string& alias) {
  for (StreamRuntime& stream : streams_) {
    if (!StrEqualsIgnoreCase(stream.spec->name, stream_name)) continue;
    for (auto& source : stream.sources) {
      if (StrEqualsIgnoreCase(source->spec().alias, alias)) {
        return source.get();
      }
    }
  }
  return nullptr;
}

VirtualSensor::Stats VirtualSensor::stats() const {
  Stats stats;
  stats.triggers = metrics_.triggers->Value();
  stats.produced = metrics_.tuples->Value();
  stats.rate_limited = metrics_.rate_limited->Value();
  stats.errors = metrics_.errors->Value();
  const telemetry::Histogram::Snapshot processing =
      metrics_.processing->TakeSnapshot();
  stats.total_processing_micros = processing.sum;
  stats.last_processing_micros = metrics_.last_processing->Value();
  return stats;
}

Result<int> VirtualSensor::Tick(Timestamp now) {
  int produced = 0;
  for (StreamRuntime& stream : streams_) {
    // Poll every source; any admitted element triggers the pipeline
    // (paper §3: "the production of a new output stream element ... is
    // always triggered by the arrival of a data stream element from
    // one of its input streams").
    // The pipeline continues the trace of the first traced element
    // admitted this tick (one trigger = one pipeline run, even when a
    // batch arrives).
    TraceContext trigger_ctx;
    std::vector<StreamElement> trigger_elements;
    for (auto& source : stream.sources) {
      GSN_ASSIGN_OR_RETURN(std::vector<StreamElement> admitted,
                           source->Poll(now));
      for (StreamElement& e : admitted) {
        if (!trigger_ctx.valid() && e.trace.valid()) trigger_ctx = e.trace;
        trigger_elements.push_back(std::move(e));
      }
    }
    if (trigger_elements.empty()) continue;
    metrics_.batch_size->Observe(
        static_cast<int64_t>(trigger_elements.size()));

    telemetry::Span pipeline(tracer_, "vsensor.pipeline", trigger_ctx,
                             metrics_.processing.get());
    pipeline.set_sensor(spec_.name);
    pipeline.set_node(node_);
    Result<int> n = ProcessStream(&stream, now, pipeline.context());
    metrics_.last_processing->Set(pipeline.Stop());
    metrics_.triggers->Increment();
    if (!n.ok()) {
      metrics_.errors->Increment();
      pipeline.set_error();
    } else {
      metrics_.tuples->Increment(*n);
    }
    if (!n.ok()) {
      GSN_LOG(kWarn, "vsensor")
          << "'" << spec_.name << "' stream '" << stream.spec->name
          << "' failed: " << n.status().ToString();
      ErrorListener on_error;
      {
        std::lock_guard<std::mutex> lock(mu_);
        on_error = error_listener_;
      }
      if (on_error) {
        on_error(*this, stream.spec->name, n.status(), trigger_elements);
      }
      continue;
    }
    produced += *n;
  }
  return produced;
}

Result<int> VirtualSensor::ProcessStream(StreamRuntime* stream, Timestamp now,
                                         const TraceContext& trace) {
  if (stream->query == nullptr) {
    return Status::Internal("stream query not parsed for '" +
                            stream->spec->name + "'");
  }

  // Steps 2+3: window selection and per-source queries into temporary
  // relations named by alias.
  sql::MapResolver temp_relations;
  {
    telemetry::Span stage(tracer_, "vsensor.window_sql", trace,
                          metrics_.stage_window.get());
    stage.set_sensor(spec_.name);
    stage.set_node(node_);
    for (size_t i = 0; i < stream->sources.size(); ++i) {
      StreamSource* source = stream->sources[i].get();
      if (stream->source_queries[i] == nullptr) {
        return Status::Internal("source query not parsed for alias '" +
                                source->spec().alias + "'");
      }
      Relation temp;
      if (const auto& plan = stream->source_plans[i]; plan.has_value()) {
        GSN_ASSIGN_OR_RETURN(temp, source->WindowAnswer(*plan, now));
      } else {
        sql::MapResolver wrapper_relation;
        wrapper_relation.Put("wrapper", source->WindowRelation(now));
        sql::Executor source_exec(&wrapper_relation);
        GSN_ASSIGN_OR_RETURN(temp,
                             source_exec.Execute(*stream->source_queries[i]));
      }
      temp_relations.Put(source->spec().alias, std::move(temp));
    }
  }

  // Step 4: the input stream query over the temporaries.
  sql::Executor stream_exec(&temp_relations);
  Result<Relation> result_or = [&]() -> Result<Relation> {
    telemetry::Span stage(tracer_, "vsensor.stream_sql", trace,
                          metrics_.stage_stream_sql.get());
    stage.set_sensor(spec_.name);
    stage.set_node(node_);
    Result<Relation> r = stream_exec.Execute(*stream->query);
    if (!r.ok()) stage.set_error();
    return r;
  }();
  if (!result_or.ok()) return result_or.status();
  Relation result = *std::move(result_or);

  // Step 5: map rows to the output structure, rate-bound, notify.
  // Refill the token bucket (burst capacity: one second of tokens).
  if (stream->spec->max_rate > 0) {
    if (stream->last_refill == 0) stream->last_refill = now;
    const double elapsed_sec =
        static_cast<double>(now - stream->last_refill) / kMicrosPerSecond;
    stream->tokens = std::min(stream->spec->max_rate,
                              stream->tokens +
                                  elapsed_sec * stream->spec->max_rate);
    stream->last_refill = now;
  }

  // Step 5 span: output mapping plus listener fan-out.
  telemetry::Span deliver_stage(tracer_, "vsensor.deliver", trace,
                                metrics_.stage_deliver.get());
  deliver_stage.set_sensor(spec_.name);
  deliver_stage.set_node(node_);
  std::vector<StreamElement> outputs;
  outputs.reserve(result.NumRows());
  for (const Relation::Row& row : result.rows()) {
    if (stream->spec->max_rate > 0) {
      if (stream->tokens < 1.0) {
        metrics_.rate_limited->Increment();
        continue;
      }
      stream->tokens -= 1.0;
    }
    GSN_ASSIGN_OR_RETURN(StreamElement element,
                         MapToOutput(result.schema(), row, now));
    // Consumers of this element (storage, notifications, remote
    // delivery) hang their spans off the pipeline span.
    element.trace = trace;
    outputs.push_back(std::move(element));
  }

  // One listener snapshot per trigger, not per element; per-element
  // listeners still see each element individually (in order), batch
  // listeners get the whole trigger's output in a single call.
  std::vector<OutputListener> listeners;
  std::vector<BatchListener> batch_listeners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listeners = listeners_;
    batch_listeners = batch_listeners_;
  }
  for (const StreamElement& element : outputs) {
    for (const OutputListener& listener : listeners) {
      listener(*this, element);
    }
  }
  if (!outputs.empty()) {
    for (const BatchListener& listener : batch_listeners) {
      listener(*this, outputs);
    }
  }
  return static_cast<int>(outputs.size());
}

Result<StreamElement> VirtualSensor::MapToOutput(const Schema& result_schema,
                                                 const Relation::Row& row,
                                                 Timestamp now) {
  StreamElement element;
  // Step 1 (for the output stream): stamp with the local clock unless
  // the query propagated a `timed` column (then observation time wins).
  element.timed = now;
  Result<size_t> timed_idx = result_schema.IndexOf(kTimedField);
  if (timed_idx.ok() && row[*timed_idx].is_timestamp()) {
    element.timed = row[*timed_idx].timestamp_value();
  }

  // Columns eligible for positional mapping (everything but `timed`).
  std::vector<size_t> non_timed_cols;
  for (size_t i = 0; i < result_schema.size(); ++i) {
    if (!StrEqualsIgnoreCase(result_schema.field(i).name, kTimedField)) {
      non_timed_cols.push_back(i);
    }
  }
  const bool positional_ok =
      non_timed_cols.size() == spec_.output_structure.size();

  element.values.reserve(spec_.output_structure.size());
  for (size_t field_idx = 0; field_idx < spec_.output_structure.size();
       ++field_idx) {
    const Field& field = spec_.output_structure.field(field_idx);
    Result<size_t> idx = result_schema.IndexOf(field.name);
    if (!idx.ok() && positional_ok) {
      // Fig 1 of the paper writes `select avg(temperature) from WRAPPER`
      // with a declared TEMPERATURE output field: when names don't line
      // up but arity does, map result columns to output fields by
      // position, as the original GSN deployments expect.
      idx = non_timed_cols[field_idx];
    }
    if (!idx.ok()) {
      if (!missing_column_warned_) {
        missing_column_warned_ = true;
        GSN_LOG(kWarn, "vsensor")
            << "'" << spec_.name << "': query result has no column '"
            << field.name << "'; emitting NULL (result schema: "
            << result_schema.ToString() << ")";
      }
      element.values.push_back(Value::Null());
      continue;
    }
    const Value& v = row[*idx];
    if (v.is_null()) {
      element.values.push_back(Value::Null());
      continue;
    }
    Result<Value> cast = v.CastTo(field.type);
    if (!cast.ok()) {
      return Status::ExecutionError(
          "cannot cast value " + v.ToString() + " to " +
          DataTypeName(field.type) + " for output field '" + field.name +
          "' of '" + spec_.name + "'");
    }
    element.values.push_back(*std::move(cast));
  }
  return element;
}

}  // namespace gsn::vsensor
