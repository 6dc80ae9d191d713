#include "gsn/container/container.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "gsn/container/local_stream_wrapper.h"
#include "gsn/sql/parser.h"
#include "gsn/types/codec.h"
#include "gsn/util/hash.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::container {

using network::DirectoryEntry;
using vsensor::StreamSource;
using vsensor::VirtualSensor;
using vsensor::VirtualSensorSpec;

namespace {
/// Bound on rows a permanent table parks between a window eviction and
/// the checkpoint that flushes them into a segment; oldest dropped (and
/// counted) beyond it.
constexpr size_t kMaxPendingHistoryRows = 1 << 18;

/// Fills in the defaults members read during construction.
Container::Options WithDefaultClock(Container::Options options) {
  if (options.clock == nullptr) options.clock = SystemClock::Shared();
  return options;
}
}  // namespace

Container::Container(Options options)
    : options_(WithDefaultClock(std::move(options))),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<telemetry::MetricRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      owned_tracer_(options_.tracer == nullptr
                        ? std::make_unique<telemetry::Tracer>()
                        : nullptr),
      tracer_(options_.tracer != nullptr ? options_.tracer
                                         : owned_tracer_.get()),
      query_manager_(&catalog_, metrics_),
      notifications_(metrics_, tracer_),
      federation_(options_.node_id, options_.clock, options_.seed,
                  options_.network, options_.integrity_key, metrics_,
                  tracer_) {
  query_manager_.set_tracer(tracer_);
  sensors_deployed_ = metrics_->GetGauge(
      "gsn_sensors_deployed", {{"node", options_.node_id}},
      "Virtual sensors currently deployed on this node");
  const telemetry::Labels node_label = {{"node", options_.node_id}};
  // The sharded deployment core (docs/CONCURRENCY.md): resolve the
  // shard count, build the shards, and instrument every lock before
  // any other thread can touch the container.
  int num_shards = options_.sharding.shards;
  if (num_shards <= 0) {
    num_shards =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  int tick_workers = options_.sharding.tick_workers;
  if (tick_workers <= 0) tick_workers = num_shards;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    const std::string shard_label = std::to_string(i);
    shard->mu.Instrument(
        metrics_, "shard-" + shard_label,
        {{"node", options_.node_id}, {"shard", shard_label}});
    shard->rng =
        Rng(options_.seed * 2654435761u + 97 + static_cast<uint64_t>(i));
    shard->sensors_gauge = metrics_->GetGauge(
        "gsn_shard_sensors",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Virtual sensors currently hosted by this shard");
    shard->ticks_total = metrics_->GetCounter(
        "gsn_shard_ticks_total",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Sensor pipeline drains executed by this shard's tick workers");
    shard->lock_wait_gauge = metrics_->GetGauge(
        "gsn_shard_lock_wait_micros",
        {{"node", options_.node_id}, {"shard", shard_label}},
        "Cumulative micros spent blocked on this shard's lock");
    shards_.push_back(std::move(shard));
  }
  if (num_shards > 1) tick_pool_ = std::make_unique<ThreadPool>(tick_workers);
  chain_mu_.Instrument(metrics_, "chaining", node_label);
  tick_micros_ = metrics_->GetHistogram(
      "gsn_tick_micros", node_label,
      "Container round (Tick) wall time, interval and wake rounds alike");
  const char* phase_help =
      "Per-round latency breakdown by scheduling phase (resilience / "
      "dispatch / checkpoint), plus the pool-thread storage and fan-out "
      "spans";
  tick_phase_resilience_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "resilience"}}, phase_help);
  tick_phase_dispatch_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "dispatch"}}, phase_help);
  tick_phase_checkpoint_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "checkpoint"}}, phase_help);
  batch_storage_micros_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "storage"}}, phase_help);
  batch_fanout_micros_ = metrics_->GetHistogram(
      "gsn_tick_phase_micros",
      {{"node", options_.node_id}, {"phase", "fanout"}}, phase_help);
  build_info_ = metrics_->GetGauge(
      "gsn_build_info",
      {{"node", options_.node_id},
       {"version", telemetry::BuildVersion()},
       {"compiler", telemetry::BuildCompiler()}},
      "Build metadata carried in labels; the value is always 1");
  build_info_->Set(1);
  uptime_gauge_ = metrics_->GetGauge(
      "gsn_uptime_seconds", node_label,
      "Seconds since this container was constructed (steady clock)");
  started_steady_micros_ = telemetry::SteadyClock::Instance()->NowMicros();
  interval_round_end_.store(started_steady_micros_);
  wrappers::WrapperRegistry::RegisterBuiltins(&registry_);
  quarantine_ = std::make_unique<QuarantineStore>(
      options_.supervision.quarantine_capacity, metrics_);
  recovery_records_gauge_ = metrics_->GetGauge(
      "gsn_recovery_records", node_label,
      "Manifest events replayed by the last crash-recovery pass");
  recovery_seconds_gauge_ = metrics_->GetGauge(
      "gsn_recovery_seconds", node_label,
      "Wall-clock seconds the last crash-recovery pass took (floored)");
  last_checkpoint_ = options_.clock->NowMicros();
  // Without an explicit storage_dir both the per-sensor persistence
  // logs and the columnar history land under data_dir, so --data-dir
  // alone is a complete durability root.
  if (options_.storage_dir.empty()) options_.storage_dir = options_.data_dir;
  // The history tier opens before manifest recovery: redeployed sensors
  // dedup their WAL-replayed pending rows against already-flushed
  // segments (see DeploySpec).
  if (!options_.storage_dir.empty()) {
    storage::columnar::SegmentCatalog::Options seg_options;
    seg_options.rows_per_chunk = options_.columnar.rows_per_chunk;
    seg_options.metrics = metrics_;
    seg_options.labels = node_label;
    Result<std::unique_ptr<storage::columnar::SegmentCatalog>> catalog =
        storage::columnar::SegmentCatalog::Open(
            options_.storage_dir + "/segments", seg_options);
    if (!catalog.ok()) {
      GSN_LOG(kError, "container")
          << options_.node_id << ": cannot open segment catalog: "
          << catalog.status() << "; history tier disabled";
    } else {
      segments_ = *std::move(catalog);
      tables_.AttachHistory(segments_.get());
      if (segments_->discarded_on_recovery() > 0 ||
          segments_->orphans_removed() > 0) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": segment recovery discarded "
            << segments_->discarded_on_recovery() << " torn segment(s), "
            << segments_->orphans_removed() << " orphan file(s)";
      }
    }
  }
  if (!options_.data_dir.empty()) RecoverFromManifest();
}

Container::~Container() {
  // Process teardown, not operator intent: undeploys below must not
  // record manifest undeploy events (the sensors come back on restart).
  shutting_down_.store(true, std::memory_order_release);
  // Stop sensors before members are torn down. Undeploy waits out any
  // tick worker still inside a sensor (busy-flag barrier).
  std::vector<std::string> names = ListSensors();
  for (const std::string& name : names) {
    const Status s = Undeploy(name);
    (void)s;
  }
  // Quiesce the tick workers before shards/members are destroyed.
  if (tick_pool_ != nullptr) tick_pool_->Shutdown();
}

const char* Container::SensorStateName(SensorState state) {
  switch (state) {
    case SensorState::kRunning:
      return "running";
    case SensorState::kRestarting:
      return "restarting";
    case SensorState::kFailed:
      return "failed";
  }
  return "running";
}

void Container::RecoverFromManifest() {
  const int64_t recovery_start =
      telemetry::SteadyClock::Instance()->NowMicros();
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  if (ec) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": cannot create data dir '"
        << options_.data_dir << "': " << ec.message();
    return;
  }
  const std::string path = options_.data_dir + "/manifest.gsnlog";
  bool torn = false;
  Result<std::vector<ContainerManifest::Event>> events =
      ContainerManifest::Recover(path, &torn);
  if (!events.ok()) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": manifest unreadable: " << events.status();
    return;
  }
  Result<std::unique_ptr<ContainerManifest>> manifest =
      ContainerManifest::Open(path);
  if (!manifest.ok()) {
    GSN_LOG(kError, "container")
        << options_.node_id << ": cannot open manifest: " << manifest.status();
    return;
  }
  manifest_ = *std::move(manifest);

  recovering_ = true;
  const std::vector<std::pair<std::string, std::string>> live =
      ContainerManifest::LiveSet(*events);
  for (const auto& [name, xml] : live) {
    Result<VirtualSensor*> redeployed = Deploy(xml);
    if (!redeployed.ok()) {
      ++recovery_failures_;
      GSN_LOG(kError, "container")
          << options_.node_id << ": recovery redeploy of '" << name
          << "' failed: " << redeployed.status();
    }
  }
  recovering_ = false;
  recovered_records_ = events->size();
  recovery_records_gauge_->Set(static_cast<int64_t>(recovered_records_));
  recovery_seconds_gauge_->Set(
      (telemetry::SteadyClock::Instance()->NowMicros() - recovery_start) /
      kMicrosPerSecond);
  if (!live.empty() || torn) {
    GSN_LOG(kInfo, "container")
        << options_.node_id << ": recovered "
        << live.size() - recovery_failures_ << "/" << live.size()
        << " sensors from " << recovered_records_ << " manifest event(s)";
  }
}

// ---------------------------------------------------------------- Deploy

Result<VirtualSensor*> Container::Deploy(const std::string& descriptor_xml,
                                         const std::string& api_key) {
  GSN_ASSIGN_OR_RETURN(VirtualSensorSpec spec,
                       vsensor::ParseDescriptor(descriptor_xml));
  return DeploySpec(std::move(spec), api_key);
}

Result<VirtualSensor*> Container::DeploySpec(VirtualSensorSpec spec,
                                             const std::string& api_key) {
  GSN_RETURN_IF_ERROR(access_control_.Check(api_key, Permission::kDeploy));
  GSN_RETURN_IF_ERROR(spec.Validate());
  const std::string key = StrToLower(spec.name);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    if (shard.deployments.count(key)) {
      return Status::AlreadyExists("sensor already deployed: " + spec.name);
    }
  }

  // Storage: the sensor's output history as a SQL-visible table.
  GSN_ASSIGN_OR_RETURN(
      storage::Table * table,
      tables_.CreateTable(spec.name, spec.output_structure,
                          spec.storage.history));
  // Built in place, not moved: its sources' arrival hooks hold its
  // address (for its woken flag) from the moment they exist.
  auto deployment = std::make_shared<Deployment>();
  deployment->key = key;
  deployment->table = table;
  // Undo table creation, and the local and remote subscriptions already
  // made for earlier sources, on any later failure. By `key`: `spec` is
  // moved into the sensor before the last failure points.
  auto unwind = [&] {
    {
      std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
      DetachLocalSourcesLocked(*deployment);
    }
    (void)tables_.DropTable(key);
    federation_.Forget(key);
  };
  // The table's scans read the history segments that survived for its
  // name; later checkpoints publish theirs to it as they flush.
  if (segments_ != nullptr) table->AttachSegments(segments_->SegmentsFor(key));

  // Permanent storage: open the per-sensor log and replay history.
  if (spec.storage.permanent && !options_.storage_dir.empty()) {
    const std::string path = WalPath(key);
    // Capture must be on before WAL replay: rows the replay pushes out
    // of the retention window are exactly the ones the next checkpoint
    // owes the history tier (or, post-crash, the ones to dedup below).
    if (segments_ != nullptr) {
      table->EnableHistoryCapture(kMaxPendingHistoryRows);
    }
    // An element that does not decode, or that the table rejects, is
    // skipped by the record rule; replay goes on past it.
    auto restore = [table](std::string_view payload) -> Status {
      GSN_ASSIGN_OR_RETURN(StreamElement element,
                           Codec::DecodeElementFromString(payload));
      return table->Insert(element);
    };
    const Status replayed = storage::RecordLog::Replay(path, restore).status();
    if (!replayed.ok()) {
      unwind();
      return replayed;
    }
    // Window/segment seam dedup: a crash between a segment flush and
    // the WAL rewrite leaves the flushed rows in both tiers. The rows
    // the replay just pushed out of the retention window are pending
    // again; walk this table's segments oldest-first and drop every
    // pending prefix whose content CRC matches a segment, restoring
    // exactly-once across the seam.
    if (segments_ != nullptr && table->history_capture_enabled()) {
      const Relation::RowList pending = table->PendingEvictedRows();
      size_t offset = 0;
      for (const storage::columnar::SegmentMeta& meta :
           segments_->SegmentsFor(key)) {
        const size_t n = static_cast<size_t>(meta.row_count);
        if (n == 0 || offset + n > pending.size()) continue;
        Relation::RowList prefix(pending.begin() + offset,
                                 pending.begin() + offset + n);
        if (storage::columnar::RowsCrc(prefix, n) == meta.rows_crc) {
          offset += n;
        }
      }
      if (offset > 0) {
        table->DropPendingPrefix(offset);
        GSN_LOG(kInfo, "container")
            << spec.name << ": dropped " << offset
            << " replayed row(s) already flushed to segments";
      }
    }
    Result<std::unique_ptr<storage::RecordLog>> log =
        storage::RecordLog::Open(path);
    if (!log.ok()) {
      unwind();
      return log.status();
    }
    deployment->log = *std::move(log);
  }

  // Wrappers and stream sources. A push source is wired once its
  // source exists: the bound and the arrival hook meet its first element.
  const auto wake = [this, d = deployment.get()] { WakeDeployment(d); };
  std::vector<std::vector<std::unique_ptr<StreamSource>>> sources(
      spec.input_streams.size());
  for (size_t i = 0; i < spec.input_streams.size(); ++i) {
    for (const vsensor::StreamSourceSpec& source_spec :
         spec.input_streams[i].sources) {
      std::string producer;  // set for wrapper="local"
      Result<std::unique_ptr<wrappers::Wrapper>> wrapper =
          MakeWrapperForSource(source_spec, key, deployment.get(), &producer);
      if (!wrapper.ok()) {
        unwind();
        return wrapper.status();
      }
      auto* remote =
          dynamic_cast<network::RemoteStreamWrapper*>(wrapper->get());
      if (remote == nullptr && producer.empty()) deployment->polls = true;
      const uint64_t seed =
          options_.seed * 1000003 +
          (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
      auto source = std::make_unique<StreamSource>(
          source_spec, *std::move(wrapper), seed, metrics_, tracer_,
          options_.node_id);
      source->ConfigureAdmission(
          spec.name, options_.supervision.queue_capacity,
          options_.supervision.shed_policy, metrics_, wake);
      StreamSource* raw = source.get();
      if (remote != nullptr) {
        remote->AttachSink([raw](std::vector<StreamElement> run) {
          return raw->Offer(std::move(run), StreamSource::WhenBlocked::kRefuse);
        });
      }
      if (!producer.empty()) {
        std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
        chained_sources_.emplace(producer, raw);
        deployment->local_sources.push_back(raw);
      }
      sources[i].push_back(std::move(source));
    }
  }

  const Timestamp now = options_.clock->NowMicros();
  deployment->deployed_at = now;
  if (spec.life_cycle.lifetime_micros > 0) {
    deployment->expires_at = now + spec.life_cycle.lifetime_micros;
  }
  deployment->sensor = std::make_unique<VirtualSensor>(
      std::move(spec), std::move(sources), options_.clock, metrics_, tracer_,
      options_.node_id);

  VirtualSensor* sensor = deployment->sensor.get();
  sensor->AddBatchListener(
      [this](const VirtualSensor& vs, const std::vector<StreamElement>& batch) {
        OnSensorBatch(vs, batch);
      });
  sensor->SetErrorListener(
      [this, key](const VirtualSensor& vs, const std::string& stream_name,
                  const Status& status,
                  const std::vector<StreamElement>& elements) {
        OnSensorError(key, vs, stream_name, status, elements);
      });
  deployment->state_gauge = metrics_->GetGauge(
      "gsn_sensor_state", {{"sensor", sensor->name()}},
      "Supervised sensor state (0 running, 1 restarting, 2 failed)");
  deployment->state_gauge->Set(0);
  deployment->restarts = metrics_->GetCounter(
      "gsn_sensor_restarts_total", {{"sensor", sensor->name()}},
      "Supervised restarts of the virtual sensor");

  const Status started = sensor->Start();
  if (!started.ok()) {
    unwind();
    return started;
  }

  const int system_sources = deployment->system_sources;
  bool inserted = false;
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    inserted = shard.deployments.emplace(key, deployment).second;
    if (inserted) {
      shard.sensors_gauge->Set(
          static_cast<int64_t>(shard.deployments.size()));
    }
  }
  if (!inserted) {
    // Lost a deploy race for the same name after the early check
    // (CreateTable normally arbitrates, but stay defensive).
    deployment->sensor->Stop();
    unwind();
    return Status::AlreadyExists("sensor already deployed: " +
                                 deployment->sensor->name());
  }
  sensors_deployed_->Set(
      total_deployments_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (system_sources > 0) {
    system_sources_total_.fetch_add(system_sources, std::memory_order_relaxed);
    // Prime the cache so the first scrape (one wrapper interval in)
    // never reads an all-zero snapshot.
    RefreshSystemSnapshot();
  }
  // Durable deploy record: a restarted container replays this to bring
  // the sensor back. Suppressed during the recovery replay itself.
  if (manifest_ != nullptr && !recovering_) {
    const Status logged = manifest_->AppendDeploy(key, sensor->spec().ToXml());
    if (!logged.ok()) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": manifest deploy record failed: " << logged;
    }
  }
  federation_.Publish(sensor->name(), sensor->spec().metadata,
                      sensor->spec().output_structure);
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": deployed '" << sensor->name() << "'";
  return sensor;
}

Result<std::unique_ptr<wrappers::Wrapper>> Container::MakeWrapperForSource(
    const vsensor::StreamSourceSpec& source_spec,
    const std::string& deployment_key, Deployment* deployment,
    std::string* producer) {
  // wrapper="local": derive from another virtual sensor on this
  // container (paper §2: "a data stream derived from other virtual
  // sensors"). Predicates address the producer like a directory query,
  // restricted to this node.
  if (StrEqualsIgnoreCase(source_spec.address.wrapper, "local")) {
    std::map<std::string, std::string> query = source_spec.address.predicates;
    query["node"] = options_.node_id;
    const std::vector<DirectoryEntry> matches = federation_.Discover(query);
    if (matches.empty()) {
      return Status::Unavailable(
          "no local virtual sensor matches the address predicates of "
          "source '" +
          source_spec.alias + "' (deploy the producer first)");
    }
    *producer = StrToLower(matches.front().sensor_name);
    return std::unique_ptr<wrappers::Wrapper>(
        std::make_unique<LocalStreamWrapper>(matches.front().output_schema));
  }

  // wrapper="system": the container itself wrapped as a data source
  // (self-observation — the paper's "anything producing data" applied
  // to the middleware). The provider reads the per-tick snapshot cache
  // under its own small lock, never a shard lock, so a sensor
  // monitoring its own container can never deadlock, and scraping
  // costs the same whether one or fifty sensors watch.
  if (StrEqualsIgnoreCase(source_spec.address.wrapper, "system")) {
    wrappers::WrapperConfig config;
    config.instance_name = source_spec.alias;
    config.params = source_spec.address.predicates;
    config.clock = options_.clock;
    config.seed =
        options_.seed * 7919 +
        (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
    ++deployment->system_sources;
    return wrappers::SystemWrapper::Make(
        config, [this] { return SystemSnapshotNow(); });
  }

  if (!StrEqualsIgnoreCase(source_spec.address.wrapper, "remote")) {
    wrappers::WrapperConfig config;
    config.instance_name = source_spec.alias;
    config.params = source_spec.address.predicates;
    config.clock = options_.clock;
    config.seed =
        options_.seed * 7919 +
        (wrapper_seed_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
    // The same wake as a push source's arrival hook.
    config.ready = [this, deployment] { WakeDeployment(deployment); };
    return registry_.Create(source_spec.address.wrapper, config);
  }

  // wrapper="remote": logical addressing through the directory.
  GSN_ASSIGN_OR_RETURN(
      std::unique_ptr<network::RemoteStreamWrapper> remote,
      federation_.Subscribe(deployment_key, source_spec.alias,
                            source_spec.address.predicates));
  return std::unique_ptr<wrappers::Wrapper>(std::move(remote));
}

Status Container::Undeploy(const std::string& sensor_name,
                           const std::string& api_key) {
  GSN_RETURN_IF_ERROR(access_control_.Check(api_key, Permission::kDeploy));
  const std::string key = StrToLower(sensor_name);
  Shard& shard = ShardFor(key);
  std::shared_ptr<Deployment> deployment;
  // Operator/lifetime undeploys are durable; teardown at process
  // exit is not (the whole point of crash recovery).
  const bool record_undeploy = !shutting_down_.load(std::memory_order_acquire);
  {
    std::unique_lock<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it == shard.deployments.end()) {
      return Status::NotFound("no such sensor: " + sensor_name);
    }
    deployment = it->second;
    shard.deployments.erase(it);
    shard.sensors_gauge->Set(static_cast<int64_t>(shard.deployments.size()));
    // Busy-flag barrier: a tick worker may still be inside this
    // sensor's pipeline; wait until it clears the flag before stopping
    // and destroying the sensor (the lifetime guarantee the per-sensor
    // pool Shutdown() used to provide).
    shard.idle_cv.wait(lock, [&] { return !deployment->busy; });
  }
  sensors_deployed_->Set(
      total_deployments_.fetch_sub(1, std::memory_order_relaxed) - 1);

  // Detach the chaining edges BEFORE stopping the sensor: after this
  // block no producer fan-out (which runs under chain_mu_) can offer
  // into the dying sensor, and its own consumers receive nothing new.
  {
    std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
    DetachLocalSourcesLocked(*deployment);
    chained_sources_.erase(key);
  }

  // Federation bookkeeping: our subscriptions on remote producers are
  // cancelled (no delivery or failover can reach their wrappers after
  // this), remote consumers of this sensor dropped, pending publish
  // rounds purged, and the directory entry retracted.
  federation_.Forget(deployment->sensor->name());

  if (deployment->system_sources > 0) {
    system_sources_total_.fetch_sub(deployment->system_sources,
                                    std::memory_order_relaxed);
  }
  deployment->sensor->Stop();

  GSN_RETURN_IF_ERROR(tables_.DropTable(sensor_name));
  // Operator undeploys retire the sensor's cold history and its WAL
  // with it, so deploying the name again starts empty; process-exit
  // teardown keeps both (they come back with the sensor on restart),
  // mirroring the manifest rule below.
  if (!recovering_ && record_undeploy) {
    if (segments_ != nullptr) {
      const Status dropped = segments_->DropTable(key);
      if (!dropped.ok()) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": segment drop for '" << sensor_name
            << "' failed: " << dropped;
      }
    }
    if (deployment->log != nullptr) {
      deployment->log.reset();
      std::error_code ec;
      std::filesystem::remove(WalPath(key), ec);
      if (ec) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": WAL removal for '" << sensor_name
            << "' failed: " << ec.message();
      }
    }
  }
  // Retire the sensor's metric series; its handles die with `deployment`.
  metrics_->RemoveWithLabel("sensor", deployment->sensor->name());
  if (manifest_ != nullptr && !recovering_ && record_undeploy) {
    const Status logged = manifest_->AppendUndeploy(key);
    if (!logged.ok()) {
      GSN_LOG(kWarn, "container")
          << options_.node_id << ": manifest undeploy record failed: "
          << logged;
    }
  }
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": undeployed '" << sensor_name << "'";
  return Status::OK();
}

void Container::DetachLocalSourcesLocked(const Deployment& deployment) {
  std::erase_if(chained_sources_, [&deployment](const auto& edge) {
    return std::ranges::find(deployment.local_sources, edge.second) !=
           deployment.local_sources.end();
  });
}

int Container::ShardIndexFor(const std::string& key) const {
  // FNV-1a over the (already lowercased) sensor key; stable across
  // runs so recovery with the same shard count lands sensors on the
  // same shard (and with a different count, simply elsewhere — no
  // state outlives the process that cares which shard a sensor used).
  return static_cast<int>(Fnv1a64(key) %
                          static_cast<uint64_t>(shards_.size()));
}

Container::Shard& Container::ShardFor(const std::string& key) const {
  return *shards_[ShardIndexFor(key)];
}

std::vector<std::string> Container::ListSensors() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      out.push_back(deployment->sensor->name());
    }
  }
  return out;
}

VirtualSensor* Container::FindSensor(const std::string& sensor_name) const {
  const std::string key = StrToLower(sensor_name);
  Shard& shard = ShardFor(key);
  std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
  auto it = shard.deployments.find(key);
  return it == shard.deployments.end() ? nullptr : it->second->sensor.get();
}

// ---------------------------------------------------------------- Runtime

Result<int> Container::Tick(Timestamp interval) {
  telemetry::Span tick_span(tick_micros_.get());
  const Timestamp now = options_.clock->NowMicros();
  const int64_t steady_now = telemetry::SteadyClock::Instance()->NowMicros();
  const bool interval_due =
      interval <= 0 || steady_now >= interval_round_end_.load() + interval;

  if (interval_due) {
    uptime_gauge_->Set((steady_now - started_steady_micros_) /
                       kMicrosPerSecond);
    // Directory anti-entropy, heartbeats, circuit breakers,
    // subscribe/NACK/publish retries, tips, failover.
    telemetry::Span phase(tick_phase_resilience_.get());
    federation_.RunRound(now);
  }

  // Drain the shards: one task per shard on the tick worker pool when an
  // interval round has several, otherwise inline. Concurrent Tick()
  // drivers (gsnd's RealtimePump plus an HTTP/management drain) are safe
  // without a global tick mutex: per-sensor exclusivity comes from the
  // busy flag, so a sensor another round is still draining is simply
  // skipped by this one. The round's deliveries to each peer leave
  // together when the burst closes (docs/TRANSPORT.md, "Bursts").
  telemetry::Span dispatch_phase(tick_phase_dispatch_.get());
  std::optional<network::Transport::Burst> burst(std::in_place,
                                                 options_.network);
  int produced = 0;
  if (!interval_due || tick_pool_ == nullptr || shards_.size() == 1) {
    for (auto& shard : shards_) {
      produced += TickShard(*shard, now, interval_due);
    }
  } else {
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t pending = shards_.size();
    std::atomic<int> total{0};
    // A local latch, not tick_pool_->Wait(): Wait() would also block
    // on shard tasks submitted by a concurrent Tick driver.
    auto finish_one = [&] {
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) done_cv.notify_all();
    };
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      const bool submitted = tick_pool_->Submit([&, s] {
        total.fetch_add(TickShard(*s, now, true), std::memory_order_relaxed);
        finish_one();
      });
      if (!submitted) {
        // Pool already shut down (drain at exit): run inline.
        total.fetch_add(TickShard(*s, now, true), std::memory_order_relaxed);
        finish_one();
      }
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return pending == 0; });
    produced = total.load(std::memory_order_relaxed);
  }
  burst.reset();
  dispatch_phase.Stop();
  if (!interval_due) return produced;

  // Periodic checkpoint: bound the manifest and every WAL (and with
  // them, the next recovery) to the live state, and move evicted rows
  // into the history tier. It needs storage, not a manifest:
  // storage_dir alone has WALs and segments to compact. try_lock keeps
  // the trigger single-flight across concurrent Tick drivers and skips
  // it while a manual checkpoint runs; the WAL swaps inside are
  // serialized against pipeline appends by each shard's lock.
  if (!options_.storage_dir.empty() &&
      options_.supervision.checkpoint_interval > 0) {
    std::unique_lock<std::mutex> cp_lock(checkpoint_mu_, std::try_to_lock);
    if (cp_lock.owns_lock() &&
        now - last_checkpoint_ >= options_.supervision.checkpoint_interval) {
      telemetry::Span phase(tick_phase_checkpoint_.get());
      last_checkpoint_ = now;
      const Status s = CheckpointLocked();
      if (!s.ok()) {
        GSN_LOG(kWarn, "container")
            << options_.node_id << ": checkpoint failed: " << s;
      }
    }
  }

  // Refresh the cache system wrappers scrape (no-op while none are
  // deployed). Last, so monitors read this round's state next poll.
  RefreshSystemSnapshot();
  interval_round_end_.store(telemetry::SteadyClock::Instance()->NowMicros());
  return produced;
}

void Container::WakeDeployment(Deployment* deployment) {
  // Clear-to-set only: a burst, or a sensor left woken because it
  // cannot run, costs at most one wake.
  if (deployment->woken.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_pending_ = true;
  }
  wake_cv_.notify_all();
}

bool Container::WaitForArrival(Timestamp interval,
                               const std::atomic<bool>& stop) {
  // SteadyClock reads std::chrono::steady_clock, so its micros convert.
  const std::chrono::steady_clock::time_point deadline(
      std::chrono::microseconds(interval_round_end_.load() + interval));
  std::unique_lock<std::mutex> lock(wake_mu_);
  wake_cv_.wait_until(lock, deadline,
                      [&] { return wake_pending_ || stop.load(); });
  return std::exchange(wake_pending_, false);
}

void Container::InterruptArrivalWait() {
  // Taking the lock orders this after a waiter's predicate check, so
  // the notify cannot fall between that check and its wait.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_all();
}

int Container::TickShard(Shard& shard, Timestamp now, bool interval_due) {
  struct Job {
    std::shared_ptr<Deployment> deployment;
    /// True while the supervisor has the sensor paused for restart
    /// backoff: its pull sources pump (queues fill, shed policies
    /// engage) but no pipeline runs, and its wake waits for the resume.
    bool paused = false;
    /// Set by the drain when nothing woke a sensor whose sources all
    /// push: it has nothing to run.
    bool idle = false;
  };
  std::vector<Job> jobs;
  std::vector<std::string> expired;
  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    jobs.reserve(shard.deployments.size());
    for (auto& [key, deployment] : shard.deployments) {
      // Whatever this loop skips keeps its woken flag, and a set flag is
      // never signalled again, so a sensor that cannot run does not spin
      // the pump: it runs in its first round once it can.
      if (deployment->expires_at > 0 && now >= deployment->expires_at) {
        if (interval_due) expired.push_back(deployment->sensor->name());
        continue;
      }
      if (deployment->state == SensorState::kFailed) continue;
      if (deployment->state == SensorState::kRestarting &&
          now >= deployment->resume_at) {
        deployment->state = SensorState::kRunning;
        deployment->state_gauge->Set(0);
        GSN_LOG(kInfo, "container")
            << options_.node_id << ": restarted '"
            << deployment->sensor->name() << "' (attempt "
            << deployment->restart_attempts << ")";
      }
      // Pull sources pump every interval, paused or not. A wake round
      // takes the woken sensors only; an interval round takes every one
      // that can run, so a chain sorted after its producer still drains
      // the producer's output in the same round.
      const bool paused = deployment->state == SensorState::kRestarting;
      if (paused && !(interval_due && deployment->polls)) continue;
      if (!interval_due && !deployment->woken.load()) continue;
      // Per-sensor tick exclusivity: a concurrent Tick driver that is
      // still draining this sensor owns it until the busy flag clears.
      if (deployment->busy) continue;
      deployment->busy = true;
      jobs.push_back({deployment, paused});
    }
  }

  // Lifetime bounds (paper §3): expired sensors release their
  // resources. Expired deployments were never marked busy, so the
  // Undeploy barrier below cannot wait on this worker.
  for (const std::string& name : expired) {
    GSN_LOG(kInfo, "container") << name << ": lifetime expired, undeploying";
    const Status s = Undeploy(name);
    if (!s.ok()) {
      GSN_LOG(kWarn, "container") << "lifetime undeploy failed: " << s;
    }
  }

  // Drain outside the shard lock: deploy/undeploy/status on this shard
  // block only for the map scans, never for pipeline work. A failing
  // sensor is handed to the supervisor instead of failing the round —
  // one bad sensor must never stall its neighbors.
  int produced = 0;
  std::vector<std::pair<std::string, Status>> failures;
  for (Job& job : jobs) {
    if (job.paused) {
      const Status pumped = job.deployment->sensor->PumpSources(now);
      if (!pumped.ok()) {
        GSN_LOG(kWarn, "container")
            << job.deployment->key << ": pump while paused failed: " << pumped;
      }
      continue;
    }
    // Cleared before the drain polls the wrappers: an arrival the poll
    // misses sets the flag again and wakes the next round.
    const bool woken = job.deployment->woken.exchange(false);
    if (!woken && !(interval_due && job.deployment->polls)) {
      job.idle = true;
      continue;
    }
    Result<int> n = job.deployment->sensor->Tick(now);
    if (n.ok()) {
      produced += *n;
    } else {
      failures.emplace_back(job.deployment->key, n.status());
    }
  }

  {
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    int64_t ran = 0;
    for (const Job& job : jobs) {
      job.deployment->busy = false;
      if (job.idle) continue;
      ++ran;
      if (job.paused) continue;
      // A sensor that keeps completing ticks after a restart earns its
      // retry budget back: max_attempts caps consecutive failures, not
      // lifetime totals — otherwise a few transient errors spread over
      // weeks would permanently FAIL the sensor (and pin readiness at
      // 503).
      if (options_.supervision.healthy_ticks_to_reset <= 0) continue;
      bool failed_this_tick = false;
      for (const auto& [key, status] : failures) {
        if (key == job.deployment->key) {
          failed_this_tick = true;
          break;
        }
      }
      if (failed_this_tick) continue;
      Deployment& deployment = *job.deployment;
      if (deployment.state != SensorState::kRunning ||
          deployment.restart_attempts == 0) {
        continue;
      }
      if (++deployment.healthy_ticks >=
          options_.supervision.healthy_ticks_to_reset) {
        GSN_LOG(kInfo, "container")
            << options_.node_id << ": '" << deployment.sensor->name()
            << "' healthy for " << deployment.healthy_ticks
            << " tick(s); restart budget restored";
        deployment.restart_attempts = 0;
        deployment.healthy_ticks = 0;
      }
    }
    shard.ticks_total->Increment(ran);
    shard.lock_wait_gauge->Set(
        static_cast<int64_t>(shard.mu.wait_micros_total()));
  }
  // Wake Undeploy barriers waiting for a busy flag we just cleared.
  shard.idle_cv.notify_all();

  for (const auto& [key, status] : failures) {
    HandleSensorFailure(key, status, now);
  }
  return produced;
}

void Container::HandleSensorFailure(const std::string& key,
                                    const Status& status, Timestamp now) {
  Shard& shard = ShardFor(key);
  std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
  auto it = shard.deployments.find(key);
  if (it == shard.deployments.end()) return;
  Deployment& deployment = *it->second;
  if (deployment.state == SensorState::kFailed) return;
  ++deployment.restart_attempts;
  deployment.healthy_ticks = 0;
  deployment.restarts->Increment();
  if (options_.supervision.retry.Exhausted(deployment.restart_attempts)) {
    deployment.state = SensorState::kFailed;
    deployment.state_gauge->Set(2);
    GSN_LOG(kError, "container")
        << options_.node_id << ": '" << deployment.sensor->name()
        << "' FAILED after " << deployment.restart_attempts
        << " restart(s); last error: " << status;
    return;
  }
  deployment.state = SensorState::kRestarting;
  deployment.state_gauge->Set(1);
  deployment.resume_at =
      now + options_.supervision.retry.BackoffForAttempt(
                deployment.restart_attempts, &shard.rng);
  GSN_LOG(kWarn, "container")
      << options_.node_id << ": '" << deployment.sensor->name()
      << "' paused for restart " << deployment.restart_attempts << " ("
      << status << ")";
}

void Container::OnSensorError(const std::string& key,
                              const VirtualSensor& sensor,
                              const std::string& stream_name,
                              const Status& status,
                              const std::vector<StreamElement>& elements) {
  // Dead-letter the trigger: the elements the pipeline choked on are
  // the suspects. The requeue target is the stream's first source (a
  // StreamElement does not record which source admitted it).
  std::string source_alias;
  for (const vsensor::InputStreamSpec& stream : sensor.spec().input_streams) {
    if (StrEqualsIgnoreCase(stream.name, stream_name) &&
        !stream.sources.empty()) {
      source_alias = stream.sources.front().alias;
      break;
    }
  }
  const Timestamp now = options_.clock->NowMicros();
  for (const StreamElement& element : elements) {
    quarantine_->Add(sensor.name(), stream_name, source_alias,
                     status.message(), now, element);
  }
  HandleSensorFailure(key, status, now);
}

Status Container::RequeueQuarantined(uint64_t id) {
  GSN_ASSIGN_OR_RETURN(QuarantineStore::Entry entry, quarantine_->Take(id));
  // Lookup AND Inject under the sensor's shard lock: a concurrent
  // Undeploy (descriptor watcher, another HTTP request) erases the
  // deployment under the same lock, so the sensor cannot be destroyed
  // between the find and the injection. Inject only takes the source's
  // own lock — a leaf, no ordering hazard against the shard lock.
  bool injected = false;
  {
    const std::string key = StrToLower(entry.sensor);
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    StreamSource* source =
        it == shard.deployments.end()
            ? nullptr
            : it->second->sensor->FindSource(entry.stream, entry.source_alias);
    if (source != nullptr) {
      source->Inject(entry.element);
      injected = true;
    }
  }
  if (!injected) {
    // Put it back rather than silently dropping a tuple the operator
    // asked to keep.
    quarantine_->Add(entry.sensor, entry.stream, entry.source_alias,
                     entry.error, entry.quarantined_at, entry.element);
    return Status::NotFound("quarantined tuple " + std::to_string(id) +
                            " has no live source '" + entry.stream + "/" +
                            entry.source_alias + "' on sensor '" +
                            entry.sensor + "'");
  }
  GSN_LOG(kInfo, "container")
      << options_.node_id << ": requeued quarantined tuple "
      << std::to_string(id) << " into " << entry.sensor << "/" << entry.stream;
  return Status::OK();
}

Status Container::Checkpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  return CheckpointLocked();
}

Status Container::CheckpointLocked() {
  Status first_error = Status::OK();
  // The manifest's mark comes before the live set: Deploy publishes to
  // its shard before it appends its record, and Undeploy erases before
  // it appends, so a record before the mark is reflected in the live set
  // collected below, and the compaction keeps every record after it.
  const uint64_t manifest_mark = manifest_ != nullptr ? manifest_->Mark() : 0;
  std::vector<std::pair<std::string, std::string>> live;
  // One shard at a time: pipelines on the other shards keep appending
  // while this shard's WALs rewrite. Never two shard locks at once.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    for (auto& [key, deployment_ptr] : shard.deployments) {
      Deployment& deployment = *deployment_ptr;
      live.emplace_back(key, deployment.sensor->spec().ToXml());
      if (deployment.log == nullptr) continue;
      // Tiered history: rows the retention window evicted since the
      // last checkpoint move into an immutable columnar segment BEFORE
      // the WAL rewrite drops them from the log. Durability order is
      // segment fsync -> catalog journal fsync -> WAL rewrite, so a
      // crash at any point leaves every row in at least one tier (the
      // deploy-time seam dedup handles "in both"). The rows stay pending,
      // and so visible to queries, until the table publishes the
      // segment in one step; if the flush fails nothing is published
      // and the rewrite is skipped — the uncompacted WAL remains their
      // durable home.
      if (segments_ != nullptr && deployment.table->history_capture_enabled()) {
        const Relation::RowList evicted =
            deployment.table->PendingEvictedRows();
        if (!evicted.empty()) {
          Result<storage::columnar::SegmentMeta> flushed = segments_->Flush(
              key, deployment.table->row_schema(), evicted);
          if (!flushed.ok()) {
            if (first_error.ok()) first_error = flushed.status();
            GSN_LOG(kWarn, "container")
                << options_.node_id << ": '" << deployment.sensor->name()
                << "' segment flush failed: " << flushed.status();
            continue;
          }
          deployment.table->PublishSegment(*std::move(flushed), evicted);
        }
      }
      // Rewrite the WAL to exactly the rows still inside the table's
      // retention window: recovery replays O(window), not O(history).
      // Pipeline appends (OnSensorBatch) also run under this shard's
      // lock, so none lands between the snapshot and the swap. A failed
      // Replace leaves the uncompacted WAL appendable.
      std::vector<std::string> payloads;
      for (const StreamElement& element :
           deployment.table->SnapshotElements()) {
        payloads.push_back(Codec::EncodeElementToString(element));
      }
      const Status replaced = deployment.log->Replace(payloads);
      if (!replaced.ok() && first_error.ok()) first_error = replaced;
    }
  }
  if (manifest_ != nullptr) {
    const Status compacted = manifest_->Compact(live, manifest_mark);
    if (!compacted.ok() && first_error.ok()) first_error = compacted;
  }
  return first_error;
}

Status Container::Shutdown() {
  // 1. Stop admitting new wrapper load (the queues keep their backlog).
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  for (auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (auto& [key, deployment] : shard->deployments) {
      deployment->sensor->SetAdmitting(false);
    }
  }
  GSN_LOG(kInfo, "container") << options_.node_id << ": draining";

  // 2. Flush what the admission queues already hold through the
  // pipelines. Bounded rounds: a wedged sensor must not hang shutdown.
  for (int round = 0; round < 16; ++round) {
    Result<int> n = Tick();
    if (!n.ok()) break;
    size_t depth = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
      for (const auto& [key, deployment] : shard->deployments) {
        depth += deployment->sensor->QueueDepth();
      }
    }
    if (*n == 0 && depth == 0) break;
  }

  // 3. Make everything durable: final checkpoint, then fsync.
  Status first_error = Checkpoint();
  for (auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (auto& [key, deployment] : shard->deployments) {
      if (deployment->log == nullptr) continue;
      const Status synced = deployment->log->Sync();
      if (!synced.ok() && first_error.ok()) first_error = synced;
    }
  }
  // 4. The destructor's undeploys are process exit, not intent.
  shutting_down_.store(true, std::memory_order_release);
  if (manifest_ != nullptr) {
    const Status synced = manifest_->Sync();
    if (!synced.ok() && first_error.ok()) first_error = synced;
  }
  GSN_LOG(kInfo, "container") << options_.node_id << ": drain complete";
  return first_error;
}

bool Container::draining() const {
  return draining_.load(std::memory_order_acquire);
}

Container::Health Container::GetHealth() const {
  Health health;
  if (draining()) {
    health.ready = false;
    health.reasons.push_back("draining");
  }
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      const std::string& name = deployment->sensor->name();
      if (deployment->state == SensorState::kFailed) {
        health.ready = false;
        health.reasons.push_back("sensor '" + name + "' failed");
      } else if (deployment->state == SensorState::kRestarting) {
        health.ready = false;
        health.reasons.push_back("sensor '" + name + "' restarting");
      }
      if (deployment->sensor->AnyQueueFull()) {
        health.ready = false;
        health.reasons.push_back("admission queue of '" + name +
                                 "' at capacity");
      }
    }
  }
  return health;
}

// ------------------------------------------------------- Self-observation

wrappers::SystemSnapshot Container::ComputeSystemSnapshot() const {
  wrappers::SystemSnapshot snap;
  // One shard at a time, the engine separately — never more than one
  // of these locks held at once.
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    snap.sensors += static_cast<int64_t>(shard->deployments.size());
    for (const auto& [key, deployment] : shard->deployments) {
      switch (deployment->state) {
        case SensorState::kRunning:
          ++snap.running;
          break;
        case SensorState::kRestarting:
          ++snap.restarting;
          break;
        case SensorState::kFailed:
          ++snap.failed;
          break;
      }
      snap.queue_depth +=
          static_cast<int64_t>(deployment->sensor->QueueDepth());
    }
  }
  for (const FederationEngine::Subscriber& subscriber :
       federation_.Subscribers()) {
    snap.replay_bytes += subscriber.replay_bytes;
  }
  for (const PeerStatus& peer : federation_.PeerStatuses()) {
    ++snap.peers;
    if (peer.circuit == "open") ++snap.open_circuits;
  }
  // Everything below reads components with their own synchronization:
  // holding a shard lock across them would only widen it.
  snap.quarantined = static_cast<int64_t>(quarantine_->size());
  if (segments_ != nullptr) {
    snap.segments = static_cast<int64_t>(segments_->segment_count());
    snap.segment_bytes = static_cast<int64_t>(segments_->total_bytes());
  }
  snap.shed_total = metrics_->SumCounters("gsn_admission_shed_total");
  snap.tuples_total = metrics_->SumCounters("gsn_sensor_tuples_total");
  snap.errors_total = metrics_->SumCounters("gsn_sensor_errors_total");
  snap.metric_series = static_cast<int64_t>(metrics_->NumSeries());
  const telemetry::Histogram::Snapshot ticks = tick_micros_->TakeSnapshot();
  if (ticks.count > 0) {
    snap.tick_mean_ms = ticks.Mean() / 1000.0;
    snap.tick_p95_ms = static_cast<double>(ticks.Quantile(0.95)) / 1000.0;
  }
  if (ticks.sum > 0) {
    snap.lock_wait_share =
        static_cast<double>(
            metrics_->SumHistograms("gsn_lock_wait_micros").sum) /
        static_cast<double>(ticks.sum);
  }
  const telemetry::Histogram::Snapshot queue_wait =
      metrics_->SumHistograms("gsn_queue_wait_micros");
  if (queue_wait.count > 0) {
    snap.queue_wait_p95_ms =
        static_cast<double>(queue_wait.Quantile(0.95)) / 1000.0;
  }
  const telemetry::ProcessStats proc = telemetry::ReadProcessStats();
  snap.rss_bytes = proc.rss_bytes;
  snap.cpu_seconds = proc.cpu_seconds;
  snap.uptime_seconds =
      (telemetry::SteadyClock::Instance()->NowMicros() -
       started_steady_micros_) /
      kMicrosPerSecond;
  return snap;
}

void Container::RefreshSystemSnapshot() {
  // Gate: without a deployed wrapper="system" source nobody reads the
  // cache, so self-scraping must cost nothing (fig3's overhead budget).
  if (system_sources_total_.load(std::memory_order_relaxed) == 0) return;
  wrappers::SystemSnapshot snap = ComputeSystemSnapshot();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  system_snapshot_ = std::move(snap);
}

wrappers::SystemSnapshot Container::SystemSnapshotNow() const {
  // Cache read only — a system wrapper polled from inside a tick
  // worker (which transiently holds its shard's lock) must never need
  // a shard lock itself.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return system_snapshot_;
}

Container::ContainerStatus Container::GetStatus() const {
  ContainerStatus status;
  status.node_id = options_.node_id;
  status.version = telemetry::BuildVersion();
  status.compiler = telemetry::BuildCompiler();
  status.draining = draining();
  status.health = GetHealth();
  status.totals = ComputeSystemSnapshot();
  for (const std::string& name : ListSensors()) {
    Result<SensorStatus> sensor = GetSensorStatus(name);
    if (sensor.ok()) status.sensors.push_back(*std::move(sensor));
  }
  status.peers = PeerStatuses();
  const auto lock_stats = [](const telemetry::TimedMutex& mu) {
    LockStats stats;
    stats.name = mu.label();
    stats.acquisitions = mu.acquisitions();
    stats.contended = mu.contended();
    stats.wait_micros = mu.wait_micros_total();
    return stats;
  };
  // Per-shard rows: contention is attributable to the shard that pays
  // it. The TimedMutex accessors are lock-free reads.
  for (const auto& shard : shards_) {
    ShardStatus row;
    row.index = shard->index;
    row.sensors = static_cast<size_t>(shard->sensors_gauge->Value());
    row.ticks_total = shard->ticks_total->Value();
    row.lock_acquisitions = shard->mu.acquisitions();
    row.lock_contended = shard->mu.contended();
    row.lock_wait_micros = shard->mu.wait_micros_total();
    status.shards.push_back(row);
    status.locks.push_back(lock_stats(shard->mu));
  }
  status.locks.push_back(lock_stats(federation_.lock()));
  status.locks.push_back(lock_stats(chain_mu_));
  status.locks.push_back(lock_stats(query_manager_.cache_lock()));
  const std::pair<const char*, const telemetry::Histogram*> spans[] = {
      {"tick", tick_micros_.get()},
      {"tick.resilience", tick_phase_resilience_.get()},
      {"tick.dispatch", tick_phase_dispatch_.get()},
      {"tick.checkpoint", tick_phase_checkpoint_.get()},
      {"batch.storage", batch_storage_micros_.get()},
      {"batch.fanout", batch_fanout_micros_.get()},
  };
  for (const auto& [name, histogram] : spans) {
    const telemetry::Histogram::Snapshot snap = histogram->TakeSnapshot();
    if (snap.count > 0) {
      status.hot_spans.push_back({name, snap.count, snap.sum, snap.max});
    }
  }
  std::sort(status.hot_spans.begin(), status.hot_spans.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.total_micros != b.total_micros
                         ? a.total_micros > b.total_micros
                         : a.name < b.name;
            });
  status.recovered_records = recovered_records_;
  status.recovery_failures = recovery_failures_;
  return status;
}

void Container::OnSensorBatch(const VirtualSensor& sensor,
                              const std::vector<StreamElement>& batch) {
  if (batch.empty()) return;
  const std::string& name = sensor.name();

  // Storage layer: the whole batch lands under the sensor's shard lock.
  // The WAL append stays inside the same critical section: Checkpoint()
  // snapshots the table and replaces the WAL under the shard lock, so
  // an append landing between the two would be dropped by the swap
  // (and lost to every future recovery). Keeping insert + append
  // atomic means a checkpoint snapshot always covers exactly the
  // batches appended before it.
  telemetry::Span storage_span(batch_storage_micros_.get());
  {
    const std::string key = StrToLower(name);
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it != shard.deployments.end()) {
      if (it->second->table != nullptr) {
        const Status s = it->second->table->InsertBatch(batch);
        if (!s.ok()) {
          GSN_LOG(kWarn, "container") << name << ": table insert failed: " << s;
        }
      }
      if (it->second->log != nullptr) {
        std::string payload;
        for (const StreamElement& element : batch) {
          payload.clear();
          Codec::EncodeElement(element, &payload);
          const Status s = it->second->log->Append(payload);
          if (!s.ok()) {
            GSN_LOG(kWarn, "container")
                << name << ": persistence failed: " << s;
            break;
          }
        }
      }
    }
  }
  storage_span.Stop();

  // Local chaining: offer the batch into each consumer's admission
  // queue. chain_mu_ is held ACROSS the offers — Undeploy detaches a
  // dying consumer's sources under the same lock, so fan-out can never
  // offer into a source whose sensor is being destroyed. Offer takes
  // only leaf locks, so this cannot deadlock, and producers on other
  // shards fan out concurrently only contending here.
  telemetry::Span fanout_span(batch_fanout_micros_.get());
  {
    std::lock_guard<telemetry::TimedMutex> lock(chain_mu_);
    auto range = chained_sources_.equal_range(StrToLower(name));
    for (auto it = range.first; it != range.second; ++it) {
      it->second->Offer(batch, StreamSource::WhenBlocked::kShed);
    }
  }

  // Notification manager (per-element conditions, one subscription
  // snapshot) + query repository (one evaluation pass per batch: the
  // continuous queries read the table state just inserted above).
  notifications_.OnBatch(name, sensor.output_schema(), batch);
  query_manager_.OnNewElementBatch(name, batch);

  // Remote consumers last, so none is notified before this node's own
  // (each element signed by the integrity layer).
  federation_.Deliver(name, batch);
}

// ---------------------------------------------------------------- Queries

Result<Relation> Container::Query(const std::string& sql_text,
                                  const std::string& api_key) {
  if (access_control_.enabled()) {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql_text));
    std::set<std::string> tables;
    QueryManager::CollectTables(*stmt, &tables);
    for (const std::string& table : tables) {
      GSN_RETURN_IF_ERROR(
          access_control_.Check(api_key, Permission::kRead, table));
    }
  }
  return query_manager_.Execute(sql_text);
}

// ------------------------------------------------------------- Federation

std::vector<DirectoryEntry> Container::Discover(
    const std::map<std::string, std::string>& query) const {
  return federation_.Discover(query);
}

void Container::AnnounceAll() { federation_.AnnounceAll(); }

std::vector<Container::PeerStatus> Container::PeerStatuses() const {
  return federation_.PeerStatuses();
}

Result<Relation> Container::CatalogResolver::GetTable(
    const std::string& name) const {
  const std::string key = StrToLower(name);
  if (key == "gsn_sensors") {
    Schema schema;
    schema.AddField("name", DataType::kString);
    schema.AddField("state", DataType::kString);
    schema.AddField("pool_size", DataType::kInt);
    schema.AddField("triggers", DataType::kInt);
    schema.AddField("produced", DataType::kInt);
    schema.AddField("rate_limited", DataType::kInt);
    schema.AddField("errors", DataType::kInt);
    schema.AddField("restarts", DataType::kInt);
    schema.AddField("queue_depth", DataType::kInt);
    schema.AddField("shed", DataType::kInt);
    schema.AddField("stored_rows", DataType::kInt);
    schema.AddField("stored_bytes", DataType::kInt);
    schema.AddField("remote_subscribers", DataType::kInt);
    Relation rel(schema);
    for (const std::string& sensor : container_->ListSensors()) {
      Result<SensorStatus> status = container_->GetSensorStatus(sensor);
      if (!status.ok()) continue;
      (void)rel.AddRow(
          {Value::String(status->name),
           Value::String(SensorStateName(status->state)),
           Value::Int(status->pool_size), Value::Int(status->stats.triggers),
           Value::Int(status->stats.produced),
           Value::Int(status->stats.rate_limited),
           Value::Int(status->stats.errors),
           Value::Int(status->restart_attempts),
           Value::Int(static_cast<int64_t>(status->queue_depth)),
           Value::Int(status->shed),
           Value::Int(static_cast<int64_t>(status->stored_rows)),
           Value::Int(static_cast<int64_t>(status->stored_bytes)),
           Value::Int(status->remote_subscribers)});
    }
    return rel;
  }
  if (key == "gsn_wrappers") {
    Schema schema;
    schema.AddField("name", DataType::kString);
    Relation rel(schema);
    for (const std::string& wrapper : container_->registry_.Names()) {
      (void)rel.AddRow({Value::String(wrapper)});
    }
    return rel;
  }
  if (key == "gsn_directory") {
    Schema schema;
    schema.AddField("sensor", DataType::kString);
    schema.AddField("node", DataType::kString);
    schema.AddField("predicates", DataType::kString);
    schema.AddField("output_schema", DataType::kString);
    Relation rel(schema);
    for (const DirectoryEntry& entry : container_->Discover({})) {
      std::string predicates;
      for (const auto& [k, v] : entry.predicates) {
        if (!predicates.empty()) predicates += ",";
        predicates += k + "=" + v;
      }
      (void)rel.AddRow({Value::String(entry.sensor_name),
                        Value::String(entry.node_id),
                        Value::String(predicates),
                        Value::String(entry.output_schema.ToString())});
    }
    return rel;
  }
  return container_->tables_.GetTable(name);
}

namespace {

bool IsVirtualTable(const std::string& key) {
  return key == "gsn_sensors" || key == "gsn_wrappers" ||
         key == "gsn_directory";
}

}  // namespace

Result<Relation> Container::CatalogResolver::GetTableFiltered(
    const std::string& name, const sql::ScanPredicate& predicate,
    sql::ScanStats* stats) const {
  // The gsn_* virtual tables are synthesized per query; no cold tier
  // to prune, so the predicate is left to the WHERE evaluation.
  if (IsVirtualTable(StrToLower(name))) return GetTable(name);
  return container_->tables_.GetTableFiltered(name, predicate, stats);
}

sql::ViewVersion Container::CatalogResolver::TableVersion(
    const std::string& name) const {
  // A virtual table is rebuilt per query: it has no versioned view.
  if (IsVirtualTable(StrToLower(name))) return sql::ViewVersion{};
  return container_->tables_.TableVersion(name);
}

std::vector<Container::TopologyEdge> Container::Topology() {
  std::vector<TopologyEdge> edges;
  for (const auto& shard : shards_) {
    std::lock_guard<telemetry::TimedMutex> lock(shard->mu);
    for (const auto& [key, deployment] : shard->deployments) {
      const VirtualSensorSpec& spec = deployment->sensor->spec();
      for (const auto& stream : spec.input_streams) {
        for (const auto& source : stream.sources) {
          TopologyEdge edge;
          edge.to = spec.name;
          edge.label = stream.name + "/" + source.alias;
          if (StrEqualsIgnoreCase(source.address.wrapper, "remote")) {
            const vsensor::StreamSource* running =
                deployment->sensor->FindSource(stream.name, source.alias);
            const auto* remote =
                running == nullptr
                    ? nullptr
                    : dynamic_cast<const network::RemoteStreamWrapper*>(
                          &running->wrapper());
            edge.from = remote != nullptr
                            ? remote->peer_node() + ":" +
                                  remote->remote_sensor()
                            : "remote";
          } else {
            edge.from = source.address.wrapper + " device";
          }
          edges.push_back(std::move(edge));
        }
      }
    }
  }
  for (const FederationEngine::Subscriber& subscriber :
       federation_.Subscribers()) {
    edges.push_back(TopologyEdge{subscriber.sensor_name,
                                 subscriber.node_id + " (node)", "stream"});
  }
  return edges;
}

// ------------------------------------------------------------ Introspection

Result<Container::SensorStatus> Container::GetSensorStatus(
    const std::string& sensor_name) const {
  const std::string key = StrToLower(sensor_name);
  SensorStatus status;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<telemetry::TimedMutex> lock(shard.mu);
    auto it = shard.deployments.find(key);
    if (it == shard.deployments.end()) {
      return Status::NotFound("no such sensor: " + sensor_name);
    }
    const Deployment& deployment = *it->second;
    status.name = deployment.sensor->name();
    status.stats = deployment.sensor->stats();
    status.state = deployment.state;
    status.restart_attempts = deployment.restart_attempts;
    status.queue_depth = deployment.sensor->QueueDepth();
    status.shed = deployment.sensor->ShedCount();
    status.stored_rows = deployment.table->NumRows();
    status.stored_bytes = deployment.table->ApproximateBytes();
    // Ticks are driven by the shared worker pool now; the descriptor's
    // pool-size knob survives as declared parallelism for reporting.
    status.pool_size =
        std::max(1, deployment.sensor->spec().life_cycle.pool_size);
  }
  for (const FederationEngine::Subscriber& subscriber :
       federation_.Subscribers()) {
    if (StrEqualsIgnoreCase(subscriber.sensor_name, sensor_name)) {
      ++status.remote_subscribers;
    }
  }
  return status;
}

}  // namespace gsn::container
