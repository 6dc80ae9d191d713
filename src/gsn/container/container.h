#ifndef GSN_CONTAINER_CONTAINER_H_
#define GSN_CONTAINER_CONTAINER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/container/access_control.h"
#include "gsn/container/federation_engine.h"
#include "gsn/container/manifest.h"
#include "gsn/container/notification.h"
#include "gsn/container/quarantine.h"
#include "gsn/container/query_manager.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/transport.h"
#include "gsn/storage/columnar/catalog.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/storage/table.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/util/thread_pool.h"
#include "gsn/vsensor/descriptor_parser.h"
#include "gsn/vsensor/virtual_sensor.h"
#include "gsn/wrappers/system_wrapper.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::container {

/// A GSN container (paper Fig 2): hosts a pool of virtual sensors and
/// every service around them — the virtual sensor manager with its
/// life-cycle and input stream management, the storage layer, the query
/// manager (processor + repository), the notification manager, access
/// control, and the peer-to-peer interface. The peer-to-peer protocol
/// (directory, remote subscriptions, signed delivery, resilience) is
/// the FederationEngine the container owns; the container publishes,
/// subscribes, delivers and forgets deployments through it, and the
/// engine never calls back.
///
/// The container is driven by rounds, Tick(): each drains the sensors
/// woken since their last drain, and once the driver's interval has
/// passed it also polls every pull wrapper, runs the engine's
/// maintenance round, and enforces lifetime bounds (docs/PERFORMANCE.md
/// §7). With a VirtualClock and one tick worker (or one shard) this is
/// fully deterministic, as the shards drain in index order; live
/// deployments run rounds from a RealtimePump thread.
///
/// Concurrency model (docs/CONCURRENCY.md). Deployments are
/// partitioned into N shards by hash of the lowercased sensor name;
/// each shard owns its deployment map, the WAL handles of its sensors,
/// and an instrumented TimedMutex (lock="shard-<i>"). Tick() fans one
/// drain task per shard out over a shared worker pool; per-sensor tick
/// exclusivity across concurrent Tick() drivers is a per-deployment
/// busy flag, not a global mutex. Lock-ordering rules:
///
///  - A shard lock may be held while taking LEAF locks only (a table,
///    a stream source queue, the quarantine store, the manifest, the
///    segment catalog, the metric registry, the snapshot cache).
///  - Never shard -> shard: cross-shard operations (GetStatus,
///    Checkpoint, snapshots, Shutdown) visit shards one at a time,
///    releasing each before the next.
///  - The engine's lock ("federation") and chain_mu_ ("chaining": the
///    local-wrapper fan-out map) are siblings of the shard locks: never
///    held together with one another or with a shard lock. The engine
///    guarantees its side (it cannot reach a shard); the container
///    never calls the engine with a shard lock or chain_mu_ held.
///  - chain_mu_ is held ACROSS the fan-out's StreamSource::Offer so a
///    producer can never race Undeploy destroying the consumer. A push
///    takes a consumer's admission lock (a leaf) by two chains only:
///    chain_mu_ -> admission, and engine -> remote wrapper -> admission.
///  - The wake (a deployment's atomic woken flag and wake_mu_, a leaf)
///    is the only other container state a push reaches: Offer and
///    Inject call the arrival hook after releasing the admission lock,
///    a pull wrapper calls its ready hook; neither takes a shard lock.
///  - snapshot_mu_ stays a leaf: system wrappers scrape the cached
///    snapshot without touching any shard/federation lock.
class Container {
 public:
  struct Options {
    std::string node_id = "gsn-node";
    std::shared_ptr<Clock> clock;           // default: shared SystemClock
    uint64_t seed = 1;                      // drives wrappers & sampling
    std::string storage_dir;                // "" disables permanent storage
    /// Crash-recovery root (--data-dir): holds the container manifest
    /// (and, when storage_dir is empty, the per-sensor persistence
    /// logs). A container constructed over a non-empty data_dir replays
    /// the manifest and redeploys every sensor that was live at the
    /// crash. "" disables the manifest entirely.
    std::string data_dir;
    /// Optional P2P fabric: the deterministic NetworkSimulator in
    /// tests, an EpollTransport over real sockets in gsnd deployments.
    network::Transport* network = nullptr;
    std::string integrity_key = "gsn-demo-key";
    /// Metric registry shared by every component the container owns
    /// (query manager, notification manager, sensors, sources). Null =
    /// the container creates and owns a private one — see metrics().
    telemetry::MetricRegistry* metrics = nullptr;
    /// Tracer shared by the whole tuple path (sources, sensors,
    /// notifications, query manager, remote delivery). A federation
    /// injects one tracer into all its nodes so cross-container traces
    /// land in one store. Null = the container owns a private tracer —
    /// see tracer(). Sampling starts off (rate 0); enable via
    /// tracer()->set_sample_rate or the `trace` management command.
    telemetry::Tracer* tracer = nullptr;
    /// Knobs of the supervised sensor lifecycle and overload
    /// protection (docs/DURABILITY.md).
    struct Supervision {
      /// Backoff between supervised sensor restarts; Exhausted() =>
      /// the sensor is marked FAILED and stops being scheduled.
      network::RetryPolicy retry;
      /// A restarted sensor that completes this many ticks without
      /// failing gets its restart budget back (restart_attempts resets
      /// to 0): retry.max_attempts caps CONSECUTIVE failures, so a
      /// handful of transient errors spread over weeks can never
      /// permanently FAIL a sensor. 0 disables the reset.
      int healthy_ticks_to_reset = 10;
      /// Default admission-queue bound per stream source (descriptor
      /// attribute queue-capacity overrides per source).
      int64_t queue_capacity = 4096;
      /// Default shed policy when an admission queue fills (descriptor
      /// attribute shed-policy overrides per source).
      vsensor::ShedPolicy shed_policy = vsensor::ShedPolicy::kDropOldest;
      /// Dead-letter store bound; oldest evicted beyond it.
      size_t quarantine_capacity = 256;
      /// Period of the WAL + manifest checkpoint; 0 disables automatic
      /// checkpoints (the `checkpoint` management command still works).
      Timestamp checkpoint_interval = 30 * kMicrosPerSecond;
    } supervision;
    /// The tiered columnar history (docs/STORAGE.md). With a
    /// durability root (data_dir or storage_dir) present, checkpoints
    /// flush rows falling out of each permanent sensor's retention
    /// window into immutable columnar segments instead of discarding
    /// them; SQL then scans segments + live window as one relation.
    struct Columnar {
      /// Rows per column-chunk group inside a segment — the zone-map
      /// pruning granularity.
      size_t rows_per_chunk = 1024;
    } columnar;
    /// Knobs of the sharded container core (docs/CONCURRENCY.md).
    struct Sharding {
      /// Number of deployment shards (hash of lowercased sensor name).
      /// 0 = hardware concurrency. Each shard owns its deployment map,
      /// its sensors' WAL handles, and its own instrumented TimedMutex,
      /// so deploy/undeploy/tick/checkpoint on different shards never
      /// contend.
      int shards = 0;
      /// Worker threads Tick() fans the per-shard drain tasks over.
      /// 0 = one per shard. 1 keeps the drain sequential (deterministic
      /// ordering for tests that need it).
      int tick_workers = 0;
    } sharding;
  };

  explicit Container(Options options);
  ~Container();

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  const std::string& node_id() const { return options_.node_id; }
  Clock* clock() const { return options_.clock.get(); }
  /// The registry all of this container's telemetry lands in (the one
  /// from Options, or the container-owned default). Rendered by the web
  /// interface's GET /metrics and the management `metrics` command.
  telemetry::MetricRegistry* metrics() const { return metrics_; }
  /// The tracer behind the container's tuple-path spans (the one from
  /// Options, or the container-owned default). Rendered by GET /traces
  /// and the management `traces` command.
  telemetry::Tracer* tracer() const { return tracer_; }

  // -- Deployment (the paper's headline feature) --------------------------

  /// Deploys a virtual sensor from its XML descriptor; wires wrappers,
  /// storage, directory publication, everything. `api_key` is checked
  /// against the access-control layer when enabled.
  Result<vsensor::VirtualSensor*> Deploy(const std::string& descriptor_xml,
                                         const std::string& api_key = "");
  Result<vsensor::VirtualSensor*> DeploySpec(vsensor::VirtualSensorSpec spec,
                                             const std::string& api_key = "");
  Status Undeploy(const std::string& sensor_name,
                  const std::string& api_key = "");
  std::vector<std::string> ListSensors() const;
  vsensor::VirtualSensor* FindSensor(const std::string& sensor_name) const;

  // -- Runtime --------------------------------------------------------------

  /// One scheduling round at the clock's current time: it drains every
  /// woken sensor that can run. Once `interval` micros of steady time
  /// have passed since the last interval round ended (always, for 0),
  /// it is an interval round: it also drains the sensors with a pull
  /// source, and runs the federation round, the checkpoint trigger,
  /// lifetime expiry and the snapshot refresh. A sensor that cannot run
  /// (FAILED, paused for restart backoff, expired, busy in another
  /// round) keeps its wake for its first round once it can. Sensor
  /// failures do not propagate: the supervisor pauses the sensor for a
  /// backoff and marks it FAILED once restarts are exhausted. Returns
  /// the output elements produced.
  Result<int> Tick(Timestamp interval = 0);

  /// Blocks until a deployment has been woken since the last return,
  /// until `interval` has passed since the end of the last interval
  /// round, or until `stop` reads true (set it, then call
  /// InterruptArrivalWait). Returns whether it consumed a wake.
  bool WaitForArrival(Timestamp interval, const std::atomic<bool>& stop);
  /// Wakes every WaitForArrival caller so it re-reads its stop flag.
  void InterruptArrivalWait();

  // -- Durability & supervised lifecycle (docs/DURABILITY.md) --------------

  /// The supervisor's view of one sensor.
  enum class SensorState { kRunning = 0, kRestarting = 1, kFailed = 2 };
  static const char* SensorStateName(SensorState state);

  /// Checkpoint: compacts the container manifest to the live deploy
  /// set and rewrites every permanent sensor's WAL to its table's
  /// retention window, bounding recovery to O(window). Runs
  /// automatically every supervision.checkpoint_interval; callable any
  /// time (management `checkpoint`). Checkpoints run one at a time; a
  /// deploy or undeploy racing one keeps its manifest record.
  Status Checkpoint();

  /// Graceful drain: stop admitting new wrapper load, flush what the
  /// admission queues already hold through the pipelines, checkpoint,
  /// and fsync every log. After Shutdown the destructor tears sensors
  /// down WITHOUT recording manifest undeploys, so a restart over the
  /// same data_dir redeploys them.
  Status Shutdown();
  bool draining() const;

  /// Liveness/readiness for the Kubernetes-style probes. Not-ready
  /// reasons: draining, a FAILED or restarting sensor, an admission
  /// queue at capacity.
  struct Health {
    bool live = true;
    bool ready = true;
    std::vector<std::string> reasons;
  };
  Health GetHealth() const;

  /// Dead-letter store of poison tuples (null only before construction
  /// completes).
  QuarantineStore& quarantine() { return *quarantine_; }
  const QuarantineStore& quarantine() const { return *quarantine_; }
  /// Takes quarantined tuple `id` and re-injects it into its
  /// originating stream source, which wakes its sensor (at-least-once).
  Status RequeueQuarantined(uint64_t id);

  /// The crash-recovery manifest (null when data_dir is empty).
  ContainerManifest* manifest() const { return manifest_.get(); }
  /// The tiered columnar history catalog (docs/STORAGE.md); null when
  /// no durability root is configured or the catalog failed to open.
  storage::columnar::SegmentCatalog* segment_catalog() const {
    return segments_.get();
  }
  /// Manifest events replayed by the constructor's recovery pass.
  size_t recovered_records() const { return recovered_records_; }
  /// Sensors the recovery pass failed to redeploy (kept in the
  /// manifest; they retry on the next restart).
  size_t recovery_failures() const { return recovery_failures_; }

  // -- Queries & subscriptions ----------------------------------------------

  /// One-shot SQL over the sensor output tables (each deployed sensor's
  /// history is a table named after it).
  Result<Relation> Query(const std::string& sql_text,
                         const std::string& api_key = "");

  QueryManager& query_manager() { return query_manager_; }
  /// Resolver backing Query(): catalog tables (gsn_sensors,
  /// gsn_wrappers, gsn_directory) plus every sensor output table.
  const sql::TableResolver& catalog_resolver() const { return catalog_; }
  NotificationManager& notification_manager() { return notifications_; }
  AccessControl& access_control() { return access_control_; }
  storage::TableManager& table_manager() { return tables_; }
  wrappers::WrapperRegistry& wrapper_registry() { return registry_; }

  // -- Discovery --------------------------------------------------------------

  /// Queries this node's directory replica by predicate combination.
  std::vector<network::DirectoryEntry> Discover(
      const std::map<std::string, std::string>& query) const;

  /// Rebroadcasts every locally hosted sensor's directory entry (used
  /// when a node joins the federation after deploys happened).
  void AnnounceAll();

  // -- Introspection --------------------------------------------------------

  /// One edge of the container's data-flow graph: device wrappers into
  /// sensors, sensors into remote subscriber nodes.
  struct TopologyEdge {
    std::string from;
    std::string to;
    std::string label;
  };
  /// The container's current stream topology (for visualization).
  std::vector<TopologyEdge> Topology();

  struct SensorStatus {
    std::string name;
    vsensor::VirtualSensor::Stats stats;
    size_t stored_rows = 0;
    size_t stored_bytes = 0;
    int pool_size = 0;
    int64_t remote_subscribers = 0;
    SensorState state = SensorState::kRunning;
    int restart_attempts = 0;
    size_t queue_depth = 0;  // summed over the sensor's sources
    int64_t shed = 0;        // summed over the sensor's sources
  };
  Result<SensorStatus> GetSensorStatus(const std::string& sensor_name) const;

  /// Health of one known federation peer (everything this node has
  /// ever heard from), as exposed by /api/v1/peers and the `peers`
  /// management command.
  using PeerStatus = FederationEngine::PeerStatus;
  std::vector<PeerStatus> PeerStatuses() const;

  /// Contention stats of one instrumented container lock.
  struct LockStats {
    std::string name;
    int64_t acquisitions = 0;
    int64_t contended = 0;
    int64_t wait_micros = 0;
  };

  /// One timed container span (`tick`, a tick phase, or a batch-side
  /// span), read from the histogram its scope observes.
  struct SpanStats {
    std::string name;
    int64_t count = 0;
    int64_t total_micros = 0;
    int64_t max_micros = 0;
  };

  /// Per-shard view of the sharded core: population, drain work, and
  /// the shard lock's contention profile — makes hot shards
  /// attributable from /api/v1/status and the `status` command.
  struct ShardStatus {
    int index = 0;
    size_t sensors = 0;
    /// Sensor pipeline drains executed by this shard's tick workers.
    int64_t ticks_total = 0;
    int64_t lock_acquisitions = 0;
    int64_t lock_contended = 0;
    int64_t lock_wait_micros = 0;
  };

  /// The unified machine-readable snapshot behind GET /api/v1/status
  /// and the argument-less management `status` command: sensors,
  /// queues, locks, hot spans, segments, peers, and build info joined
  /// into one view.
  struct ContainerStatus {
    std::string node_id;
    std::string version;
    std::string compiler;
    bool draining = false;
    Health health;
    /// Aggregate runtime/scheduling totals (same struct the
    /// wrapper="system" telemetry stream emits).
    wrappers::SystemSnapshot totals;
    std::vector<SensorStatus> sensors;
    std::vector<ShardStatus> shards;
    std::vector<PeerStatus> peers;
    std::vector<LockStats> locks;
    /// Every container span with count > 0, by total time descending.
    std::vector<SpanStats> hot_spans;
    size_t recovered_records = 0;
    size_t recovery_failures = 0;
  };
  ContainerStatus GetStatus() const;

  /// The health snapshot `wrapper="system"` sources scrape. Reads a
  /// cache refreshed once per Tick under its own small lock — never
  /// the container or tick locks — so a virtual sensor deployed over
  /// its own container's metrics cannot deadlock or self-amplify.
  wrappers::SystemSnapshot SystemSnapshotNow() const;

  /// The transport this container is attached to (null when
  /// standalone). Its `AsChaos()` is the chaos surface: non-null when
  /// the node registers through a ChaosTransport (every Federation
  /// node, `gsnd --chaos-seed`).
  network::Transport* network() const { return options_.network; }

  /// Resolved shard count (Options::Sharding::shards, 0 = hardware
  /// concurrency at construction).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard index hosting `sensor_name` (hash of the lowercased name).
  int ShardIndexFor(const std::string& sensor_name) const;

 private:
  /// Everything owned on behalf of one deployed sensor (the life-cycle
  /// manager's bookkeeping). Mutable fields are guarded by the owning
  /// shard's lock; fields set before publication (key, sensor, table,
  /// local_sources, system_sources, deployed_at, expires_at) are
  /// immutable afterwards and safe to read off-lock.
  struct Deployment {
    std::string key;  // lowercased sensor name; shard-map key
    std::unique_ptr<vsensor::VirtualSensor> sensor;
    storage::Table* table = nullptr;  // owned by tables_
    /// The sensor's WAL, one Codec::EncodeElement payload per stored
    /// element. OnSensorBatch (tick workers) appends and Checkpoint()
    /// replaces it, both under the shard lock, so a checkpoint's
    /// snapshot covers exactly the rows appended before its Replace.
    std::unique_ptr<storage::RecordLog> log;
    Timestamp deployed_at = 0;
    Timestamp expires_at = 0;  // 0 = never
    /// Per-sensor tick exclusivity (guarded by the shard lock): a tick
    /// worker sets it before draining this sensor and clears it after,
    /// so concurrent Tick() drivers skip rather than double-drain, and
    /// Undeploy waits on the shard's idle_cv until it clears before
    /// stopping the sensor — the lifetime barrier that used to be the
    /// per-sensor pool Shutdown().
    bool busy = false;
    // -- Supervision (docs/DURABILITY.md) --------------------------------
    SensorState state = SensorState::kRunning;
    int restart_attempts = 0;
    /// Set when an element reaches one of the sensor's sources between
    /// rounds (WakeDeployment), cleared when a round drains the sensor.
    /// Atomic: pushers set it without the shard lock.
    std::atomic<bool> woken{false};
    /// Whether a source polls a pull wrapper (anything but
    /// wrapper="local" or "remote"): interval rounds drain such a
    /// sensor; one without runs only when woken.
    bool polls = false;
    /// Ticks completed without failing since the last restart; at
    /// supervision.healthy_ticks_to_reset the restart budget is
    /// restored, so restart_attempts meters consecutive failures
    /// rather than lifetime totals.
    int healthy_ticks = 0;
    /// While kRestarting: the tick time at which processing resumes.
    Timestamp resume_at = 0;
    std::shared_ptr<telemetry::Gauge> state_gauge;
    std::shared_ptr<telemetry::Counter> restarts;
    /// wrapper="local" sources of this sensor (edges detached at
    /// undeploy).
    std::vector<vsensor::StreamSource*> local_sources;
    /// wrapper="system" sources of this sensor; while any deployment
    /// has one, interval rounds refresh the snapshot cache they scrape.
    int system_sources = 0;
  };

  /// One partition of the deployment map. The shard lock guards the
  /// map and every mutable Deployment field of its members; WAL
  /// appends and checkpoint swaps of this shard's sensors run under
  /// it. Instrumented as lock="shard-<index>" with a shard label, so
  /// gsn_lock_wait_micros{lock="shard-<i>"} attributes contention per
  /// shard.
  struct Shard {
    int index = 0;
    mutable telemetry::TimedMutex mu;
    /// Signalled whenever a busy flag clears; Undeploy's barrier.
    std::condition_variable_any idle_cv;
    /// Lowercased sensor name -> deployment. shared_ptr: a tick worker
    /// pins the deployment it is draining, so Undeploy erasing the map
    /// entry can never free a sensor mid-tick.
    std::map<std::string, std::shared_ptr<Deployment>> deployments;
    /// Supervision backoff jitter (guarded by mu).
    Rng rng{1};
    // gsn_shard_* telemetry (docs/TELEMETRY.md).
    std::shared_ptr<telemetry::Gauge> sensors_gauge;
    std::shared_ptr<telemetry::Counter> ticks_total;
    std::shared_ptr<telemetry::Gauge> lock_wait_gauge;
  };

  /// Builds the wrapper for one source; wrapper="remote" sources are
  /// subscribed through the federation engine under `deployment_key`
  /// (the lowercased owning sensor name), and a wrapper="local" one
  /// sets `*producer` to the key of the sensor it chains from.
  Result<std::unique_ptr<wrappers::Wrapper>> MakeWrapperForSource(
      const vsensor::StreamSourceSpec& source_spec,
      const std::string& deployment_key, Deployment* deployment,
      std::string* producer);

  /// Shard hosting `key` (hash of the lowercased sensor name).
  Shard& ShardFor(const std::string& key) const;
  /// Drains one shard at `now` by Tick's rule (`interval_due`: the
  /// interval has passed): collects deployments under the shard lock,
  /// setting busy flags, runs their pipelines outside it, then clears
  /// the busy flags and does the supervision bookkeeping. Returns
  /// elements produced. Runs on a tick_pool_ worker, or inline.
  int TickShard(Shard& shard, Timestamp now, bool interval_due);

  /// Arrival hook of `deployment`'s sources and ready hook of its pull
  /// wrappers: sets its woken flag and, only when that flag goes from
  /// clear to set, wakes WaitForArrival. Takes only wake_mu_.
  void WakeDeployment(Deployment* deployment);
  /// Removes `deployment`'s own wrapper="local" sources from the
  /// chaining map. Requires chain_mu_.
  void DetachLocalSourcesLocked(const Deployment& deployment);
  /// Checkpoint() with checkpoint_mu_ held.
  Status CheckpointLocked();

  /// Consumes one pipeline trigger's output batch: single-lock table
  /// insert and persistence, local chaining, notification fan-out, one
  /// continuous-query evaluation pass, then signed remote delivery.
  void OnSensorBatch(const vsensor::VirtualSensor& sensor,
                     const std::vector<StreamElement>& batch);

  // -- Supervision & recovery (docs/DURABILITY.md) --------------------------

  /// Records one failure of `key`'s sensor: pauses it for the retry
  /// policy's backoff, or marks it FAILED once the budget is spent.
  void HandleSensorFailure(const std::string& key, const Status& status,
                           Timestamp now);
  /// VirtualSensor::ErrorListener target — quarantines the failing
  /// trigger's elements, then hands the failure to the supervisor.
  void OnSensorError(const std::string& key,
                     const vsensor::VirtualSensor& sensor,
                     const std::string& stream_name, const Status& status,
                     const std::vector<StreamElement>& elements);
  /// Constructor-time crash recovery: opens the manifest under
  /// data_dir, replays its events, and redeploys the live set.
  void RecoverFromManifest();

  // -- Self-observation (docs/TELEMETRY.md) ---------------------------------

  /// Assembles a fresh SystemSnapshot (visits each shard lock and the
  /// engine's one at a time; sums metric families). Called from Tick()
  /// to refresh the scrape cache and from GetStatus().
  wrappers::SystemSnapshot ComputeSystemSnapshot() const;
  /// Recomputes the snapshot cache system wrappers read. Skipped
  /// entirely while no wrapper="system" source is deployed, so the
  /// feature costs nothing when unused.
  void RefreshSystemSnapshot();

  /// `<storage_dir>/<key>.gsnlog`: a permanent sensor's WAL.
  std::string WalPath(const std::string& key) const {
    return options_.storage_dir + "/" + key + ".gsnlog";
  }

  /// System catalog exposed to SQL: virtual tables describing the
  /// container itself, falling back to the sensor output tables.
  class CatalogResolver : public sql::TableResolver {
   public:
    explicit CatalogResolver(Container* container) : container_(container) {}
    Result<Relation> GetTable(const std::string& name) const override;
    /// Sensor output tables get the tiered scan (segments + pending +
    /// live, zone-map pruned); the gsn_* virtual tables are built fresh
    /// per query and ignore the predicate.
    Result<Relation> GetTableFiltered(const std::string& name,
                                      const sql::ScanPredicate& predicate,
                                      sql::ScanStats* stats) const override;
    sql::ViewVersion TableVersion(const std::string& name) const override;

   private:
    Container* container_;
  };

  Options options_;
  /// Private registry when Options.metrics was null; metrics_ points at
  /// whichever registry is live and is what members below register in,
  /// so these two must precede them in declaration order.
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  /// Private tracer when Options.tracer was null; same ordering
  /// constraint as the registry (members below hold tracer_).
  std::unique_ptr<telemetry::Tracer> owned_tracer_;
  telemetry::Tracer* tracer_ = nullptr;
  std::shared_ptr<telemetry::Gauge> sensors_deployed_;
  wrappers::WrapperRegistry registry_;
  storage::TableManager tables_;
  CatalogResolver catalog_{this};
  QueryManager query_manager_;
  NotificationManager notifications_;
  AccessControl access_control_;
  /// The peer-to-peer protocol; registered with options_.network (if
  /// any) from construction to destruction.
  FederationEngine federation_;

  /// The sharded deployment core (see the class comment for the lock
  /// ordering). Sized at construction; the vector itself is immutable
  /// afterwards, so indexing it is lock-free.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Workers Tick() fans the per-shard drain tasks over. Shared by
  /// every concurrent Tick() driver; per-sensor busy flags keep the
  /// drains exclusive per sensor, not per driver.
  std::unique_ptr<ThreadPool> tick_pool_;
  /// Total deployments across shards (backs gsn_sensors_deployed).
  std::atomic<int64_t> total_deployments_{0};
  std::atomic<uint64_t> wrapper_seed_counter_{0};

  /// The chaining lock (lock="chaining"): guards chained_sources_ and
  /// is held across the fan-out's Offer calls, so an offer can never
  /// race the consumer's Undeploy (which detaches its sources under this
  /// lock before stopping the sensor). Offer only takes leaf locks, so
  /// holding chain_mu_ across it is cycle-free.
  mutable telemetry::TimedMutex chain_mu_;
  /// Local chaining: producer sensor (lowercased) -> consumer sources.
  std::multimap<std::string, vsensor::StreamSource*> chained_sources_;

  /// The wake: a leaf lock under which WakeDeployment records that some
  /// deployment went from clear to woken, and WaitForArrival consumes it.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;  // guarded by wake_mu_
  /// Steady micros at which the last interval round ended; the next one
  /// is due an interval later.
  std::atomic<int64_t> interval_round_end_{0};

  // -- Durability & supervision (docs/DURABILITY.md) ------------------------
  std::unique_ptr<ContainerManifest> manifest_;  // null without data_dir
  /// Tiered columnar history (docs/STORAGE.md); null when no
  /// durability root exists or the catalog failed to open. Declared
  /// before recovery runs so redeployed sensors can dedup pending rows
  /// against it.
  std::unique_ptr<storage::columnar::SegmentCatalog> segments_;
  std::unique_ptr<QuarantineStore> quarantine_;
  /// True while the constructor replays the manifest: redeploys must
  /// not append fresh manifest events.
  bool recovering_ = false;
  /// True once Shutdown()/the destructor begins teardown: those
  /// undeploys are process exit, not operator intent, so they must NOT
  /// record manifest undeploy events (the sensors come back on
  /// restart).
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> draining_{false};
  /// Held across every checkpoint, so they run one at a time (a manifest
  /// mark stays valid until its own compaction), and guards the trigger
  /// clock: concurrent Tick() drivers race to it with try_lock, so at
  /// most one runs the periodic checkpoint and the rest skip instead of
  /// queueing.
  std::mutex checkpoint_mu_;
  Timestamp last_checkpoint_ = 0;  // guarded by checkpoint_mu_
  size_t recovered_records_ = 0;
  size_t recovery_failures_ = 0;
  std::shared_ptr<telemetry::Gauge> recovery_records_gauge_;
  std::shared_ptr<telemetry::Gauge> recovery_seconds_gauge_;

  // -- Self-observation (docs/TELEMETRY.md) ---------------------------------
  /// Tick-phase breakdown + batch storage/fan-out spans, always on;
  /// GetStatus() reads its hot spans from these histograms.
  std::shared_ptr<telemetry::Histogram> tick_micros_;
  std::shared_ptr<telemetry::Histogram> tick_phase_resilience_;
  std::shared_ptr<telemetry::Histogram> tick_phase_dispatch_;
  std::shared_ptr<telemetry::Histogram> tick_phase_checkpoint_;
  std::shared_ptr<telemetry::Histogram> batch_storage_micros_;
  std::shared_ptr<telemetry::Histogram> batch_fanout_micros_;
  std::shared_ptr<telemetry::Gauge> build_info_;
  std::shared_ptr<telemetry::Gauge> uptime_gauge_;
  /// Steady-clock construction anchor for uptime.
  int64_t started_steady_micros_ = 0;
  /// Count of deployed wrapper="system" sources; refresh gate.
  std::atomic<int64_t> system_sources_total_{0};
  /// Guards ONLY the snapshot cache below; leaf lock. The cache
  /// readers (system wrappers mid-tick) never take any shard or
  /// federation lock, so no cycle is possible.
  mutable std::mutex snapshot_mu_;
  wrappers::SystemSnapshot system_snapshot_;  // guarded by snapshot_mu_
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_CONTAINER_H_
