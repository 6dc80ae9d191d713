#ifndef GSN_CONTAINER_QUERY_MANAGER_H_
#define GSN_CONTAINER_QUERY_MANAGER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gsn/sql/executor.h"
#include "gsn/sql/incremental.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/profiler.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/result.h"

namespace gsn::container {

/// The query manager of Fig 2: the query processor (parse, plan,
/// execute — with a prepared-statement cache standing in for MySQL's
/// query compilation cache) plus the query repository managing
/// registered continuous queries (subscriptions re-evaluated as new
/// stream elements arrive).
///
/// Thread-safe.
class QueryManager {
 public:
  using ContinuousCallback =
      std::function<void(const std::string& sensor_name, const Relation&)>;

  /// `resolver` supplies the container's sensor output tables. Query
  /// telemetry (parse/exec latency histograms, cache counters, the
  /// slow-query counter) registers in `metrics`, defaulting to the
  /// process registry.
  explicit QueryManager(const sql::TableResolver* resolver,
                        telemetry::MetricRegistry* metrics = nullptr);

  QueryManager(const QueryManager&) = delete;
  QueryManager& operator=(const QueryManager&) = delete;

  /// One-shot query. Parse results are cached by query text (see
  /// set_cache_enabled); execution always runs fresh against current
  /// table snapshots. `source` attributes the query in the slow-query
  /// log and trace spans (e.g. "web", "mgmt", the default "adhoc").
  Result<Relation> Execute(const std::string& sql_text,
                           const std::string& source = "adhoc");

  /// The optimized execution pipeline for a query, as text (EXPLAIN).
  Result<std::string> Explain(const std::string& sql_text);

  /// EXPLAIN ANALYZE: executes the query with per-operator
  /// instrumentation and returns the plan annotated with actual row
  /// counts, timings, and the join algorithms picked at runtime.
  Result<std::string> ExplainAnalyze(const std::string& sql_text);

  /// Registers a continuous query: re-executed whenever a sensor named
  /// in its FROM clause produces output, with the result handed to
  /// `callback`. Returns the registration id.
  Result<int64_t> RegisterContinuous(const std::string& sql_text,
                                     ContinuousCallback callback);
  Status Unregister(int64_t query_id);
  size_t NumContinuous() const;

  /// Notifies the repository that `sensor_name` emitted a new element;
  /// re-runs affected continuous queries. Returns how many ran. A valid
  /// `trace` links the continuous runs to the element's trace as
  /// "query.continuous" child spans.
  int OnNewElement(const std::string& sensor_name,
                   const TraceContext& trace = TraceContext());

  /// Batch variant: continuous queries read the sensor's stored table,
  /// so after a batch of elements is fully inserted one re-execution
  /// per affected query yields exactly the result the last per-element
  /// re-execution would have — N-1 intermediate runs are skipped. The
  /// runs continue the trace of the first traced element in the batch.
  ///
  /// A query of the aggregate shape over one table (sql/incremental.h)
  /// keeps a running fold instead: while the table's view has only
  /// grown by `batch` since its last fold, it folds just `batch` in;
  /// any other change re-seeds it with one fold of the whole view
  /// (counted in gsn_continuous_reseeds_total). Batches of one table
  /// must arrive in insert order, one at a time, as the container's
  /// per-sensor pipeline delivers them.
  int OnNewElementBatch(const std::string& sensor_name,
                        const std::vector<StreamElement>& batch);

  /// Prepared-statement cache switch (ablation: the paper attributes
  /// part of Fig 4's latency to "the cost of query compiling").
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const;

  /// Bounds the prepared-statement cache (LRU eviction; counted in
  /// gsn_query_cache_evictions_total). Shrinking evicts immediately.
  void set_cache_capacity(size_t capacity);
  size_t cache_capacity() const;
  size_t cache_size() const;

  /// Slow-query log: one-shot and continuous executions taking at least
  /// `threshold_micros` are logged at WARN with their SQL text and
  /// source, counted in gsn_slow_queries_total, and kept (with the
  /// analyzed plan of the offending execution) in a bounded in-memory
  /// log readable via slow_log(). 0 disables (the default).
  void set_slow_query_micros(int64_t threshold_micros);
  int64_t slow_query_micros() const;

  /// One retained slow-query occurrence.
  struct SlowQueryEntry {
    std::string sql_text;
    /// What ran the query: "adhoc"/"web"/"mgmt"/"explain-analyze" or
    /// "continuous:<sensor>" for repository re-executions.
    std::string source;
    int64_t elapsed_micros = 0;
    /// EXPLAIN ANALYZE of the slow execution itself (operator row
    /// counts + timings observed while it was being slow).
    std::string plan;
  };
  /// The most recent retained slow queries, oldest first (bounded ring;
  /// see kSlowLogCapacity).
  std::vector<SlowQueryEntry> slow_log() const;

  /// Roots a "query.execute" span per one-shot execution in `tracer`
  /// (and "query.continuous" children for repository runs). Null
  /// detaches. The tracer must outlive this manager. Those spans time
  /// `gsn_query_exec_micros` on the tracer's clock, so a test injects
  /// a deterministic clock through Tracer::Options::clock.
  void set_tracer(telemetry::Tracer* tracer);

  /// Collects base table names referenced anywhere in a statement
  /// (FROM items, joins, subqueries, set-op branches). Used by the
  /// repository for change tracking and by access control.
  static void CollectTables(const sql::SelectStmt& stmt,
                            std::set<std::string>* out);

  /// Point-in-time view assembled from the registered metrics (kept as
  /// the pre-telemetry API; the counters live in the MetricRegistry).
  struct Stats {
    int64_t executed = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t continuous_runs = 0;
    int64_t continuous_reseeds = 0;
    int64_t slow_queries = 0;
    /// Cumulative wall time split by phase, microseconds.
    int64_t parse_micros = 0;
    int64_t exec_micros = 0;
  };
  Stats stats() const;

  /// Execution-latency distribution (Fig 4's series).
  telemetry::Histogram::Snapshot exec_histogram() const {
    return metrics_.exec_micros->TakeSnapshot();
  }
  telemetry::Histogram::Snapshot parse_histogram() const {
    return metrics_.parse_micros->TakeSnapshot();
  }

  /// Contention stats of the cache/continuous/slow-log lock, for the
  /// container status surface.
  const telemetry::TimedMutex& cache_lock() const { return mu_; }

 private:
  /// The running state of an aggregate-shaped continuous query: once
  /// seeded (`plan` set), `folds` cover exactly its table's view at
  /// `version`. `mu` is a leaf, taken with no other lock held.
  struct RunningFold {
    std::mutex mu;
    sql::ViewVersion version;
    std::optional<sql::IncrementalPlan> plan;
    std::vector<sql::Fold> folds;
    int64_t rows = 0;
  };

  struct ContinuousQuery {
    std::string sql_text;
    std::shared_ptr<sql::SelectStmt> stmt;
    std::set<std::string> tables;  // lowercased base tables referenced
    ContinuousCallback callback;
    /// Set for the aggregate shape over one table.
    std::shared_ptr<RunningFold> running;
  };

  /// Re-runs the continuous queries on `sensor_name`; `batch` is what
  /// the sensor's table just appended, when known.
  int RunContinuous(const std::string& sensor_name, const TraceContext& trace,
                    const std::vector<StreamElement>* batch);
  /// The answer of an aggregate-shaped continuous query from its running
  /// fold; nullopt when the executor has to answer (unversioned table,
  /// or names the statement does not resolve against it).
  std::optional<Result<Relation>> RunIncremental(
      const sql::SelectStmt& stmt, RunningFold* running,
      const std::vector<StreamElement>* batch);

  static constexpr size_t kSlowLogCapacity = 32;

  /// Parses (or fetches from cache) the statement for `sql_text`.
  Result<std::shared_ptr<sql::SelectStmt>> Prepare(
      const std::string& sql_text);

  /// Logs + counts + retains `sql_text` if `elapsed_micros` crosses the
  /// slow bar. `stmt`/`analyze` (both optional) render the analyzed
  /// plan captured for the entry.
  void MaybeLogSlow(const std::string& sql_text, const std::string& source,
                    int64_t elapsed_micros, const sql::SelectStmt* stmt,
                    const sql::AnalyzeCollector* analyze);

  struct QueryMetrics {
    std::shared_ptr<telemetry::Counter> executed;
    std::shared_ptr<telemetry::Counter> cache_hits;
    std::shared_ptr<telemetry::Counter> cache_misses;
    std::shared_ptr<telemetry::Counter> cache_evictions;
    std::shared_ptr<telemetry::Counter> continuous_runs;
    std::shared_ptr<telemetry::Counter> continuous_reseeds;
    std::shared_ptr<telemetry::Counter> slow_queries;
    std::shared_ptr<telemetry::Histogram> parse_micros;
    std::shared_ptr<telemetry::Histogram> exec_micros;
  };

  const sql::TableResolver* resolver_;
  /// Private registry when none was injected.
  std::unique_ptr<telemetry::MetricRegistry> owned_metrics_;
  QueryMetrics metrics_;
  std::atomic<int64_t> slow_query_micros_{0};
  std::atomic<telemetry::Tracer*> tracer_{nullptr};

  /// Default prepared-statement cache bound: large enough for every
  /// deployed sensor's queries plus a working set of ad-hoc clients,
  /// small enough that a scan of distinct query texts (Fig 4's random
  /// workload) cannot grow the cache without limit.
  static constexpr size_t kDefaultCacheCapacity = 256;

  /// Evicts LRU entries until the cache fits `cache_capacity_`.
  void EvictCacheLocked();

  /// Instrumented as lock="query_cache" so Fig 4 can quote the
  /// cache lock's wait share.
  mutable telemetry::TimedMutex mu_;
  bool cache_enabled_ = true;
  /// LRU prepared-statement cache: most recently used at the front of
  /// `lru_`; `cache_` indexes list nodes by query text.
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<sql::SelectStmt>>>;
  LruList lru_;
  std::map<std::string, LruList::iterator> cache_;
  size_t cache_capacity_ = kDefaultCacheCapacity;
  std::map<int64_t, ContinuousQuery> continuous_;
  std::deque<SlowQueryEntry> slow_log_;
  int64_t next_id_ = 1;
};

}  // namespace gsn::container

#endif  // GSN_CONTAINER_QUERY_MANAGER_H_
