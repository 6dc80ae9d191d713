// Ablation: count- vs time-based windows (DESIGN.md §4). Measures the
// storage layer's window maintenance (Add + Snapshot) and the SQL
// aggregation cost over growing window populations — the mechanism
// behind Fig 3's interval dependence — through the executor and through
// the window's incremental answer.

#include <benchmark/benchmark.h>

#include "gsn/sql/executor.h"
#include "gsn/sql/incremental.h"
#include "gsn/sql/parser.h"
#include "gsn/storage/window_buffer.h"

namespace {

using gsn::StreamElement;
using gsn::Timestamp;
using gsn::Value;
using gsn::WindowSpec;
using gsn::kMicrosPerMilli;
using gsn::kMicrosPerSecond;

StreamElement Elem(Timestamp t) {
  StreamElement e;
  e.timed = t;
  e.values = {Value::Int(t / kMicrosPerMilli), Value::Double(0.5)};
  return e;
}

void BM_CountWindowAdd(benchmark::State& state) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = state.range(0);
  gsn::storage::WindowBuffer buffer(spec);
  Timestamp t = 0;
  for (auto _ : state) {
    buffer.Add(Elem(t));
    t += kMicrosPerMilli;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountWindowAdd)->Arg(16)->Arg(256)->Arg(4096);

void BM_TimeWindowAdd(benchmark::State& state) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = state.range(0) * kMicrosPerSecond;
  gsn::storage::WindowBuffer buffer(spec);
  Timestamp t = 0;
  for (auto _ : state) {
    buffer.Add(Elem(t));
    t += kMicrosPerMilli;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeWindowAdd)->Arg(1)->Arg(10)->Arg(60);

void BM_WindowSnapshot(benchmark::State& state) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = state.range(0);
  gsn::storage::WindowBuffer buffer(spec);
  for (int i = 0; i < state.range(0); ++i) {
    buffer.Add(Elem(i * kMicrosPerMilli));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.Snapshot(state.range(0) * kMicrosPerMilli));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WindowSnapshot)->Arg(16)->Arg(256)->Arg(4096);

/// The per-trigger SQL cost over a window of N elements — the core of
/// the virtual sensor pipeline's step 3.
void BM_AvgOverWindow(benchmark::State& state) {
  gsn::Schema schema;
  schema.AddField("seq", gsn::DataType::kInt);
  schema.AddField("value", gsn::DataType::kDouble);
  std::vector<StreamElement> elements;
  for (int i = 0; i < state.range(0); ++i) {
    elements.push_back(Elem(i * kMicrosPerMilli));
  }
  gsn::Relation window = gsn::Relation::FromElements(schema, elements);
  gsn::sql::MapResolver resolver;
  resolver.Put("wrapper", std::move(window));
  gsn::sql::Executor exec(&resolver);
  auto stmt = gsn::sql::ParseSelect("select avg(value) from wrapper");
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(**stmt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AvgOverWindow)->Arg(2)->Arg(20)->Arg(200)->Arg(2000);

/// The same statement answered incrementally (docs/PERFORMANCE.md §6):
/// the window folds its kept `value` column, no snapshot, no executor.
void BM_AvgOverWindowIncremental(benchmark::State& state) {
  gsn::Schema schema;
  schema.AddField("seq", gsn::DataType::kInt);
  schema.AddField("value", gsn::DataType::kDouble);
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = state.range(0);
  gsn::storage::WindowBuffer buffer(spec);
  for (int i = 0; i < state.range(0); ++i) {
    buffer.Add(Elem(i * kMicrosPerMilli));
  }
  auto stmt = gsn::sql::ParseSelect("select avg(value) from wrapper");
  const auto plan = gsn::sql::CompileIncremental(**stmt, "wrapper",
                                                 schema.WithTimedField());
  if (!plan.has_value()) {
    state.SkipWithError("statement did not compile to the incremental path");
    return;
  }
  const Timestamp now = state.range(0) * kMicrosPerMilli;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.Answer(*plan, now));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AvgOverWindowIncremental)->Arg(2)->Arg(20)->Arg(200)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
