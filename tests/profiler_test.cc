// Tests for the contention profiler (docs/TELEMETRY.md): TimedMutex
// lock-wait metering and the process/build introspection helpers
// behind the status surface.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "gsn/telemetry/profiler.h"

namespace gsn::telemetry {
namespace {

TEST(TelemetryProfilerTest, UninstrumentedTimedMutexBehavesLikeMutex) {
  TimedMutex mu;
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  // Without Instrument() there are no metric handles and no counts.
  EXPECT_EQ(mu.acquisitions(), 0);
  EXPECT_EQ(mu.contended(), 0);
  EXPECT_EQ(mu.wait_micros_total(), 0);
  EXPECT_TRUE(mu.label().empty());
}

TEST(TelemetryProfilerTest, InstrumentedTimedMutexCountsAcquisitions) {
  MetricRegistry registry;
  TimedMutex mu;
  mu.Instrument(&registry, "unit", {{"sensor", "s1"}});
  EXPECT_EQ(mu.label(), "unit");

  mu.lock();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  EXPECT_EQ(mu.acquisitions(), 2);
  EXPECT_EQ(mu.contended(), 0);

  // The counters land in the registry under {lock=unit, sensor=s1}.
  EXPECT_EQ(registry.SumCounters("gsn_lock_acquisitions_total"), 2);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("lock=\"unit\""), std::string::npos) << text;
  EXPECT_NE(text.find("sensor=\"s1\""), std::string::npos) << text;
}

TEST(TelemetryProfilerTest, ContendedAcquisitionRecordsWaitTime) {
  MetricRegistry registry;
  TimedMutex mu;
  mu.Instrument(&registry, "contended");

  mu.lock();
  std::thread waiter([&] {
    mu.lock();  // blocks until the main thread releases
    mu.unlock();
  });
  // Give the waiter time to hit the contended slow path, then release.
  while (mu.contended() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  mu.unlock();
  waiter.join();

  EXPECT_EQ(mu.acquisitions(), 2);
  EXPECT_EQ(mu.contended(), 1);
  EXPECT_GT(mu.wait_micros_total(), 0);
  EXPECT_EQ(registry.SumHistograms("gsn_lock_wait_micros").count, 1);
}

TEST(TelemetryProfilerTest, ProcessStatsAndBuildInfoArePopulated) {
  const ProcessStats stats = ReadProcessStats();
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_GE(stats.cpu_seconds, 0.0);
  EXPECT_FALSE(BuildVersion().empty());
  EXPECT_FALSE(BuildCompiler().empty());
}

}  // namespace
}  // namespace gsn::telemetry
