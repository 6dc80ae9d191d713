// Crash-recovery tests: the container manifest (deploy/undeploy event
// log), recovery-aware startup over --data-dir, checkpoint + log
// compaction, and the deterministic kill-mid-stream chaos scenario of
// docs/DURABILITY.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "gsn/container/container.h"
#include "gsn/container/manifest.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/types/codec.h"

namespace gsn::container {
namespace {

namespace fs = std::filesystem;

/// Deterministic producer: the generator wrapper emits seq 0,1,2,...
/// every 100ms of virtual time; permanent storage keeps the history.
std::string GenDescriptor(const std::string& name, bool permanent = true,
                          const std::string& storage_size = "10m") {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"gen\"/></metadata>"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"" +
         std::string(permanent ? "true" : "false") + "\" size=\"" +
         storage_size + "\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "      <predicate key=\"payload-bytes\" val=\"0\"/>"
         "    </address>"
         "    <query>select seq from wrapper order by seq desc limit 1"
         "    </query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("gsn_recovery_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Container::Options DataDirOptions(const std::string& dir,
                                  std::shared_ptr<Clock> clock) {
  Container::Options options;
  options.node_id = "n";
  options.clock = std::move(clock);
  options.seed = 29;
  options.data_dir = dir;
  // Checkpoints only when tests ask for them.
  options.supervision.checkpoint_interval = 0;
  return options;
}

void RunTicks(Container* container, const std::shared_ptr<VirtualClock>& clock,
              int ticks, Timestamp step = 100 * kMicrosPerMilli) {
  for (int i = 0; i < ticks; ++i) {
    clock->Advance(step);
    ASSERT_TRUE(container->Tick().ok());
  }
}

int64_t CountRows(Container* container, const std::string& table) {
  auto result = container->Query("select count(*) from \"" + table + "\"");
  if (!result.ok()) return -1;
  return result->rows()[0][0].int_value();
}

/// The elements the WAL at `path` replays, in order.
Result<std::vector<StreamElement>> RecoverWal(const std::string& path) {
  std::vector<StreamElement> out;
  auto decode = [&out](std::string_view payload) -> Status {
    GSN_ASSIGN_OR_RETURN(StreamElement e,
                         Codec::DecodeElementFromString(payload));
    out.push_back(std::move(e));
    return Status::OK();
  };
  GSN_RETURN_IF_ERROR(storage::RecordLog::Replay(path, decode).status());
  return out;
}

/// Appends raw bytes to `path`, as a foreign writer or bit rot would.
void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

std::vector<std::string> SortedSensors(const Container& container) {
  std::vector<std::string> names = container.ListSensors();
  std::sort(names.begin(), names.end());
  return names;
}

// ----------------------------------------------------------- Manifest unit

TEST(ContainerManifestTest, AppendRecoverLiveSetRoundTrip) {
  TempDir dir("manifest");
  const std::string path = dir.path() + "/manifest.gsnlog";
  {
    auto manifest = ContainerManifest::Open(path);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("a", "<a/>").ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("b", "<b/>").ok());
    ASSERT_TRUE((*manifest)->AppendUndeploy("a").ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("c", "<c/>").ok());
    EXPECT_EQ((*manifest)->appended_count(), 4u);
  }
  bool torn = true;
  auto events = ContainerManifest::Recover(path, &torn);
  ASSERT_TRUE(events.ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].kind, ContainerManifest::Event::Kind::kDeploy);
  EXPECT_EQ((*events)[2].kind, ContainerManifest::Event::Kind::kUndeploy);

  // The live set folds undeploys away, in first-deploy order.
  const auto live = ContainerManifest::LiveSet(*events);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].first, "b");
  EXPECT_EQ(live[0].second, "<b/>");
  EXPECT_EQ(live[1].first, "c");
}

TEST(ContainerManifestTest, RedeployKeepsSlotWithNewDescriptor) {
  std::vector<ContainerManifest::Event> events;
  events.push_back({ContainerManifest::Event::Kind::kDeploy, "a", "<old/>"});
  events.push_back({ContainerManifest::Event::Kind::kDeploy, "b", "<b/>"});
  events.push_back({ContainerManifest::Event::Kind::kDeploy, "a", "<new/>"});
  const auto live = ContainerManifest::LiveSet(events);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].first, "a");
  EXPECT_EQ(live[0].second, "<new/>");  // latest descriptor wins
  EXPECT_EQ(live[1].first, "b");        // order by first deploy
}

TEST(ContainerManifestTest, TornTailTruncatedOnOpen) {
  TempDir dir("manifest_torn");
  const std::string path = dir.path() + "/manifest.gsnlog";
  {
    auto manifest = ContainerManifest::Open(path);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("a", "<a/>").ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("b", "<b/>").ok());
  }
  // Kill -9 mid-write: chop the last record's tail.
  fs::resize_file(path, fs::file_size(path) - 2);
  bool torn = false;
  auto events = ContainerManifest::Recover(path, &torn);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(torn);
  ASSERT_EQ(events->size(), 1u);

  // Open truncates, so post-crash appends are recoverable.
  {
    auto manifest = ContainerManifest::Open(path);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("c", "<c/>").ok());
  }
  torn = true;
  events = ContainerManifest::Recover(path, &torn);
  ASSERT_TRUE(events.ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].sensor_name, "c");
}

TEST(ContainerManifestTest, CompactRewritesToLiveSet) {
  TempDir dir("manifest_compact");
  const std::string path = dir.path() + "/manifest.gsnlog";
  auto manifest = ContainerManifest::Open(path);
  ASSERT_TRUE(manifest.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*manifest)->AppendDeploy("churn", "<x/>").ok());
    ASSERT_TRUE((*manifest)->AppendUndeploy("churn").ok());
  }
  ASSERT_TRUE((*manifest)->AppendDeploy("keep", "<keep/>").ok());
  const auto before = fs::file_size(path);
  ASSERT_TRUE((*manifest)->Compact({{"keep", "<keep/>"}}).ok());
  EXPECT_LT(fs::file_size(path), before);
  // Still appendable after compaction.
  ASSERT_TRUE((*manifest)->AppendDeploy("late", "<late/>").ok());
  auto events = ContainerManifest::Recover(path, nullptr);
  ASSERT_TRUE(events.ok());
  const auto live = ContainerManifest::LiveSet(*events);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].first, "keep");
  EXPECT_EQ(live[1].first, "late");
}

// The manifest's bytes are a format that a data directory written by
// an older build must keep recovering: each event is kind:u8, the
// lowercased name as u32 LE length + bytes, then the descriptor xml,
// inside the shared record frame.
TEST(ContainerManifestTest, EventBytesAreStable) {
  TempDir dir("manifest_bytes");
  const std::string path = dir.path() + "/manifest.gsnlog";
  {
    auto manifest = ContainerManifest::Open(path);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE((*manifest)->AppendDeploy("Hall", "<x/>").ok());
    ASSERT_TRUE((*manifest)->AppendUndeploy("Hall").ok());
  }
  const std::string deploy("\x01\x04\x00\x00\x00hall<x/>", 13);
  const std::string undeploy("\x02\x04\x00\x00\x00hall", 9);
  auto contents = storage::ReadLogFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, storage::FrameLogRecord(deploy) +
                           storage::FrameLogRecord(undeploy));
}

// ------------------------------------------------------- Container recovery

TEST(ContainerRecoveryTest, RestartRedeploysSensorsAndRecoversTables) {
  TempDir dir("restart");
  auto clock = std::make_shared<VirtualClock>();
  int64_t rows_before = 0;
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("alpha")).ok());
    ASSERT_TRUE(container.Deploy(GenDescriptor("beta")).ok());
    RunTicks(&container, clock, 20);
    rows_before = CountRows(&container, "alpha");
    ASSERT_GT(rows_before, 0);
    // Process exit without Shutdown(): the destructor must NOT record
    // manifest undeploys — the sensors come back on restart.
  }
  {
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(container.recovery_failures(), 0u);
    EXPECT_GE(container.recovered_records(), 2u);
    auto sensors = container.ListSensors();
    ASSERT_EQ(sensors.size(), 2u);
    // Exactly the pre-crash history, exactly once.
    EXPECT_EQ(CountRows(&container, "alpha"), rows_before);
    auto distinct = container.Query(
        "select count(*), count(distinct seq) from alpha");
    ASSERT_TRUE(distinct.ok());
    EXPECT_EQ(distinct->rows()[0][0], distinct->rows()[0][1]);
    // And the recovered sensors keep producing.
    RunTicks(&container, clock, 5);
    EXPECT_GT(CountRows(&container, "alpha"), rows_before);
  }
}

TEST(ContainerRecoveryTest, OperatorUndeployIsDurable) {
  TempDir dir("undeploy");
  auto clock = std::make_shared<VirtualClock>();
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("keep")).ok());
    ASSERT_TRUE(container.Deploy(GenDescriptor("gone")).ok());
    RunTicks(&container, clock, 5);
    ASSERT_TRUE(container.Undeploy("gone").ok());
  }
  {
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(container.ListSensors(), std::vector<std::string>{"keep"});
  }
}

TEST(ContainerRecoveryTest, RecoveryFailureIsCountedNotFatal) {
  TempDir dir("bad_descriptor");
  auto clock = std::make_shared<VirtualClock>();
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("good")).ok());
    // Poison the manifest with a descriptor that can't redeploy.
    ASSERT_TRUE(container.manifest()
                    ->AppendDeploy("ghost", "<virtual-sensor broken")
                    .ok());
  }
  {
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(container.recovery_failures(), 1u);
    EXPECT_EQ(container.ListSensors(), std::vector<std::string>{"good"});
    RunTicks(&container, clock, 3);
  }
}

TEST(ContainerRecoveryTest, CheckpointBoundsWalAndManifestReplay) {
  TempDir dir("checkpoint");
  auto clock = std::make_shared<VirtualClock>();
  const std::string wal = dir.path() + "/ckpt.gsnlog";
  {
    Container container(DataDirOptions(dir.path(), clock));
    // Retention window of 5 rows; the WAL grows past it between
    // checkpoints.
    ASSERT_TRUE(container.Deploy(GenDescriptor("ckpt", true, "5")).ok());
    RunTicks(&container, clock, 40);
    auto before = RecoverWal(wal);
    ASSERT_TRUE(before.ok());
    EXPECT_GT(before->size(), 5u);  // unbounded history so far

    ASSERT_TRUE(container.Checkpoint().ok());
    auto after = RecoverWal(wal);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->size(), 5u);  // O(window), not O(history)

    // The manifest compacted to the live deploy set: one record.
    auto events =
        ContainerManifest::Recover(dir.path() + "/manifest.gsnlog", nullptr);
    ASSERT_TRUE(events.ok());
    EXPECT_EQ(events->size(), 1u);

    // Post-checkpoint appends land after the compacted prefix.
    RunTicks(&container, clock, 3);
    auto suffix = RecoverWal(wal);
    ASSERT_TRUE(suffix.ok());
    EXPECT_EQ(suffix->size(), 5u + 3u);  // checkpoint + suffix only
  }
  {
    // Restart replays checkpoint + suffix into the 5-row live window;
    // the rows the checkpoint evicted moved into columnar segments, so
    // the full history stays queryable even though the WAL is bounded.
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(container.ListSensors(), std::vector<std::string>{"ckpt"});
    // 43 ticks: the first anchors, so seqs 0..41 were emitted — and the
    // tiered scan must surface every one of them.
    EXPECT_EQ(CountRows(&container, "ckpt"), 42);
    auto newest = container.Query("select max(seq), min(seq) from ckpt");
    ASSERT_TRUE(newest.ok());
    EXPECT_EQ(newest->rows()[0][0].int_value(), 41);
    EXPECT_EQ(newest->rows()[0][1].int_value(), 0);
    ASSERT_NE(container.segment_catalog(), nullptr);
    EXPECT_GT(container.segment_catalog()->segment_count(), 0u);
  }
}

TEST(ContainerRecoveryTest, PeriodicCheckpointRunsFromTick) {
  TempDir dir("periodic");
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options = DataDirOptions(dir.path(), clock);
  options.supervision.checkpoint_interval = kMicrosPerSecond;
  Container container(std::move(options));
  ASSERT_TRUE(container.Deploy(GenDescriptor("p", true, "5")).ok());
  RunTicks(&container, clock, 30);  // 3s: at least two checkpoint rounds
  auto recovered =
      RecoverWal(dir.path() + "/p.gsnlog");
  ASSERT_TRUE(recovered.ok());
  // The WAL stays near the retention window instead of the full 29-row
  // history (a few post-checkpoint appends ride on top).
  EXPECT_LE(recovered->size(), 5u + 10u);
}

// The checkpoint needs storage, not a manifest: with storage_dir alone
// the WAL still compacts and evicted rows still move into segments.
TEST(ContainerRecoveryTest, PeriodicCheckpointRunsWithStorageDirAlone) {
  TempDir dir("periodic_storage_only");
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options = DataDirOptions(dir.path(), clock);
  options.storage_dir = options.data_dir;
  options.data_dir.clear();
  options.supervision.checkpoint_interval = kMicrosPerSecond;
  Container container(std::move(options));
  ASSERT_EQ(container.manifest(), nullptr);
  ASSERT_TRUE(container.Deploy(GenDescriptor("p", true, "5")).ok());
  RunTicks(&container, clock, 30);  // 3s: at least two checkpoint rounds
  auto recovered = RecoverWal(dir.path() + "/p.gsnlog");
  ASSERT_TRUE(recovered.ok());
  EXPECT_LE(recovered->size(), 5u + 10u);
  ASSERT_NE(container.segment_catalog(), nullptr);
  EXPECT_GT(container.segment_catalog()->segment_count(), 0u);
}

TEST(ContainerRecoveryTest, StorageDirDefaultsToDataDir) {
  TempDir dir("storage_default");
  auto clock = std::make_shared<VirtualClock>();
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("solo")).ok());
    RunTicks(&container, clock, 5);
  }
  // --data-dir alone is a complete durability root: the per-sensor WAL
  // landed next to the manifest.
  EXPECT_TRUE(fs::exists(dir.path() + "/solo.gsnlog"));
  EXPECT_TRUE(fs::exists(dir.path() + "/manifest.gsnlog"));
}

// ------------------------------------------------------------ Record rule

// A checkpoint whose manifest compaction fails must leave the manifest
// appendable: later deploys are still recorded and come back.
TEST(ContainerRecoveryTest,
     FailedManifestCompactionKeepsTheManifestAppendable) {
  TempDir dir("manifest_compact_fails");
  auto clock = std::make_shared<VirtualClock>();
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("first")).ok());
    // The compaction's temp file cannot be created.
    fs::create_directories(dir.path() + "/manifest.gsnlog.tmp");
    EXPECT_FALSE(container.Checkpoint().ok());
    ASSERT_TRUE(container.Deploy(GenDescriptor("second")).ok());
    RunTicks(&container, clock, 3);
  }
  Container container(DataDirOptions(dir.path(), clock));
  EXPECT_EQ(container.recovery_failures(), 0u);
  EXPECT_EQ(SortedSensors(container),
            (std::vector<std::string>{"first", "second"}));
}

// An intact frame whose payload does not decode is skipped, not taken
// for the end of the WAL: the rows on both sides of it recover, and rows
// appended after that recovery survive the next one.
TEST(ContainerRecoveryTest, UndecodableWalRecordIsSkipped) {
  TempDir dir("wal_undecodable");
  auto clock = std::make_shared<VirtualClock>();
  const std::string wal = dir.path() + "/w.gsnlog";
  int64_t rows_before = 0;
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("w")).ok());
    RunTicks(&container, clock, 6);
    rows_before = CountRows(&container, "w");
    ASSERT_GT(rows_before, 0);
  }
  auto elements = RecoverWal(wal);
  ASSERT_TRUE(elements.ok());
  ASSERT_EQ(static_cast<int64_t>(elements->size()), rows_before);
  StreamElement after_bad = elements->back();
  after_bad.timed += 1;
  after_bad.values[0] = Value::Int(1000);
  AppendBytes(wal, storage::FrameLogRecord("not a stream element") +
                       storage::FrameLogRecord(
                           Codec::EncodeElementToString(after_bad)));

  int64_t rows_after_recovery = 0;
  {
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(CountRows(&container, "w"), rows_before + 1);
    auto newest = container.Query("select max(seq) from w");
    ASSERT_TRUE(newest.ok());
    EXPECT_EQ(newest->rows()[0][0].int_value(), 1000);
    RunTicks(&container, clock, 6);
    rows_after_recovery = CountRows(&container, "w");
    ASSERT_GT(rows_after_recovery, rows_before + 1);
  }
  Container container(DataDirOptions(dir.path(), clock));
  EXPECT_EQ(CountRows(&container, "w"), rows_after_recovery);
}

// The same rule for the manifest: an intact event of an unknown kind is
// skipped, and a sensor deployed after that recovery comes back.
TEST(ContainerRecoveryTest, UndecodableManifestEventIsSkipped) {
  TempDir dir("manifest_undecodable");
  auto clock = std::make_shared<VirtualClock>();
  const std::string manifest = dir.path() + "/manifest.gsnlog";
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("before")).ok());
  }
  AppendBytes(manifest,
              storage::FrameLogRecord(std::string("\x09\x01\x00\x00\x00x", 6)));
  {
    Container container(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(SortedSensors(container), std::vector<std::string>{"before"});
    ASSERT_TRUE(container.Deploy(GenDescriptor("after")).ok());
  }
  Container container(DataDirOptions(dir.path(), clock));
  EXPECT_EQ(container.recovery_failures(), 0u);
  EXPECT_EQ(SortedSensors(container),
            (std::vector<std::string>{"after", "before"}));
}

// ------------------------------------------------------- Concurrent drivers

// POST /api/v1/checkpoint and the `checkpoint` management command run
// Checkpoint() on HTTP threads while gsnd's RealtimePump keeps ticking
// pipelines. The WAL handle swap must be serialized against pipeline
// appends: a row appended through a stale handle lands on the
// compacted-over inode and is silently lost to every future recovery
// (or worse, written through a destroyed handle).
TEST(ContainerRecoveryTest, CheckpointRacingAppendsLosesNoRows) {
  TempDir dir("ckpt_race");
  auto clock = std::make_shared<VirtualClock>();
  int64_t rows_before = 0;
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("raced")).ok());
    std::atomic<bool> stop{false};
    std::thread op([&] {
      while (!stop.load()) {
        EXPECT_TRUE(container.Checkpoint().ok());
      }
    });
    for (int i = 0; i < 40; ++i) {
      clock->Advance(100 * kMicrosPerMilli);
      EXPECT_TRUE(container.Tick().ok());
    }
    stop.store(true);
    op.join();
    rows_before = CountRows(&container, "raced");
    ASSERT_GT(rows_before, 0);
  }
  // Every row the pipelines appended survives the checkpoint storm,
  // exactly once.
  Container container(DataDirOptions(dir.path(), clock));
  EXPECT_EQ(CountRows(&container, "raced"), rows_before);
  auto dup =
      container.Query("select count(*), count(distinct seq) from raced");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->rows()[0][0], dup->rows()[0][1]);
}

// Deploy publishes to its shard before it appends its manifest record,
// so a checkpoint can collect the live set without a sensor whose record
// then lands before the compaction. Permanent sensors make each
// checkpoint slow (one WAL rewrite per sensor between collection and
// compaction), so most deploys race one. The compaction keeps every
// record appended after its mark: all 300 acknowledged deploys come back.
TEST(ContainerRecoveryTest, ManifestCompactionKeepsConcurrentDeploys) {
  constexpr int kSensors = 300;
  for (int repetition = 0; repetition < 3; ++repetition) {
    SCOPED_TRACE("repetition " + std::to_string(repetition));
    TempDir dir("manifest_race");
    auto clock = std::make_shared<VirtualClock>();
    int deployed = 0;
    {
      Container container(DataDirOptions(dir.path(), clock));
      std::atomic<bool> stop{false};
      std::atomic<int> checkpoints{0};
      std::thread checkpointer([&] {
        while (!stop.load()) {
          EXPECT_TRUE(container.Checkpoint().ok());
          checkpoints.fetch_add(1);
        }
      });
      for (int i = 0; i < kSensors; ++i) {
        if (container.Deploy(GenDescriptor("s" + std::to_string(i))).ok()) {
          ++deployed;
        }
      }
      stop.store(true);
      checkpointer.join();
      EXPECT_GT(checkpoints.load(), 0);
    }
    ASSERT_EQ(deployed, kSensors);
    Container restarted(DataDirOptions(dir.path(), clock));
    EXPECT_EQ(restarted.ListSensors().size(), static_cast<size_t>(kSensors));
    EXPECT_EQ(restarted.recovery_failures(), 0u);
  }
}

// POST /api/v1/drain runs Shutdown() — including its flush Tick rounds
// — on an HTTP thread while the RealtimePump keeps calling Tick();
// tick_mu_ serializes the two drivers (pools, checkpoint trigger).
TEST(ContainerRecoveryTest, DrainRacingPumpTicksIsSafe) {
  TempDir dir("drain_race");
  auto clock = std::make_shared<VirtualClock>();
  int64_t rows_at_drain = 0;
  {
    Container::Options options = DataDirOptions(dir.path(), clock);
    // Let the periodic trigger fire mid-race too.
    options.supervision.checkpoint_interval = 200 * kMicrosPerMilli;
    Container container(std::move(options));
    ASSERT_TRUE(container.Deploy(GenDescriptor("drained")).ok());
    std::atomic<bool> stop{false};
    std::thread pump([&] {  // RealtimePump stand-in
      while (!stop.load()) {
        EXPECT_TRUE(container.Tick().ok());
      }
    });
    for (int i = 0; i < 20; ++i) {
      clock->Advance(100 * kMicrosPerMilli);
      EXPECT_TRUE(container.Tick().ok());
    }
    EXPECT_TRUE(container.Shutdown().ok());  // the HTTP drain
    stop.store(true);
    pump.join();
    EXPECT_TRUE(container.draining());
    rows_at_drain = CountRows(&container, "drained");
    ASSERT_GT(rows_at_drain, 0);
  }
  // Drain checkpointed and fsynced: restart recovers the full history.
  Container container(DataDirOptions(dir.path(), clock));
  EXPECT_EQ(container.ListSensors(), std::vector<std::string>{"drained"});
  EXPECT_EQ(CountRows(&container, "drained"), rows_at_drain);
}

// An operator requeue racing an undeploy of the same sensor must never
// touch a destroyed source: either the tuple is reinjected (sensor
// still live) or it goes back to quarantine (sensor gone) — the entry
// is never silently dropped.
TEST(ContainerRecoveryTest, RequeueRacingUndeployKeepsOrReinjectsTuple) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options;
  options.node_id = "race";
  options.clock = clock;
  options.seed = 31;
  options.supervision.checkpoint_interval = 0;
  Container container(std::move(options));
  // Poison pipeline: every trigger fails, filling quarantine.
  ASSERT_TRUE(
      container
          .Deploy("<virtual-sensor name=\"q\">"
                  "<output-structure>"
                  "  <field name=\"seq\" type=\"integer\"/>"
                  "  <field name=\"inv\" type=\"integer\"/>"
                  "</output-structure>"
                  "<storage permanent-storage=\"false\" size=\"10m\"/>"
                  "<input-stream name=\"in\">"
                  "  <stream-source alias=\"src\" storage-size=\"1\">"
                  "    <address wrapper=\"generator\">"
                  "      <predicate key=\"interval-ms\" val=\"100\"/>"
                  "      <predicate key=\"payload-bytes\" val=\"0\"/>"
                  "    </address>"
                  "    <query>select seq from wrapper order by seq desc "
                  "limit 1</query>"
                  "  </stream-source>"
                  "  <query>select seq, 1 / (seq * 0) as inv from src</query>"
                  "</input-stream>"
                  "</virtual-sensor>")
          .ok());
  RunTicks(&container, clock, 6);
  const auto entries = container.quarantine().List();
  ASSERT_FALSE(entries.empty());

  std::thread undeployer([&] { EXPECT_TRUE(container.Undeploy("q").ok()); });
  size_t reinjected = 0;
  for (const auto& entry : entries) {
    const Status s = container.RequeueQuarantined(entry.id);
    if (s.ok()) {
      ++reinjected;  // won the race: source was still live
    } else {
      EXPECT_EQ(s.code(), StatusCode::kNotFound);  // lost it: entry kept
    }
  }
  undeployer.join();
  // Nothing vanished: every entry was either reinjected or kept.
  EXPECT_EQ(container.quarantine().size(), entries.size() - reinjected);
}

// ------------------------------------------------------------- Chaos (kill)

/// Copies the durability root as it exists RIGHT NOW — byte-identical
/// to what a kill -9 at this instant would leave behind.
void SnapshotDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy(entry.path(), fs::path(to) / entry.path().filename());
  }
}

TEST(ContainerRecoveryTest, KillMidStreamChaosIsDeterministic) {
  TempDir dir("chaos");
  TempDir snapshot("chaos_snapshot");
  auto clock = std::make_shared<VirtualClock>();

  int64_t rows_at_kill = 0;
  {
    Container container(DataDirOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("victim")).ok());
    ASSERT_TRUE(container.Deploy(GenDescriptor("bystander")).ok());
    RunTicks(&container, clock, 17);
    // kill -9 mid-stream: freeze the on-disk state while the container
    // is still running (no Shutdown, no destructor, no fsync beyond the
    // per-append flush).
    rows_at_kill = CountRows(&container, "victim");
    ASSERT_GT(rows_at_kill, 0);
    SnapshotDir(dir.path(), snapshot.path());
  }

  // Restart from the frozen state.
  Container container(DataDirOptions(snapshot.path(), clock));
  EXPECT_EQ(container.recovery_failures(), 0u);
  ASSERT_EQ(container.ListSensors().size(), 2u);
  // Every flushed row recovered, exactly once.
  EXPECT_EQ(CountRows(&container, "victim"), rows_at_kill);
  auto dup = container.Query(
      "select count(*), count(distinct seq) from victim");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->rows()[0][0], dup->rows()[0][1]);
  // The recovered node streams on.
  RunTicks(&container, clock, 5);
  EXPECT_GT(CountRows(&container, "victim"), rows_at_kill);
  EXPECT_GT(CountRows(&container, "bystander"), 0);
}

}  // namespace
}  // namespace gsn::container
