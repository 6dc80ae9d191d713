#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "gsn/storage/persistence_log.h"
#include "gsn/storage/table.h"
#include "gsn/storage/window_buffer.h"
#include "gsn/types/codec.h"
#include "gsn/util/logging.h"
#include "gsn/util/rng.h"

namespace gsn::storage {
namespace {

StreamElement Elem(Timestamp t, int v) {
  StreamElement e;
  e.timed = t;
  e.values = {Value::Int(v)};
  return e;
}

// ------------------------------------------------------------ WindowBuffer

TEST(WindowBufferTest, CountWindowKeepsLastN) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = 3;
  WindowBuffer buf(spec);
  for (int i = 1; i <= 5; ++i) buf.Add(Elem(i * 100, i));
  auto snap = buf.Snapshot(0);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].values[0], Value::Int(3));
  EXPECT_EQ(snap[2].values[0], Value::Int(5));
}

TEST(WindowBufferTest, TimeWindowEvictsOldElements) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(1 * kMicrosPerSecond, 1));
  buf.Add(Elem(5 * kMicrosPerSecond, 2));
  buf.Add(Elem(12 * kMicrosPerSecond, 3));
  // At t=12s, the 10s window covers (2s, 12s]: elements at 5s and 12s.
  auto snap = buf.Snapshot(12 * kMicrosPerSecond);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].values[0], Value::Int(2));
}

TEST(WindowBufferTest, TimeWindowLazyExpiryAtSnapshot) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(0, 1));
  // No new arrivals; the element ages out purely by the snapshot time.
  EXPECT_EQ(buf.Snapshot(kMicrosPerSecond / 2).size(), 1u);
  EXPECT_EQ(buf.Snapshot(2 * kMicrosPerSecond).size(), 0u);
}

TEST(WindowBufferTest, BoundaryIsExclusiveAtCutoff) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10;
  WindowBuffer buf(spec);
  buf.Add(Elem(100, 1));
  // Window at now=110 covers (100, 110] — the element at exactly
  // now - duration is expired.
  EXPECT_EQ(buf.Snapshot(110).size(), 0u);
  EXPECT_EQ(buf.Snapshot(109).size(), 1u);
}

TEST(WindowBufferTest, OutOfOrderAddInsertsInTimestampOrder) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(11 * kMicrosPerSecond, 1));
  buf.Add(Elem(20 * kMicrosPerSecond, 2));
  // A late arrival is binary-search inserted into its timestamp slot,
  // so the buffer stays sorted: [11s, 12s, 20s].
  buf.Add(Elem(12 * kMicrosPerSecond, 3));
  ASSERT_EQ(buf.size(), 3u);

  // At t=22s the window covers (12s, 22s]: only the 20s element is
  // live. Before ordered insert this layout was adversarial (an expired
  // entry sat after a live one); now the binary-search cut is always
  // valid.
  auto snap = buf.Snapshot(22 * kMicrosPerSecond);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].values[0], Value::Int(2));
  auto rows = buf.SnapshotRows(22 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ((*rows[0])[1], Value::Int(2));

  // A much newer arrival expires everything older on admission.
  buf.Add(Elem(40 * kMicrosPerSecond, 4));
  ASSERT_EQ(buf.size(), 1u);
  buf.Add(Elem(41 * kMicrosPerSecond, 5));
  rows = buf.SnapshotRows(41 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ((*rows[0])[1], Value::Int(4));
  EXPECT_EQ((*rows[1])[1], Value::Int(5));
}

TEST(WindowBufferTest, OutOfOrderAddKeepsSnapshotsSortedAndStable) {
  // Regression for the ordered-insert Add: heavy out-of-order arrival
  // must leave every snapshot non-decreasing in timed, with equal
  // timestamps preserving arrival order (stable insert).
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 1000 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  const std::vector<Timestamp> arrivals = {50, 10, 40, 10, 30, 20, 40,
                                           10, 35, 5,  45, 20, 50};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    buf.Add(Elem(arrivals[i] * kMicrosPerSecond, static_cast<int>(i)));
  }
  auto rows = buf.SnapshotRows(60 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), arrivals.size());
  for (size_t i = 1; i < rows.size(); ++i) {
    const Timestamp prev = (*rows[i - 1])[0].timestamp_value();
    const Timestamp cur = (*rows[i])[0].timestamp_value();
    EXPECT_LE(prev, cur) << "snapshot out of order at " << i;
    if (prev == cur) {
      // Ties keep arrival order: the payload (arrival index) ascends.
      EXPECT_LT((*rows[i - 1])[1].int_value(), (*rows[i])[1].int_value());
    }
  }
}

TEST(WindowBufferTest, ClearEmpties) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = 10;
  WindowBuffer buf(spec);
  buf.Add(Elem(1, 1));
  EXPECT_EQ(buf.size(), 1u);
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
}

// ------------------------------------------------------------------ Table

WindowSpec Count(int64_t n) {
  WindowSpec s;
  s.kind = WindowSpec::Kind::kCount;
  s.count = n;
  return s;
}

WindowSpec Time(Timestamp d) {
  WindowSpec s;
  s.kind = WindowSpec::Kind::kTime;
  s.duration_micros = d;
  return s;
}

Schema OneIntSchema() {
  Schema s;
  s.AddField("v", DataType::kInt);
  return s;
}

TEST(TableTest, InsertAndScanAddsTimedColumn) {
  Table t("s1", OneIntSchema(), Count(10));
  ASSERT_TRUE(t.Insert(Elem(123, 7)).ok());
  Relation rel = t.Scan();
  ASSERT_EQ(rel.NumRows(), 1u);
  EXPECT_EQ(rel.schema().field(0).name, "timed");
  EXPECT_EQ(rel.rows()[0][0].timestamp_value(), 123);
  EXPECT_EQ(rel.rows()[0][1], Value::Int(7));
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("s1", OneIntSchema(), Count(10));
  StreamElement e;
  e.values = {Value::Int(1), Value::Int(2)};
  EXPECT_EQ(t.Insert(e).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, CountRetention) {
  Table t("s1", OneIntSchema(), Count(2));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.Insert(Elem(i, i)).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  Relation rel = t.Scan();
  EXPECT_EQ(rel.rows()[0][1], Value::Int(3));
}

TEST(TableTest, TimeRetention) {
  Table t("s1", OneIntSchema(), Time(10 * kMicrosPerSecond));
  ASSERT_TRUE(t.Insert(Elem(0, 1)).ok());
  ASSERT_TRUE(t.Insert(Elem(5 * kMicrosPerSecond, 2)).ok());
  ASSERT_TRUE(t.Insert(Elem(20 * kMicrosPerSecond, 3)).ok());
  EXPECT_EQ(t.NumRows(), 1u);  // inserts at 20s evicted 0s and 5s
}

TEST(TableTest, ScanWithNowAppliesTimeWindow) {
  Table t("s1", OneIntSchema(), Time(10 * kMicrosPerSecond));
  ASSERT_TRUE(t.Insert(Elem(kMicrosPerSecond, 1)).ok());
  EXPECT_EQ(t.Scan(5 * kMicrosPerSecond).NumRows(), 1u);
  EXPECT_EQ(t.Scan(30 * kMicrosPerSecond).NumRows(), 0u);
}

TEST(TableTest, ByteAccounting) {
  Table t("s1", OneIntSchema(), Count(100));
  EXPECT_EQ(t.ApproximateBytes(), 0u);
  ASSERT_TRUE(t.Insert(Elem(1, 1)).ok());
  EXPECT_GT(t.ApproximateBytes(), 0u);
  t.Clear();
  EXPECT_EQ(t.ApproximateBytes(), 0u);
}

// ----------------------------------------------------------- TableManager

TEST(TableManagerTest, CreateGetDrop) {
  TableManager mgr;
  ASSERT_TRUE(mgr.CreateTable("temps", OneIntSchema(), Count(10)).ok());
  EXPECT_EQ(mgr.CreateTable("TEMPS", OneIntSchema(), Count(10)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(mgr.GetTableHandle("Temps").ok());
  EXPECT_EQ(mgr.ListTables().size(), 1u);
  ASSERT_TRUE(mgr.DropTable("temps").ok());
  EXPECT_EQ(mgr.DropTable("temps").code(), StatusCode::kNotFound);
}

TEST(TableManagerTest, ResolvesForSqlExecutor) {
  TableManager mgr;
  auto table = mgr.CreateTable("temps", OneIntSchema(), Count(10));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(Elem(100, 42)).ok());
  ASSERT_TRUE((*table)->Insert(Elem(200, 58)).ok());

  sql::Executor exec(&mgr);
  auto rel = exec.Query("select avg(v) from temps");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_DOUBLE_EQ(rel->rows()[0][0].double_value(), 50.0);
}

// ------------------------------------------------------------------ Codec

TEST(CodecTest, ValueRoundTripAllTypes) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(-42),
      Value::Double(3.25),
      Value::String("hello"),
      Value::Binary(MakeBlob(std::string_view("\x00\x01\xff", 3))),
      Value::TimestampVal(123456789),
  };
  for (const Value& v : values) {
    std::string buf;
    Codec::EncodeValue(v, &buf);
    size_t pos = 0;
    auto decoded = Codec::DecodeValue(buf, &pos);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(*decoded, v) << v.ToString();
    // Type tags must survive, not just ordering equality.
    EXPECT_EQ(decoded->is_timestamp(), v.is_timestamp());
    EXPECT_EQ(decoded->is_binary(), v.is_binary());
  }
}

TEST(CodecTest, ElementRoundTrip) {
  StreamElement e;
  e.timed = 987654;
  e.values = {Value::Int(1), Value::String("x"), Value::Null()};
  auto decoded =
      Codec::DecodeElementFromString(Codec::EncodeElementToString(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->timed, e.timed);
  ASSERT_EQ(decoded->values.size(), 3u);
  EXPECT_EQ(decoded->values[1], Value::String("x"));
}

TEST(CodecTest, RelationRoundTrip) {
  Schema s;
  s.AddField("a", DataType::kInt);
  s.AddField("b", DataType::kString);
  Relation r(s);
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::String("one")}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(2), Value::Null()}).ok());
  auto decoded =
      Codec::DecodeRelationFromString(Codec::EncodeRelationToString(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema(), r.schema());
  ASSERT_EQ(decoded->NumRows(), 2u);
  EXPECT_EQ(decoded->rows()[0][1], Value::String("one"));
  EXPECT_TRUE(decoded->rows()[1][1].is_null());
}

TEST(CodecTest, TruncatedInputRejected) {
  StreamElement e;
  e.timed = 1;
  e.values = {Value::String("payload")};
  std::string buf = Codec::EncodeElementToString(e);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    EXPECT_FALSE(
        Codec::DecodeElementFromString(std::string_view(buf).substr(0, cut))
            .ok())
        << "cut at " << cut;
  }
}

TEST(CodecTest, TrailingBytesRejected) {
  StreamElement e;
  e.timed = 1;
  e.values = {};
  std::string buf = Codec::EncodeElementToString(e) + "x";
  EXPECT_FALSE(Codec::DecodeElementFromString(buf).ok());
}

// ---------------------------------- persistence log (a RecordLog of elements)

class PersistenceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("gsn_log_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// The persistence log is a RecordLog of Codec element payloads.
  static std::string Payload(const StreamElement& e) {
    return Codec::EncodeElementToString(e);
  }
  /// Replays the log into its elements, as recovery does.
  Result<std::vector<StreamElement>> Recover(bool* truncated) {
    std::vector<StreamElement> out;
    auto decode = [&out](std::string_view payload) -> Status {
      GSN_ASSIGN_OR_RETURN(StreamElement e,
                           Codec::DecodeElementFromString(payload));
      out.push_back(std::move(e));
      return Status::OK();
    };
    GSN_ASSIGN_OR_RETURN(RecordLog::ReplayStats stats,
                         RecordLog::Replay(path_.string(), decode));
    if (truncated != nullptr) *truncated = stats.torn_tail;
    return out;
  }

  std::filesystem::path path_;
};

TEST_F(PersistenceLogTest, AppendAndRecover) {
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*log)->Append(Payload(Elem(i * 100, i))).ok());
    }
    EXPECT_EQ((*log)->appended_count(), 10u);
  }
  bool truncated = false;
  auto recovered = Recover(&truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(recovered->size(), 10u);
  EXPECT_EQ((*recovered)[7].values[0], Value::Int(7));
  EXPECT_EQ((*recovered)[7].timed, 700);
}

TEST_F(PersistenceLogTest, MissingFileIsEmptyHistory) {
  bool truncated = true;
  auto recovered = Recover(&truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->empty());
  EXPECT_FALSE(truncated);
}

TEST_F(PersistenceLogTest, TornTailWriteIsDroppedOnRecovery) {
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(1, 1))).ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(2, 2))).ok());
  }
  // Simulate a crash mid-write: chop the last few bytes.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);

  bool truncated = false;
  auto recovered = Recover(&truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(1));
}

TEST_F(PersistenceLogTest, CorruptPayloadDetectedByCrc) {
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(1, 1))).ok());
  }
  // Flip a byte in the middle of the file.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);

  bool truncated = false;
  auto recovered = Recover(&truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(recovered->empty());
}

TEST_F(PersistenceLogTest, OpenTruncatesTornTailSoLaterAppendsSurvive) {
  // Regression: Open used to append blindly after a torn record, so
  // every post-crash append sat behind the corrupt bytes and every
  // future Recover stopped before them — durable writes silently lost.
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(1, 1))).ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(2, 2))).ok());
  }
  // Crash mid-write: hand-corrupt the tail by chopping bytes.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);

  // Reopen (the post-crash boot) and append new history.
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Payload(Elem(3, 3))).ok());
  }

  bool truncated = true;
  auto recovered = Recover(&truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);  // Open repaired the tail
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(1));
  EXPECT_EQ((*recovered)[1].values[0], Value::Int(3));  // append visible
}

TEST_F(PersistenceLogTest, RewriteCompactsToGivenElements) {
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*log)->Append(Payload(Elem(i, i))).ok());
    }
  }
  const auto before = std::filesystem::file_size(path_);
  // Checkpoint keeps only the retention window (here: the last 2).
  auto compacted = RecordLog::Open(path_.string());
  ASSERT_TRUE(compacted.ok());
  ASSERT_TRUE(
      (*compacted)->Replace({Payload(Elem(98, 98)), Payload(Elem(99, 99))})
          .ok());
  EXPECT_LT(std::filesystem::file_size(path_), before);
  // The replaced log stays appendable.
  ASSERT_TRUE((*compacted)->Append(Payload(Elem(100, 100))).ok());
  auto recovered = Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 3u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(98));
  EXPECT_EQ((*recovered)[2].values[0], Value::Int(100));
}

TEST_F(PersistenceLogTest, ReopenAppends) {
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE((*log)->Append(Payload(Elem(1, 1))).ok());
  }
  {
    auto log = RecordLog::Open(path_.string());
    ASSERT_TRUE((*log)->Append(Payload(Elem(2, 2))).ok());
  }
  auto recovered = Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), 2u);
}

// --------------------------------------------------------------- RecordLog

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("gsn_record_log_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    TearDown();
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove_all(path_ + ".tmp");
  }

  /// Every payload Replay visits, in order.
  std::vector<std::string> ReplayAll(RecordLog::ReplayStats* stats) {
    std::vector<std::string> out;
    auto collect = [&out](std::string_view payload) -> Status {
      out.emplace_back(payload);
      return Status::OK();
    };
    auto replayed = RecordLog::Replay(path_, collect);
    EXPECT_TRUE(replayed.ok());
    if (replayed.ok()) *stats = *replayed;
    return out;
  }

  void Overwrite(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::string path_;
};

/// `n` random payloads: mostly short, sometimes empty, sometimes past
/// ReadLogFile's 64 KiB read buffer; the last one always short, so a
/// byte sweep over it stays cheap.
std::vector<std::string> RandomPayloads(Rng* rng, size_t n) {
  std::vector<std::string> payloads;
  for (size_t i = 0; i < n; ++i) {
    size_t size = rng->NextUint64(40);
    const uint64_t shape = rng->NextUint64(6);
    if (shape == 0) size = 0;
    if (shape == 1 && i + 1 < n) size = 64 * 1024 + rng->NextUint64(512);
    std::string payload(size, '\0');
    for (char& c : payload) c = static_cast<char>(rng->NextUint64(256));
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

TEST_F(RecordLogTest, SeededAppendCutFlipReplaceProperty) {
  // Every cut and flip below is a torn tail that Replay warns about.
  struct QuietLogs {
    LogLevel saved = Logger::Instance().min_level();
    QuietLogs() { Logger::Instance().set_min_level(LogLevel::kError); }
    ~QuietLogs() { Logger::Instance().set_min_level(saved); }
  } quiet;
  bool saw_empty = false;
  bool saw_large = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TearDown();
    Rng rng(seed);
    const std::vector<std::string> payloads =
        RandomPayloads(&rng, 3 + rng.NextUint64(6));
    std::vector<size_t> starts;  // byte offset of each record
    size_t size = 0;
    for (const std::string& payload : payloads) {
      starts.push_back(size);
      size += payload.size() + 9;
      saw_empty |= payload.empty();
      saw_large |= payload.size() > 64 * 1024;
    }

    // Appended payloads replay exactly.
    {
      auto log = RecordLog::Open(path_);
      ASSERT_TRUE(log.ok());
      for (const std::string& payload : payloads) {
        ASSERT_TRUE((*log)->Append(payload).ok());
      }
      EXPECT_EQ((*log)->appended_count(), payloads.size());
    }
    RecordLog::ReplayStats stats;
    EXPECT_EQ(ReplayAll(&stats), payloads);
    EXPECT_EQ(stats.records, payloads.size());
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_FALSE(stats.torn_tail);
    auto whole = ReadLogFile(path_);
    ASSERT_TRUE(whole.ok());
    ASSERT_EQ(whole->size(), size);

    // A cut anywhere inside the last record is a torn tail; Open repairs
    // it and a fresh append replays right behind the intact prefix.
    const std::vector<std::string> prefix(payloads.begin(),
                                          payloads.end() - 1);
    for (size_t cut = starts.back() + 1; cut < size; ++cut) {
      SCOPED_TRACE("cut at " + std::to_string(cut));
      Overwrite(whole->substr(0, cut));
      EXPECT_EQ(ReplayAll(&stats), prefix);
      EXPECT_TRUE(stats.torn_tail);
      {
        auto log = RecordLog::Open(path_);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE((*log)->Append("fresh").ok());
      }
      std::vector<std::string> repaired = prefix;
      repaired.push_back("fresh");
      EXPECT_EQ(ReplayAll(&stats), repaired);
      EXPECT_FALSE(stats.torn_tail);
    }

    // Flipping any byte of a record's frame (magic, length, CRC) ends
    // the log before that record.
    for (size_t r = 0; r < payloads.size(); ++r) {
      const size_t end = starts[r] + payloads[r].size() + 9;
      for (size_t at : {starts[r], starts[r] + 1, starts[r] + 2, starts[r] + 3,
                        starts[r] + 4, end - 4, end - 3, end - 2, end - 1}) {
        SCOPED_TRACE("flip at " + std::to_string(at));
        std::string flipped = *whole;
        flipped[at] = static_cast<char>(flipped[at] ^
                                        (1 + rng.NextUint64(255)));
        Overwrite(flipped);
        EXPECT_EQ(ReplayAll(&stats),
                  std::vector<std::string>(payloads.begin(),
                                           payloads.begin() + r));
        EXPECT_TRUE(stats.torn_tail);
      }
    }

    // Replay after Replace is the replacement, then later appends.
    Overwrite(*whole);
    const std::vector<std::string> replacement =
        RandomPayloads(&rng, rng.NextUint64(4));
    const std::vector<std::string> later = RandomPayloads(&rng, 2);
    {
      auto log = RecordLog::Open(path_);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE((*log)->Replace(replacement).ok());
      EXPECT_EQ((*log)->appended_count(), 0u);
      for (const std::string& payload : later) {
        ASSERT_TRUE((*log)->Append(payload).ok());
      }
    }
    std::vector<std::string> expected = replacement;
    expected.insert(expected.end(), later.begin(), later.end());
    EXPECT_EQ(ReplayAll(&stats), expected);
    EXPECT_FALSE(stats.torn_tail);
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_large);
}

// The record rule: an intact frame whose payload the decoder rejects is
// skipped with one warning, and replay goes on past it.
TEST_F(RecordLogTest, RejectedPayloadIsSkippedWithOneWarning) {
  {
    auto log = RecordLog::Open(path_);
    ASSERT_TRUE(log.ok());
    for (const char* payload : {"a", "bad", "c"}) {
      ASSERT_TRUE((*log)->Append(payload).ok());
    }
  }
  std::vector<std::string> warnings;
  Logger::Instance().SetSink(
      [&warnings](const std::string& line) { warnings.push_back(line); });
  std::vector<std::string> visited;
  auto replayed =
      RecordLog::Replay(path_, [&visited](std::string_view payload) {
        if (payload == "bad") return Status::ParseError("not a record");
        visited.emplace_back(payload);
        return Status::OK();
      });
  Logger::Instance().SetSink(nullptr);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(visited, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(replayed->records, 3u);
  EXPECT_EQ(replayed->skipped, 1u);
  EXPECT_FALSE(replayed->torn_tail);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("not a record"), std::string::npos);
}

// A compaction that cannot write its temp file leaves the old log and
// handle as they were, still appendable.
TEST_F(RecordLogTest, FailedReplaceLeavesTheOldLogAppendable) {
  auto log = RecordLog::Open(path_);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append("a").ok());
  std::filesystem::create_directories(path_ + ".tmp");
  EXPECT_FALSE((*log)->Replace({"x"}).ok());
  ASSERT_TRUE((*log)->Append("b").ok());
  EXPECT_EQ((*log)->appended_count(), 2u);
  RecordLog::ReplayStats stats;
  EXPECT_EQ(ReplayAll(&stats), (std::vector<std::string>{"a", "b"}));

  std::filesystem::remove(path_ + ".tmp");
  ASSERT_TRUE((*log)->Replace({"x"}).ok());
  ASSERT_TRUE((*log)->Append("c").ok());
  EXPECT_EQ(ReplayAll(&stats), (std::vector<std::string>{"x", "c"}));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

// A mark is the log's end. Replace(payloads, mark) keeps, byte for byte,
// every record appended after it, and appends go on behind them; a mark
// past the end is refused and leaves the log as it was.
TEST_F(RecordLogTest, ReplaceKeepsRecordsAppendedAfterTheMark) {
  auto log = RecordLog::Open(path_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->Mark(), 0u);
  ASSERT_TRUE((*log)->Append("a").ok());
  ASSERT_TRUE((*log)->Append("b").ok());
  const uint64_t mark = (*log)->Mark();
  EXPECT_EQ(mark, 2 * FrameLogRecord("a").size());
  ASSERT_TRUE((*log)->Append("c").ok());
  ASSERT_TRUE((*log)->Append("dd").ok());
  ASSERT_TRUE((*log)->Replace({"x"}, mark).ok());
  EXPECT_EQ((*log)->appended_count(), 0u);
  ASSERT_TRUE((*log)->Append("e").ok());
  RecordLog::ReplayStats stats;
  EXPECT_EQ(ReplayAll(&stats),
            (std::vector<std::string>{"x", "c", "dd", "e"}));
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ((*log)->Mark(), std::filesystem::file_size(path_));

  // A mark at the end keeps nothing after the payloads.
  ASSERT_TRUE((*log)->Replace({"y"}, (*log)->Mark()).ok());
  EXPECT_EQ(ReplayAll(&stats), (std::vector<std::string>{"y"}));
  EXPECT_FALSE((*log)->Replace({"z"}, (*log)->Mark() + 1).ok());
  ASSERT_TRUE((*log)->Append("f").ok());
  EXPECT_EQ(ReplayAll(&stats), (std::vector<std::string>{"y", "f"}));

  // A reopened handle marks the end of what it found.
  log->reset();
  auto reopened = RecordLog::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Mark(), std::filesystem::file_size(path_));
}

// Appends from several threads race Replace and Sync on one handle: no
// append tears the log, and every append that began after the last
// Replace returned is in it.
TEST_F(RecordLogTest, ConcurrentAppendsReplaceAndSync) {
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 300;
  constexpr int kReplaces = 12;
  auto log = RecordLog::Open(path_);
  ASSERT_TRUE(log.ok());
  RecordLog* handle = log->get();

  std::atomic<int> replaces_done{0};
  // Per writer: the replace generation each append saw before it began.
  std::vector<std::vector<int>> began_after(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        began_after[w].push_back(replaces_done.load());
        EXPECT_TRUE(
            handle->Append(Codec::EncodeElementToString(Elem(w, i))).ok());
      }
    });
  }
  threads.emplace_back([&] {
    for (int r = 1; r <= kReplaces; ++r) {
      EXPECT_TRUE(
          handle->Replace({Codec::EncodeElementToString(Elem(-1, r))}).ok());
      replaces_done.store(r);
      EXPECT_TRUE(handle->Sync().ok());
    }
  });
  for (std::thread& t : threads) t.join();

  std::vector<StreamElement> replayed;
  auto decode = [&replayed](std::string_view payload) -> Status {
    GSN_ASSIGN_OR_RETURN(StreamElement e,
                         Codec::DecodeElementFromString(payload));
    replayed.push_back(std::move(e));
    return Status::OK();
  };
  auto stats = RecordLog::Replay(path_, decode);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(stats->skipped, 0u);
  ASSERT_FALSE(replayed.empty());
  // The last replacement heads the log.
  EXPECT_EQ(replayed[0].timed, -1);
  EXPECT_EQ(replayed[0].values[0], Value::Int(kReplaces));
  std::set<std::pair<Timestamp, int64_t>> present;
  for (const StreamElement& e : replayed) {
    present.emplace(e.timed, e.values[0].int_value());
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kAppendsPerWriter; ++i) {
      if (began_after[w][i] < kReplaces) continue;
      EXPECT_TRUE(present.count({w, i})) << "writer " << w << " append " << i;
    }
  }
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

}  // namespace
}  // namespace gsn::storage
