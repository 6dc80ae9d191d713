#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "gsn/util/clock.h"
#include "gsn/util/hash.h"
#include "gsn/util/result.h"
#include "gsn/util/rng.h"
#include "gsn/util/status.h"
#include "gsn/util/strings.h"
#include "gsn/util/thread_pool.h"

namespace gsn {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("sensor xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "sensor xyz");
  EXPECT_EQ(s.ToString(), "NotFound: sensor xyz");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() -> Status { return Status::IoError("disk"); };
  auto outer = [&]() -> Status {
    GSN_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIoError);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::ParseError("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnExtracts) {
  auto f = []() -> Result<int> { return 10; };
  auto g = [&]() -> Result<int> {
    GSN_ASSIGN_OR_RETURN(int v, f());
    return v * 2;
  };
  EXPECT_EQ(*g(), 20);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto f = []() -> Result<int> { return Status::NotFound("x"); };
  auto g = [&]() -> Result<int> {
    GSN_ASSIGN_OR_RETURN(int v, f());
    return v * 2;
  };
  EXPECT_EQ(g().status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.Advance(5 * kMicrosPerSecond);
  EXPECT_EQ(clock.NowMicros(), 5 * kMicrosPerSecond);
  clock.SetTime(kMicrosPerHour);
  EXPECT_EQ(clock.NowMicros(), kMicrosPerHour);
}

TEST(ClockTest, SystemClockMonotoneEnough) {
  SystemClock clock;
  Timestamp a = clock.NowMicros();
  Timestamp b = clock.NowMicros();
  EXPECT_LE(a, b);
  EXPECT_GT(a, 0);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, Split) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(StrTrim("  hi \n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrToLower("AvG"), "avg");
  EXPECT_EQ(StrToUpper("avg"), "AVG");
  EXPECT_TRUE(StrEqualsIgnoreCase("TEMPERATURE", "temperature"));
  EXPECT_FALSE(StrEqualsIgnoreCase("temp", "temperature"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StrStartsWith("select *", "select"));
  EXPECT_FALSE(StrStartsWith("sel", "select"));
  EXPECT_TRUE(StrEndsWith("foo.xml", ".xml"));
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64(" -5 "), -5);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, ParseBool) {
  EXPECT_TRUE(*ParseBool("true"));
  EXPECT_TRUE(*ParseBool("YES"));
  EXPECT_FALSE(*ParseBool("0"));
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(StringsTest, ParseDurations) {
  EXPECT_EQ(*ParseDurationMicros("500ms"), 500 * kMicrosPerMilli);
  EXPECT_EQ(*ParseDurationMicros("10s"), 10 * kMicrosPerSecond);
  EXPECT_EQ(*ParseDurationMicros("2m"), 2 * kMicrosPerMinute);
  EXPECT_EQ(*ParseDurationMicros("1h"), kMicrosPerHour);
  EXPECT_EQ(*ParseDurationMicros("250us"), 250);
  EXPECT_EQ(*ParseDurationMicros("3"), 3 * kMicrosPerSecond);
  EXPECT_FALSE(ParseDurationMicros("10 parsecs").ok());
}

TEST(StringsTest, WindowSpecTimeVsCount) {
  // Paper Fig 1: storage-size="1h" is a time window; a bare integer is
  // a count window.
  Result<WindowSpec> time_spec = ParseWindowSpec("1h");
  ASSERT_TRUE(time_spec.ok());
  EXPECT_EQ(time_spec->kind, WindowSpec::Kind::kTime);
  EXPECT_EQ(time_spec->duration_micros, kMicrosPerHour);

  Result<WindowSpec> count_spec = ParseWindowSpec("100");
  ASSERT_TRUE(count_spec.ok());
  EXPECT_EQ(count_spec->kind, WindowSpec::Kind::kCount);
  EXPECT_EQ(count_spec->count, 100);

  EXPECT_FALSE(ParseWindowSpec("0").ok());
  EXPECT_FALSE(ParseWindowSpec("").ok());
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.NextDouble(0.1, 1.0);
    EXPECT_GE(d, 0.1);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, Sha256KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::HexDigest("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HashTest, Sha256StreamingMatchesOneShot) {
  Sha256 h;
  h.Update("hello ");
  h.Update("world");
  const auto streamed = h.Finish();
  const auto oneshot = Sha256::Hash("hello world");
  EXPECT_EQ(streamed, oneshot);
}

TEST(HashTest, Sha256LongInput) {
  // One million 'a' characters (standard vector).
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::HexDigest(input),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HashTest, HmacSha256Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(HmacSha256Hex(key, "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HashTest, HmacSha256Rfc4231Case2) {
  EXPECT_EQ(HmacSha256Hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HashTest, HmacLongKeyIsHashedFirst) {
  const std::string key(131, '\xaa');  // longer than the 64-byte block
  EXPECT_EQ(HmacSha256Hex(key,
                          "Test Using Larger Than Block-Size Key - Hash Key "
                          "First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(StringsTest, HexEncode) {
  const uint8_t bytes[] = {0x00, 0xff, 0x10};
  EXPECT_EQ(HexEncode(bytes, 3), "00ff10");
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count++; }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ParallelismAcrossWorkers) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      // Hold each task long enough that a single worker cannot drain
      // the queue alone before the others wake up.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.Wait();
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace gsn
