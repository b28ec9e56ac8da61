// Unit + property tests for the common runtime: Status/Result, varints,
// order-preserving codecs, hashing, RNG distributions and the ThreadPool's
// exception contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace zidian {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("key k1");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key k1");
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto f = []() -> Status {
    ZIDIAN_RETURN_NOT_OK(Status::Corruption("bad"));
    return Status::OK();
  };
  EXPECT_TRUE(f().IsCorruption());
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.value_or(9), 9);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    ZIDIAN_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_FALSE(outer(true).ok());
}

TEST(Coding, VarintRoundTrip) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 300, 1ull << 20,
                                          1ull << 40, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view sv = buf;
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&sv, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(sv.empty());
  }
}

TEST(Coding, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  std::string_view sv(buf.data(), buf.size() - 1);
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&sv, &out));
}

TEST(Coding, VarintRejectsOverflow) {
  // Ten continuation bytes: an eleventh byte can never contribute.
  std::string eleven(10, '\x80');
  eleven.push_back('\x01');
  std::string_view sv = eleven;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&sv, &out));

  // Ten bytes, but the tenth carries payload above bit 63: the decoder used
  // to shift those bits off the top and return the truncated low 64 bits.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');  // bit 64 of the decoded value
  sv = overflow;
  EXPECT_FALSE(GetVarint64(&sv, &out));

  // The genuine 10-byte encoding of UINT64_MAX (tenth byte == 0x01) stays
  // accepted — only impossible encodings are rejected.
  std::string max(9, '\xFF');
  max.push_back('\x01');
  sv = max;
  ASSERT_TRUE(GetVarint64(&sv, &out));
  EXPECT_EQ(out, UINT64_MAX);
  EXPECT_TRUE(sv.empty());
}

TEST(Coding, ZigZag) {
  for (int64_t v : std::vector<int64_t>{0, -1, 1, -500, 500, INT64_MIN,
                                        INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(-1), 1u);  // small magnitudes stay small
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Coding, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, std::string("\x00\x01zz", 4));
  std::string_view sv = buf;
  std::string_view a, b;
  ASSERT_TRUE(GetLengthPrefixed(&sv, &a));
  ASSERT_TRUE(GetLengthPrefixed(&sv, &b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, std::string("\x00\x01zz", 4));
}

/// Property: ordered encodings compare bytewise exactly like the values.
class OrderedCodecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderedCodecProperty, Int64OrderPreserved) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    std::string ea, eb;
    EncodeOrderedInt64(&ea, a);
    EncodeOrderedInt64(&eb, b);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
    std::string_view sv = ea;
    int64_t back;
    ASSERT_TRUE(DecodeOrderedInt64(&sv, &back));
    EXPECT_EQ(back, a);
  }
}

TEST_P(OrderedCodecProperty, DoubleOrderPreserved) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    double a = (rng.NextDouble() - 0.5) * 1e9;
    double b = (rng.NextDouble() - 0.5) * 1e9;
    std::string ea, eb;
    EncodeOrderedDouble(&ea, a);
    EncodeOrderedDouble(&eb, b);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
    std::string_view sv = ea;
    double back;
    ASSERT_TRUE(DecodeOrderedDouble(&sv, &back));
    EXPECT_EQ(back, a);
  }
}

TEST_P(OrderedCodecProperty, StringOrderPreserved) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.NextString(rng.Uniform(0, 12));
    std::string b = rng.NextString(rng.Uniform(0, 12));
    if (rng.Chance(0.3)) a.push_back('\x00');  // embedded zero bytes
    std::string ea, eb;
    EncodeOrderedString(&ea, a);
    EncodeOrderedString(&eb, b);
    EXPECT_EQ(a < b, ea < eb) << "'" << a << "' vs '" << b << "'";
    std::string_view sv = ea;
    std::string back;
    ASSERT_TRUE(DecodeOrderedString(&sv, &back));
    EXPECT_EQ(back, a);
  }
}

TEST_P(OrderedCodecProperty, StringPrefixSortsFirst) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    std::string a = rng.NextString(rng.Uniform(1, 8));
    std::string b = a + rng.NextString(rng.Uniform(1, 4));
    std::string ea, eb;
    EncodeOrderedString(&ea, a);
    EncodeOrderedString(&eb, b);
    EXPECT_LT(ea, eb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedCodecProperty,
                         ::testing::Values(1, 2, 3, 17, 42));

TEST(Hash, DeterministicAndSpread) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc", 1), Hash64("abc", 2));
  // Spread: 1000 sequential keys over 8 buckets should be roughly uniform.
  std::map<uint64_t, int> buckets;
  for (int i = 0; i < 1000; ++i) {
    buckets[Hash64(std::to_string(i)) % 8]++;
  }
  for (const auto& [b, n] : buckets) {
    EXPECT_GT(n, 60) << "bucket " << b;
    EXPECT_LT(n, 250) << "bucket " << b;
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(9), b(9), c(10);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(5);
  Zipf zipf(100, 1.2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(&rng)]++;
  // Rank 1 must dominate rank 50 by a wide margin.
  EXPECT_GT(counts[1], 10 * std::max(1, counts[50]));
  for (const auto& [rank, n] : counts) {
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 100u);
  }
}

TEST(ThreadPool, ThrowingTaskIsRethrownAtJoinAndPoolSurvives) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  auto boom = [&](size_t i) {
    if (i == 37) throw std::runtime_error("task 37 exploded");
    ran.fetch_add(1);
  };
  // The batch must not take the pool down (a helper with an escaping
  // exception would std::terminate its thread): the first exception is
  // captured, the remaining indices drain, and the join rethrows it.
  try {
    pool.ParallelFor(100, boom);
    FAIL() << "expected the task's exception at the join point";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 37 exploded");
  }
  EXPECT_LT(ran.load(), 100);  // at least index 37 never counted

  // The pool is still fully usable afterwards — same threads, new batch.
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, EveryTaskThrowingYieldsExactlyOneException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    int caught = 0;
    try {
      pool.ParallelFor(32, [](size_t i) {
        throw std::runtime_error("index " + std::to_string(i));
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    ASSERT_EQ(caught, 1) << "round " << round;
  }
  // Still alive after 20 poisoned batches.
  std::atomic<int> ok{0};
  pool.ParallelFor(8, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, CallerOnlyPathPropagatesExceptionsToo) {
  ThreadPool pool(0);  // no helpers: the sequential fallback
  EXPECT_THROW(
      pool.ParallelFor(4, [](size_t i) {
        if (i == 2) throw std::logic_error("seq");
      }),
      std::logic_error);
  std::atomic<int> ok{0};
  pool.ParallelFor(4, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(Metrics, AccumulatesAndFormats) {
  QueryMetrics a, b;
  a.get_calls = 3;
  a.bytes_from_storage = 100;
  b.get_calls = 2;
  b.shuffle_bytes = 50;
  a += b;
  EXPECT_EQ(a.get_calls, 5u);
  EXPECT_EQ(a.CommBytes(), 150u);
  EXPECT_NE(a.ToString().find("get_calls=5"), std::string::npos);
}

}  // namespace
}  // namespace zidian
