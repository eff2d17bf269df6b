// Tests for the common substrate: Status/Result, byte serialization, RNG.

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fail_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_EQ(fail_through().code(), StatusCode::kNotFound);
  auto pass_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(pass_through().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::OutOfRange("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(BytesTest, RoundTripAllWidths) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutF32(3.25f);
  w.PutF32(-1e-8f);
  EXPECT_EQ(w.size(), 1u + 2u + 4u + 4u + 4u);
  const std::vector<uint8_t> buf = w.Release();
  ByteReader r(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  float f1, f2;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadF32(&f1).ok());
  ASSERT_TRUE(r.ReadF32(&f2).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(f1, 3.25f);
  EXPECT_EQ(f2, -1e-8f);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU16(0x0102);
  w.PutU32(0x03040506u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x02);
  EXPECT_EQ(b[1], 0x01);
  EXPECT_EQ(b[2], 0x06);
  EXPECT_EQ(b[5], 0x03);
}

TEST(BytesTest, ReadPastEndFails) {
  ByteWriter w;
  w.PutU16(7);
  const std::vector<uint8_t> buf = w.bytes();
  ByteReader r(buf);
  uint32_t u32;
  EXPECT_EQ(r.ReadU32(&u32).code(), StatusCode::kOutOfRange);
  uint16_t u16;
  // The failed read consumed nothing: the u16 is still there.
  EXPECT_TRUE(r.ReadU16(&u16).ok());
  EXPECT_EQ(u16, 7);
  uint8_t u8;
  EXPECT_EQ(r.ReadU8(&u8).code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, CheckedU16NarrowingAtTheBoundary) {
  ByteWriter w;
  EXPECT_TRUE(w.PutU16Checked(0, "zero").ok());
  EXPECT_TRUE(w.PutU16Checked(0xffff, "max").ok());  // largest value that fits
  EXPECT_EQ(w.size(), 4u);
  // One past the boundary: rejected and nothing written — the old bare
  // static_cast would have silently truncated 0x10000 to 0.
  const Status s = w.PutU16Checked(0x10000, "node id");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("node id"), std::string::npos);
  EXPECT_EQ(w.size(), 4u);
  ByteReader r(w.bytes());
  uint16_t a, b;
  ASSERT_TRUE(r.ReadU16(&a).ok());
  ASSERT_TRUE(r.ReadU16(&b).ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 0xffffu);
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC check value: crc32("123456789") == 0xcbf43926.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const std::vector<uint8_t> zeros(4, 0);
  EXPECT_EQ(Crc32(zeros), 0x2144df1cu);  // crc32 of four zero bytes
  // Any single-byte change must alter the checksum.
  std::vector<uint8_t> tweaked = zeros;
  tweaked[2] = 1;
  EXPECT_NE(Crc32(tweaked), Crc32(zeros));
}

TEST(RngTest, MixStreamDecorrelatesAdjacentStreams) {
  // Adjacent (seed, stream) pairs must land far apart; equal inputs agree.
  EXPECT_EQ(Rng::MixStream(42, 7), Rng::MixStream(42, 7));
  std::set<uint64_t> keys;
  for (uint64_t s = 0; s < 100; ++s) {
    keys.insert(Rng::MixStream(42, s));
    keys.insert(Rng::MixStream(43, s));
  }
  EXPECT_EQ(keys.size(), 200u);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(9), b(9), c(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  }
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) != c.UniformInt(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
    const int64_t k = rng.UniformInt(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(12);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  EXPECT_EQ(std::set<int>(v.begin(), v.end()).size(), 50u);
}

// --- Mt19937_64 against its oracle, std::mt19937_64 -----------------------
//
// The lazily seeded engine must emit exactly the standard engine's
// sequence, however many draws precede a copy or a reseed: the counts
// straddle the lazy first block's edges (156 / 157 is where seeding
// completes, 312 where the first full twist starts).

std::vector<uint64_t> OracleSeeds() {
  std::vector<uint64_t> seeds = {0, 1, ~uint64_t{0}};
  for (uint64_t s = 0; s < 1000; ++s) {
    seeds.push_back(Rng::MixStream(s % 7, s));
  }
  return seeds;
}

constexpr int kDrawCounts[] = {0, 1, 2, 155, 156, 157, 311,
                               312, 313, 624, 625, 2000};

// Enough draws to cross into the next block from any position.
constexpr int kContinueDraws = 320;

// Index of the first of `n` draws where the engines differ, or -1.
template <typename A, typename B>
int FirstMismatch(A& a, B& b, int n) {
  for (int i = 0; i < n; ++i) {
    if (a() != b()) return i;
  }
  return -1;
}

TEST(Mt19937_64Test, MatchesStdEngineAtEveryDrawCount) {
  for (uint64_t seed : OracleSeeds()) {
    for (int n : kDrawCounts) {
      Mt19937_64 engine(seed);
      std::mt19937_64 oracle(seed);
      ASSERT_EQ(FirstMismatch(engine, oracle, n), -1)
          << "seed " << seed << " draws " << n;
      ASSERT_EQ(FirstMismatch(engine, oracle, kContinueDraws), -1)
          << "seed " << seed << " after " << n << " draws";
    }
  }
}

TEST(Mt19937_64Test, CopyOfAPartlyDrawnEngineContinuesIdentically) {
  for (uint64_t seed : OracleSeeds()) {
    for (int n : kDrawCounts) {
      Mt19937_64 engine(seed);
      std::mt19937_64 oracle(seed);
      oracle.discard(n);
      for (int i = 0; i < n; ++i) engine();
      Mt19937_64 copy(engine);
      ASSERT_EQ(FirstMismatch(copy, oracle, kContinueDraws), -1)
          << "seed " << seed << " copied after " << n << " draws";
      // Copy-assignment over an engine that has built more state.
      Mt19937_64 assigned(~seed);
      for (int i = 0; i < 700; ++i) assigned();
      assigned = engine;
      ASSERT_EQ(FirstMismatch(assigned, engine, kContinueDraws), -1)
          << "seed " << seed << " assigned after " << n << " draws";
    }
  }
}

TEST(Mt19937_64Test, ReseedAfterPartialDrawEqualsFreshEngine) {
  const std::vector<uint64_t> seeds = OracleSeeds();
  for (size_t s = 0; s < seeds.size(); ++s) {
    const uint64_t next = seeds[(s + 1) % seeds.size()];
    for (int n : kDrawCounts) {
      Mt19937_64 engine(seeds[s]);
      for (int i = 0; i < n; ++i) engine();
      engine.Reseed(next);
      std::mt19937_64 oracle(next);
      ASSERT_EQ(FirstMismatch(engine, oracle, kContinueDraws + n), -1)
          << "seed " << seeds[s] << " reseeded to " << next << " after "
          << n << " draws";
    }
  }
}

TEST(RngTest, SamplersMatchStdDistributionsOnStdEngine) {
  // Each sampler against a freshly constructed std distribution, the way
  // the Rng builds one per call (Gaussian's normal_distribution included,
  // so its cached second deviate is discarded every call).
  for (uint64_t seed : OracleSeeds()) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int round = 0; round < 120; ++round) {
      const double lo = -3.0 * round, hi = 1.0 + 0.5 * round;
      ASSERT_EQ(rng.Uniform(lo, hi),
                std::uniform_real_distribution<double>(lo, hi)(oracle))
          << "seed " << seed << " round " << round;
      ASSERT_EQ(rng.UniformInt(-round, 7 * round),
                std::uniform_int_distribution<int64_t>(-round, 7 * round)(
                    oracle));
      const int64_t big = INT64_MAX - round;
      ASSERT_EQ(rng.UniformInt(-big, big),
                std::uniform_int_distribution<int64_t>(-big, big)(oracle));
      ASSERT_EQ(rng.Gaussian(round, 0.25 + round),
                std::normal_distribution<double>(round, 0.25 + round)(oracle));
      std::vector<int> shuffled(round % 9), expected(round % 9);
      for (size_t i = 0; i < shuffled.size(); ++i) {
        shuffled[i] = expected[i] = static_cast<int>(i);
      }
      rng.Shuffle(&shuffled);
      for (size_t i = expected.size(); i > 1; --i) {
        const auto j = std::uniform_int_distribution<int64_t>(
            0, static_cast<int64_t>(i) - 1)(oracle);
        std::swap(expected[i - 1], expected[static_cast<size_t>(j)]);
      }
      ASSERT_EQ(shuffled, expected) << "seed " << seed << " round " << round;
    }
  }
}

TEST(RngTest, ForStreamReseedAndCopyMatchTheOracle) {
  for (uint64_t stream = 0; stream < 64; ++stream) {
    const uint64_t key = Rng::MixStream(99, stream);
    Rng rng = Rng::ForStream(99, stream);
    std::mt19937_64 oracle(key);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(rng.Uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(oracle));
    }
    Rng copy = rng;
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(copy.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    }
    rng.Reseed(key ^ 1);
    Rng fresh(key ^ 1);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng.UniformInt(0, 1000), fresh.UniformInt(0, 1000));
    }
  }
}

}  // namespace
}  // namespace dtree
