// Unit tests for pss_common: RNG determinism and distribution sanity,
// environment configuration, table formatting, CSV escaping.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/env.hpp"
#include "pss/common/rng.hpp"
#include "pss/common/table.hpp"

namespace pss {
namespace {

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 1234567 from the SplitMix64 reference
  // implementation (Vigna).
  std::uint64_t state = 1234567;
  const std::uint64_t a = splitmix64(state);
  const std::uint64_t b = splitmix64(state);
  EXPECT_NE(a, b);
  // Determinism: same seed, same stream.
  std::uint64_t state2 = 1234567;
  EXPECT_EQ(splitmix64(state2), a);
  EXPECT_EQ(splitmix64(state2), b);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, StreamAtIsAPureFunctionOfItsArguments) {
  Rng a = Rng::stream_at(42, 7, 3);
  Rng b = Rng::stream_at(42, 7, 3);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamAtDecorrelatesAcrossEveryArgument) {
  // Neighbouring (seed, stream, counter) tuples — the common case: same
  // seed, adjacent node ids, adjacent participation counters — must land
  // in unrelated states.
  const std::uint64_t base = Rng::stream_at(42, 7, 3)();
  EXPECT_NE(base, Rng::stream_at(43, 7, 3)());
  EXPECT_NE(base, Rng::stream_at(42, 8, 3)());
  EXPECT_NE(base, Rng::stream_at(42, 7, 4)());
  // First draws across a counter range collide (64-bit) essentially never.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t ctr = 0; ctr < 512; ++ctr) {
    firsts.push_back(Rng::stream_at(42, 7, ctr)());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is astronomically small
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(17);
  for (std::size_t n : {5ul, 20ul, 1000ul}) {
    for (std::size_t k : {0ul, 1ul, 3ul, n / 2, n}) {
      auto picks = rng.sample_indices(n, k);
      EXPECT_EQ(picks.size(), k);
      std::set<std::size_t> unique(picks.begin(), picks.end());
      EXPECT_EQ(unique.size(), k);
      for (std::size_t p : picks) EXPECT_LT(p, n);
    }
  }
}

/// Rng::sample_indices_into as it was before its rejection branch kept a
/// table: the same Fisher–Yates branch, and a scan of every accepted value
/// for each rejection candidate. Returns the rejected candidates and, of
/// those, how many share their table home slot with another accepted
/// value, so a test can tell that it reached duplicates behind collisions.
struct LinearScanTally {
  std::size_t rejected = 0;
  std::size_t rejected_behind_collision = 0;
};

LinearScanTally linear_scan_sample(Rng& rng, std::size_t n, std::size_t k,
                                   std::vector<std::size_t>& out,
                                   std::vector<std::size_t>& scratch) {
  LinearScanTally tally;
  out.clear();
  if (k == 0) return tally;
  if (k * 3 >= n) {
    scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
      std::swap(scratch[i], scratch[j]);
    }
    out.assign(scratch.begin(),
               scratch.begin() + static_cast<std::ptrdiff_t>(k));
    return tally;
  }
  const std::size_t slots = std::bit_ceil(4 * k);
  while (out.size() < k) {
    const auto candidate = static_cast<std::size_t>(rng.below(n));
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
      continue;
    }
    ++tally.rejected;
    const std::size_t home = Rng::sample_home(candidate, slots);
    tally.rejected_behind_collision +=
        std::any_of(out.begin(), out.end(), [&](std::size_t v) {
          return v != candidate && Rng::sample_home(v, slots) == home;
        });
  }
  return tally;
}

TEST(Rng, SampleIndicesIntoMatchesLinearScanDrawForDraw) {
  // n from 1 to 2^40; k from 0 up to just under n / 3, the largest k the
  // rejection branch takes (capped at kMaxK for the quadratic oracle), and
  // below the cap k = n / 3 rounded up, where Fisher–Yates starts.
  // Successive calls share each generator, and after every call the output
  // order and the generator position must agree.
  constexpr std::size_t kMaxK = 3000;
  const std::size_t ns[] = {1,    2,     3,       4,         7,
                            10,   31,    64,      100,       1000,
                            4099, 12345, 1 << 20, 1ULL << 32, 1ULL << 40};
  Rng expected_rng(0x5A3), actual_rng(0x5A3);
  std::vector<std::size_t> expected, actual, oracle_scratch, scratch;
  LinearScanTally total;
  for (const std::size_t n : ns) {
    const std::size_t rejection_max = (n - 1) / 3;
    std::vector<std::size_t> ks = {0, 1, 2, 5, 30, 1000,
                                   std::min(rejection_max, kMaxK)};
    if (rejection_max < kMaxK) ks.push_back(rejection_max + 1);
    for (const std::size_t k : ks) {
      if (k > n) continue;
      for (int call = 0; call < 3; ++call) {
        const LinearScanTally t =
            linear_scan_sample(expected_rng, n, k, expected, oracle_scratch);
        total.rejected += t.rejected;
        total.rejected_behind_collision += t.rejected_behind_collision;
        actual_rng.sample_indices_into(n, k, actual, scratch);
        ASSERT_EQ(expected, actual) << "n=" << n << " k=" << k;
        Rng e = expected_rng, a = actual_rng;
        for (int i = 0; i < 4; ++i) {
          ASSERT_EQ(e(), a()) << "n=" << n << " k=" << k << ": Rng diverged";
        }
      }
    }
  }
  EXPECT_GT(total.rejected, 0u);
  EXPECT_GT(total.rejected_behind_collision, 0u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(17);
  EXPECT_THROW(rng.sample_indices(3, 4), std::logic_error);
}

TEST(Rng, SampleIndicesCoversPopulation) {
  Rng rng(19);
  // Sampling 1 of 4, 4000 times: every index should appear ~1000 times.
  int counts[4] = {};
  for (int i = 0; i < 4000; ++i) ++counts[rng.sample_indices(4, 1)[0]];
  for (int count : counts) EXPECT_NEAR(count, 1000, 150);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(21);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(PSS_CHECK(false), std::logic_error);
  EXPECT_NO_THROW(PSS_CHECK(true));
  try {
    PSS_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

TEST(Env, IntParsingAndFallback) {
  ::unsetenv("PSS_TEST_INT");
  EXPECT_EQ(env::get_int("PSS_TEST_INT", 7), 7);
  ::setenv("PSS_TEST_INT", "123", 1);
  EXPECT_EQ(env::get_int("PSS_TEST_INT", 7), 123);
  ::setenv("PSS_TEST_INT", "12x", 1);
  EXPECT_THROW(env::get_int("PSS_TEST_INT", 7), std::runtime_error);
  ::unsetenv("PSS_TEST_INT");
}

TEST(Env, DoubleParsing) {
  ::setenv("PSS_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(env::get_double("PSS_TEST_DBL", 1.0), 0.25);
  ::unsetenv("PSS_TEST_DBL");
  EXPECT_DOUBLE_EQ(env::get_double("PSS_TEST_DBL", 1.0), 1.0);
}

TEST(Env, FlagSemantics) {
  ::unsetenv("PSS_TEST_FLAG");
  EXPECT_FALSE(env::get_flag("PSS_TEST_FLAG"));
  for (const char* off : {"0", "false", "OFF", "no"}) {
    ::setenv("PSS_TEST_FLAG", off, 1);
    EXPECT_FALSE(env::get_flag("PSS_TEST_FLAG")) << off;
  }
  for (const char* on : {"1", "true", "yes", "anything"}) {
    ::setenv("PSS_TEST_FLAG", on, 1);
    EXPECT_TRUE(env::get_flag("PSS_TEST_FLAG")) << on;
  }
  ::unsetenv("PSS_TEST_FLAG");
}

TEST(Env, ScaledPicksQuickOrFull) {
  ::unsetenv("PSS_TEST_SCALED");
  ::unsetenv("PSS_FULL");
  EXPECT_EQ(env::scaled("PSS_TEST_SCALED", 10, 100), 10);
  ::setenv("PSS_FULL", "1", 1);
  EXPECT_EQ(env::scaled("PSS_TEST_SCALED", 10, 100), 100);
  ::setenv("PSS_TEST_SCALED", "55", 1);
  EXPECT_EQ(env::scaled("PSS_TEST_SCALED", 10, 100), 55);
  ::unsetenv("PSS_TEST_SCALED");
  ::unsetenv("PSS_FULL");
}

TEST(TextTable, AlignsColumnsAndCountsRows) {
  TextTable t;
  t.row().cell("name").cell("value");
  t.row().cell("x").cell(static_cast<std::int64_t>(42));
  t.row().cell("longer-name").cell(3.14159, 2);
  EXPECT_EQ(t.data_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, CellBeforeRowThrows) {
  TextTable t;
  EXPECT_THROW(t.cell("oops"), std::logic_error);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace pss
