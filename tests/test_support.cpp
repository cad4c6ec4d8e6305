// Tests for the support substrate: contracts, PRNG, formatting, env knobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/random.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace conflux {
namespace {

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW([] { CONFLUX_EXPECTS(1 == 2); }(), ContractViolation);
  EXPECT_NO_THROW([] { CONFLUX_EXPECTS(2 == 2); }());
}

TEST(Contracts, MessageCarriesContext) {
  try {
    CONFLUX_EXPECTS_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_support"), std::string::npos);
  }
}

TEST(Contracts, AssertAndEnsures) {
  EXPECT_THROW([] { CONFLUX_ASSERT(false); }(), ContractViolation);
  EXPECT_THROW([] { CONFLUX_ENSURES(false); }(), ContractViolation);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng.below(10);
    ASSERT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SplitmixIsStateless) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(500), "500 B");
  EXPECT_EQ(human_bytes(1.5e9), "1.5 GB");
}

TEST(Format, GbMatchesPaperUnit) { EXPECT_EQ(gb(45.42e9), "45.42"); }

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("CONFLUX_TEST_UNSET_VAR");
  EXPECT_EQ(env_string("CONFLUX_TEST_UNSET_VAR", "dflt"), "dflt");
  EXPECT_EQ(env_int("CONFLUX_TEST_UNSET_VAR", 17), 17);
}

TEST(Env, ReadsValues) {
  ::setenv("CONFLUX_TEST_VAR", "123", 1);
  EXPECT_EQ(env_int("CONFLUX_TEST_VAR", 0), 123);
  EXPECT_EQ(env_string("CONFLUX_TEST_VAR", ""), "123");
  ::unsetenv("CONFLUX_TEST_VAR");
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleRangesWork) {
  support::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](int i) {
    EXPECT_EQ(i, 7);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  support::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(0, 6, [&](int) {
    // Must not deadlock: nested calls execute on the calling worker.
    pool.parallel_for(0, 10, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadPool, PropagatesBodyException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](int i) {
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SizeOnePoolSpawnsNoThreadsAndStillRuns) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int sum = 0;
  pool.parallel_for(0, 10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double first = w.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(w.seconds(), first);
}

}  // namespace
}  // namespace conflux
