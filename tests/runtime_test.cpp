// Tests for the parallel runtime: thread-pool scheduling/exception
// semantics and deterministic RNG stream derivation.
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace simcov::runtime {
namespace {

TEST(ResolveThreads, ZeroMeansHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  // More tasks than lanes: the shared counter must hand out each index to
  // exactly one lane.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each_index(kCount, [&](std::size_t k) {
    hits[k].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(ThreadPool, EmptyLoopNeverCallsTheTask) {
  ThreadPool pool(3);
  bool called = false;
  pool.for_each_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.for_each_index(5, [&](std::size_t k) {
    ran[k] = std::this_thread::get_id();
  });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.for_each_index(100,
                          [&](std::size_t k) {
                            if (k == 37) {
                              throw std::runtime_error("task 37 failed");
                            }
                            ran.fetch_add(1, std::memory_order_relaxed);
                          }),
      std::runtime_error);
  // The failing loop drains early: not every remaining task runs.
  EXPECT_LT(ran.load(), 100);
  // The pool stays usable after a failed loop.
  std::atomic<int> after{0};
  pool.for_each_index(50, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPool, BackToBackLoopsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.for_each_index(64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64) << "round " << round;
  }
}

TEST(ParallelForEach, CoversAllIndicesAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{0}}) {
    std::vector<std::atomic<int>> hits(123);
    parallel_for_each(threads, hits.size(), [&](std::size_t k) {
      hits[k].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "threads=" << threads << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// RNG stream derivation
// ---------------------------------------------------------------------------

TEST(Rng, DeriveStreamIsDeterministic) {
  EXPECT_EQ(derive_stream(1, kWalkStream), derive_stream(1, kWalkStream));
  EXPECT_EQ(derive_run_stream(42, 7), derive_run_stream(42, 7));
}

TEST(Rng, StreamsAreDecoupledAcrossRelatedSeeds) {
  // Regression for the old `seed ^ 0x9e3779b9` split: there, the sampling
  // stream of seed s equalled the walk stream of seed s ^ 0x9e3779b9, so
  // related user seeds collapsed the two phases onto one RNG sequence. No
  // affine relative of a seed may reproduce another stream's seed.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 64; ++s) {
    for (const std::uint64_t seed :
         {s, s ^ std::uint64_t{0x9e3779b9}, s + 1, ~s, s << 1}) {
      seeds.insert(seed);
    }
  }
  std::set<std::uint64_t> seen;
  for (const std::uint64_t seed : seeds) {
    for (const std::uint64_t stream :
         {std::uint64_t{kWalkStream}, std::uint64_t{kMutantStream},
          std::uint64_t{kRunStream}}) {
      seen.insert(derive_stream(seed, stream));
    }
  }
  // All distinct (seed, stream) pairs map to distinct 64-bit values — in
  // particular no walk stream collides with any mutant stream of any
  // related seed.
  EXPECT_EQ(seen.size(), seeds.size() * 3);
}

TEST(Rng, SplitMix64DrawKIsTheFinalizerAtSeedPlusKGolden) {
  SplitMix64 rng(77);
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(rng.next(), splitmix64(77 + k * 0x9e3779b97f4a7c15ull));
  }
}

TEST(Rng, BoundedDrawStaysInRangeAndIsDeterministic) {
  SplitMix64 one(5);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(one.below(1), 0u);
  for (const std::uint64_t bound :
       {std::uint64_t{2}, std::uint64_t{7}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    SplitMix64 a(bound);
    SplitMix64 b(bound);
    std::set<std::uint64_t> seen;
    for (int k = 0; k < 200; ++k) {
      const std::uint64_t x = a.below(bound);
      EXPECT_LT(x, bound);
      EXPECT_EQ(x, b.below(bound));
      seen.insert(x);
    }
    EXPECT_GT(seen.size(), 1u);
  }
  SplitMix64 c(6);
  SplitMix64 d(5);
  EXPECT_NE(c.below(1u << 20), d.below(1u << 20));
}

TEST(Rng, RunStreamsDifferPerRun) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t run = 0; run < 1000; ++run) {
    seen.insert(derive_run_stream(123, run));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace simcov::runtime
