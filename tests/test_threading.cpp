// Unit tests for the thread pool and parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threading/thread_pool.h"

namespace mfn {
namespace {

// A multi-worker pool even on small hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  // At 3 or 4 participants, 13, 25, 27 and 100 are sizes where
  // ceil(n / chunk) falls short of the chunk count the pool aims for: no
  // chunk may start at or past n.
  for (std::int64_t n : {0, 1, 2, 7, 13, 25, 27, 100, 1023, 4096}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(n, [&](std::int64_t b, std::int64_t e) {
      EXPECT_LE(0, b) << "n " << n;
      EXPECT_LT(b, e) << "n " << n;
      EXPECT_LE(e, n) << "n " << n;
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

// A throwing body: chunks claimed after the throw are skipped, the first
// exception reaches the caller once the claimed chunks are done, and the
// pool serves the next loop.
TEST(ParallelFor, BodyExceptionReachesTheCaller) {
  const std::int64_t n = 64;
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> ran{0};
    try {
      parallel_for(n, [&](std::int64_t b, std::int64_t e) {
        if (b >= n / 2) throw std::runtime_error("chunk failed");
        ran += e - b;
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "chunk failed");
    }
    EXPECT_LT(ran.load(), n);

    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(n, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SumMatchesSerial) {
  const std::int64_t n = 100000;
  std::atomic<long long> total{0};
  parallel_for(n, [&](std::int64_t b, std::int64_t e) {
    long long local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    total += local;
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  // A nested parallel_for from inside a worker must not deadlock; it runs
  // as one inline call.
  std::atomic<int> count{0};
  parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      int calls = 0;
      parallel_for_indexed(16, [&](int worker, std::int64_t bb,
                                   std::int64_t ee) {
        ++calls;
        EXPECT_EQ(worker, 0);
        count += static_cast<int>(ee - bb);
      });
      EXPECT_EQ(calls, 1);
    }
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelFor, RespectsGrain) {
  // With grain >= n the body must be invoked exactly once with [0, n).
  std::atomic<int> calls{0};
  parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        calls++;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 100);
      },
      /*grain=*/100);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForIndexed, WorkerIdsAreStableAndInRange) {
  const int maxw = max_parallel_workers();
  EXPECT_GE(maxw, 1);
  // Per-worker scratch indexed by the id must never race: count chunk
  // executions per slot and verify ids stay in range and sum to full
  // coverage.
  std::vector<std::atomic<std::int64_t>> per_worker(
      static_cast<std::size_t>(maxw));
  const std::int64_t n = 10000;
  parallel_for_indexed(n, [&](int worker, std::int64_t b, std::int64_t e) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, maxw);
    per_worker[static_cast<std::size_t>(worker)] += e - b;
  });
  std::int64_t total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, n);
}

TEST(ParallelForIndexed, SerialPathUsesWorkerZero) {
  int seen = -1;
  parallel_for_indexed(
      5, [&](int worker, std::int64_t, std::int64_t) { seen = worker; },
      /*grain=*/100);
  EXPECT_EQ(seen, 0);
}

TEST(ParallelFor2d, TilesCoverRangeExactlyOnce) {
  const std::int64_t n0 = 37, n1 = 53;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n0 * n1));
  parallel_for_2d(n0, n1, 8, 16,
                  [&](std::int64_t i0, std::int64_t i1, std::int64_t j0,
                      std::int64_t j1) {
                    EXPECT_LE(i1 - i0, 8);
                    EXPECT_LE(j1 - j0, 16);
                    for (std::int64_t i = i0; i < i1; ++i)
                      for (std::int64_t j = j0; j < j1; ++j)
                        hits[static_cast<std::size_t>(i * n1 + j)]++;
                  });
  for (std::int64_t i = 0; i < n0 * n1; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "cell " << i;
}

TEST(ParallelFor2d, EmptyRangeDoesNothing) {
  int calls = 0;
  parallel_for_2d(0, 10, 4, 4,
                  [&](std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
                    ++calls;
                  });
  parallel_for_2d(10, 0, 4, 4,
                  [&](std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
                    ++calls;
                  });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GlobalHasAtLeastOneThread) {
  EXPECT_GE(ThreadPool::global().size(), 1);
  EXPECT_LE(ThreadPool::global().workers(), ThreadPool::global().size());
  EXPECT_EQ(max_parallel_workers(), ThreadPool::global().workers() + 1);
}

// The caller runs chunks too, so the pool leaves it a CPU; a 1-thread pool
// starts no worker, and a 1-CPU host still gets one.
TEST(ThreadPool, WorkerCountLeavesACpuForTheCaller) {
  EXPECT_EQ(ThreadPool::resolve_worker_count(1, 4), 0);
  EXPECT_EQ(ThreadPool::resolve_worker_count(1, 1), 0);
  EXPECT_EQ(ThreadPool::resolve_worker_count(2, 4), 2);
  EXPECT_EQ(ThreadPool::resolve_worker_count(4, 4), 3);
  EXPECT_EQ(ThreadPool::resolve_worker_count(4, 16), 4);
  EXPECT_EQ(ThreadPool::resolve_worker_count(4, 2), 1);
  EXPECT_EQ(ThreadPool::resolve_worker_count(4, 1), 1);
}

// Regression: MFN_NUM_THREADS sizing must reject malformed and
// non-positive values and clamp absurd ones instead of propagating them
// into the pool constructor.
TEST(ThreadPool, ResolveThreadCountSanitizesEnv) {
  const unsigned hw = 8;
  // Unset / empty -> hardware default.
  EXPECT_EQ(ThreadPool::resolve_thread_count(nullptr, hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("", hw), 8);
  // Valid values pass through.
  EXPECT_EQ(ThreadPool::resolve_thread_count("1", hw), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count("4", hw), 4);
  EXPECT_EQ(ThreadPool::resolve_thread_count("17", hw), 17);
  // Non-positive -> hardware default, never a dead or negative pool.
  EXPECT_EQ(ThreadPool::resolve_thread_count("0", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("-3", hw), 8);
  // Malformed -> hardware default, not atoi()'s silent prefix parse.
  EXPECT_EQ(ThreadPool::resolve_thread_count("abc", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("4x", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("3.5", hw), 8);
  // Absurd values clamp to the hard cap instead of spawning them.
  EXPECT_EQ(ThreadPool::resolve_thread_count("1000000", hw),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(
      ThreadPool::resolve_thread_count("99999999999999999999999999", hw), 8);
  // Unknown hardware (0) falls back to a single thread.
  EXPECT_EQ(ThreadPool::resolve_thread_count(nullptr, 0), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count("bad", 0), 1);
}

// ------------------------------------------------------------ pool stress

// Tiny loops back to back, first from one thread (every loop pooled, each
// replacing the last while workers may still be leaving it), then from
// four: one holds the pool at a time, the others run inline. Every loop
// covers its range exactly once with in-range worker ids, pooled or not.
TEST(PoolStress, ConcurrentCallersIssueTinyLoops) {
  ASSERT_GE(ThreadPool::global().workers(), 1) << "needs a pool worker";
  const int maxw = max_parallel_workers();
  std::atomic<int> errors{0}, pooled{0};
  auto caller = [&](int t) {
    std::vector<int> hits(64);
    for (int it = 0; it < 10000; ++it) {
      const std::int64_t n = 2 + (it * 7 + t) % 63;  // 2..64
      std::fill(hits.begin(), hits.end(), 0);
      std::atomic<int> calls{0};
      parallel_for_indexed(n, [&](int worker, std::int64_t b,
                                  std::int64_t e) {
        ++calls;
        if (worker < 0 || worker >= maxw || b < 0 || b >= e || e > n) {
          ++errors;
          return;
        }
        for (std::int64_t i = b; i < e; ++i)
          ++hits[static_cast<std::size_t>(i)];
      });
      if (calls.load() > 1) ++pooled;  // an inline loop is one call
      for (std::int64_t i = 0; i < n; ++i)
        if (hits[static_cast<std::size_t>(i)] != 1) ++errors;
    }
  };
  caller(0);
  EXPECT_EQ(pooled.load(), 10000);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) callers.emplace_back(caller, t);
  for (auto& c : callers) c.join();
  EXPECT_EQ(errors.load(), 0);
  // A loop runs inline only while another holds the pool.
  EXPECT_GT(pooled.load(), 10000);
}

TEST(PoolStress, ConcurrentNestedLoops) {
  std::atomic<int> errors{0};
  auto caller = [&] {
    for (int it = 0; it < 500; ++it) {
      std::atomic<int> count{0};
      parallel_for(8, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          parallel_for(16, [&](std::int64_t bb, std::int64_t ee) {
            count += static_cast<int>(ee - bb);
          });
      });
      if (count.load() != 8 * 16) ++errors;
    }
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) callers.emplace_back(caller);
  for (auto& c : callers) c.join();
  EXPECT_EQ(errors.load(), 0);
}

// Each round lets the workers fall asleep, then issues a two-chunk loop
// whose chunks the caller usually claims and runs before a worker is
// awake. A worker that wakes late must find nothing to run: every round's
// counter, kept alive past its loop, ends at exactly n.
TEST(PoolStress, LoopsTheCallerFinishesBeforeWorkersWake) {
  const std::int64_t n = 2;
  std::vector<std::atomic<std::int64_t>> rounds(200);
  for (auto& r : rounds) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    parallel_for(n, [&](std::int64_t b, std::int64_t e) { r += e - b; });
    EXPECT_EQ(r.load(), n);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (std::size_t i = 0; i < rounds.size(); ++i)
    EXPECT_EQ(rounds[i].load(), n) << "round " << i;
}

TEST(PoolStress, ScopedInlineLoopsRunOnTheCallingThread) {
  ASSERT_GE(ThreadPool::global().workers(), 1) << "needs a pool worker";
  std::atomic<int> errors{0};
  auto caller = [&] {
    const std::thread::id self = std::this_thread::get_id();
    for (int it = 0; it < 1000; ++it) {
      ScopedInlineLoops outer;
      for (int depth = 0; depth < 2; ++depth) {
        ScopedInlineLoops inner;  // nests and restores
        int calls = 0;
        parallel_for_indexed(64, [&](int worker, std::int64_t b,
                                     std::int64_t e) {
          ++calls;
          if (worker != 0 || b != 0 || e != 64 ||
              std::this_thread::get_id() != self)
            ++errors;
        });
        if (calls != 1) ++errors;
      }
    }
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) callers.emplace_back(caller);
  for (auto& c : callers) c.join();
  EXPECT_EQ(errors.load(), 0);
  // Out of every guard, a lone caller's loop is pooled again: chunked.
  std::atomic<int> calls{0};
  parallel_for(64, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_GT(calls.load(), 1);
}

}  // namespace
}  // namespace mfn
