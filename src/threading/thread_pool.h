// Shared-memory parallelism layer: a fork-join thread pool and the
// parallel_for helpers built on it.
//
// Every compute kernel in the library funnels its parallelism through
// parallel_for / parallel_for_indexed / parallel_for_2d, so thread count is
// controlled in one place.
//
// Sizing. MFN_NUM_THREADS is the requested pool size (malformed or
// non-positive values fall back to hardware concurrency; values above
// kMaxThreads are clamped); ThreadPool::size() reports it. A loop runs on
// the calling thread plus the pool's workers, and the pool starts
// min(MFN_NUM_THREADS, max(1, A - 1)) workers, where A is the number of
// CPUs the process may run on (its sched_getaffinity mask), so a loop never
// runs on more threads than there are CPUs. MFN_NUM_THREADS=1 starts no
// worker: every loop runs serially on its caller.
//
// Dispatch. The caller publishes its loop into the pool's single job slot,
// runs chunks itself, and waits only for the chunks a worker has claimed,
// never for a worker to wake. Idle workers spin on a pause loop for a few
// tens of microseconds after their last chunk, then sleep until the next
// loop is published. Nothing is heap-allocated per loop.
//
// Inline loops. A loop runs serially on its caller, with worker id 0, when
// it is no larger than its grain, when the pool has no worker, when it is
// nested inside another loop's body (on a worker or on the caller), when
// the calling thread holds a ScopedInlineLoops, and when another thread's
// loop holds the job slot: concurrent callers never queue behind each
// other.
//
// Exceptions. A body may throw. The first exception is rethrown on the
// caller once every claimed chunk has finished; chunks not yet claimed are
// skipped, so some of [0, n) may never have run. The pool stays usable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mfn {

/// Body of a loop: fn(worker, begin, end), see parallel_for_indexed.
using LoopBody = std::function<void(int, std::int64_t, std::int64_t)>;

/// Fixed set of worker threads that join the loops parallel_for_indexed
/// publishes, one loop at a time.
class ThreadPool {
 public:
  /// Hard upper bound on pool size; MFN_NUM_THREADS is clamped to this.
  static constexpr int kMaxThreads = 256;

  /// Starts resolve_worker_count(num_threads, <CPUs of the process>)
  /// workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The requested size (MFN_NUM_THREADS), not the number of workers.
  int size() const { return size_; }

  /// Number of worker threads; a pooled loop runs on these plus its caller.
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Process-wide pool. Sized by resolve_thread_count(MFN_NUM_THREADS).
  static ThreadPool& global();

  /// Pure sizing policy, exposed for testing. `env_value` is the raw
  /// MFN_NUM_THREADS string (may be null); `hardware` is
  /// std::thread::hardware_concurrency() (may be 0 when unknown).
  /// Malformed (non-integer, trailing junk, out-of-range) and non-positive
  /// values are rejected in favour of the hardware default; valid values are
  /// clamped to [1, kMaxThreads].
  static int resolve_thread_count(const char* env_value, unsigned hardware);

  /// Pure worker-count policy, exposed for testing: 0 for a 1-thread pool,
  /// else min(threads, max(1, cpus - 1)).
  static int resolve_worker_count(int threads, int cpus);

 private:
  friend void parallel_for_indexed(std::int64_t, const LoopBody&,
                                   std::int64_t);

  /// Publishes a loop of `nchunks` chunks of `chunk` indices over [0, n),
  /// runs chunks as worker 0 until none is left, waits for the claimed
  /// ones, and rethrows the first exception a chunk threw. The caller
  /// holds the job slot (busy_).
  void run(std::int64_t n, std::int64_t chunk, std::int64_t nchunks,
           const LoopBody& fn);
  /// Claims and runs chunks of the published loop as `worker` until a
  /// claim comes back empty.
  void drain(int worker);
  void worker_loop(int worker);

  // The claim word: (chunk count << 32) | next chunk. Publishing a loop
  // stores a fresh word, and a claim is one fetch_add whose result is
  // valid only if its index is below the count it carries, so a worker
  // that wakes late can only claim a chunk of the loop now published.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::int64_t> done_{0};  // finished chunks
  // The job slot: written by its holder before it publishes, read by a
  // worker only under a valid claim, kept until every claimed chunk is
  // done.
  alignas(64) std::atomic<bool> busy_{false};
  const LoopBody* fn_ = nullptr;
  std::int64_t n_ = 0, chunk_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // first exception, set by whoever set failed_

  // Sleeping workers wait on cv_ for a claimable word or stop_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  int size_ = 1;
  std::vector<std::thread> threads_;  // last: the workers use every member
};

/// While alive, every parallel_for the calling thread issues runs inline
/// (serially, worker id 0) — the 1-thread result at any pool size.
class ScopedInlineLoops {
 public:
  ScopedInlineLoops();
  ~ScopedInlineLoops();
  ScopedInlineLoops(const ScopedInlineLoops&) = delete;
  ScopedInlineLoops& operator=(const ScopedInlineLoops&) = delete;

 private:
  bool prev_;
};

/// Upper bound on the number of distinct `worker` ids parallel_for_indexed
/// can hand out (pool workers + the calling thread).
int max_parallel_workers();

/// Run fn(worker, begin, end) over a partition of [0, n) into non-empty
/// chunks. `worker` is a stable id in [0, max_parallel_workers()) for the
/// duration of the call: every chunk a given participant executes sees the
/// same id, so callers can index per-worker scratch buffers race-free.
/// Blocks until every claimed chunk is done. Runs inline as described at
/// the top of this header.
void parallel_for_indexed(std::int64_t n, const LoopBody& fn,
                          std::int64_t grain = 1);

/// Run fn(begin, end) over a partition of [0, n). Same scheduling rules as
/// parallel_for_indexed.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// Tile the 2-D range [0, n0) x [0, n1) into blocks of at most
/// (grain0, grain1) and run fn(i_begin, i_end, j_begin, j_end) over the
/// tiles in parallel. Tiles are disjoint and cover the range exactly once.
void parallel_for_2d(
    std::int64_t n0, std::int64_t n1, std::int64_t grain0, std::int64_t grain1,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t)>& fn);

}  // namespace mfn
