#include "threading/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "common/error.h"

namespace mfn {
namespace {
/// Set on pool workers for their lifetime, on a caller while it runs its
/// own chunks, and by ScopedInlineLoops: this thread's loops run inline.
thread_local bool t_inline = false;

/// How long an idle worker (or a caller waiting on claimed chunks) spins
/// before it sleeps (or yields). Measured on the train workload: 10 us was
/// too short, 50 us and 200 us tied.
constexpr std::chrono::microseconds kSpin{50};

/// Keep multi-megabyte tensor buffers on the heap free lists instead of
/// round-tripping through mmap/munmap. Batched training/inference
/// allocates and frees the same large intermediates every step; glibc's
/// default dynamic mmap threshold (<= 32 MiB) hands them back to the
/// kernel on free, so every reallocation pays fresh page faults and
/// page zeroing — measurably slower than the compute on wide minibatch
/// shapes. Runs once, before the first pool (and hence the first kernel).
/// This mutates the process-wide allocator and can raise steady-state RSS
/// by up to the trim threshold; hosts embedding libmfn for light work can
/// opt out with MFN_NO_MALLOC_TUNING=1.
void tune_allocator_for_large_buffers() {
#if defined(__GLIBC__)
  const char* off = std::getenv("MFN_NO_MALLOC_TUNING");
  if (off != nullptr && *off != '\0' && *off != '0') return;
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}

/// CPUs the process may run on: the main thread's affinity mask, not the
/// calling thread's (a thread pinned to one CPU may build the first pool).
int process_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins on a pause loop until ready() or kSpin has passed; returns ready().
template <class Ready>
bool spin_until(Ready ready) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int i = 0; i < 32; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= until) return ready();
  }
}

constexpr bool claimable(std::uint64_t claim) {
  return (claim & 0xffffffffu) < (claim >> 32);
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) : size_(num_threads) {
  MFN_CHECK(num_threads >= 1, "thread pool needs >= 1 thread");
  MFN_CHECK(num_threads <= kMaxThreads,
            "thread pool size " << num_threads << " exceeds kMaxThreads");
  const int workers = resolve_worker_count(num_threads, process_cpus());
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 1; i <= workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(int worker) {
  t_inline = true;
  const auto ready = [this] {
    return stop_.load(std::memory_order_relaxed) ||
           claimable(claim_.load(std::memory_order_relaxed));
  };
  for (;;) {
    if (!spin_until(ready)) {
      std::unique_lock<std::mutex> lk(mu_);
      // Pairs with run(): it stores the claim word, then reads sleepers_
      // (both seq_cst), so either it sees this worker and notifies, or the
      // predicate below sees its word.
      sleepers_.fetch_add(1);
      cv_.wait(lk,
               [this] { return stop_.load() || claimable(claim_.load()); });
      sleepers_.fetch_sub(1);
    }
    if (stop_.load()) return;
    drain(worker);
  }
}

void ThreadPool::drain(int worker) {
  for (;;) {
    const std::uint64_t claim =
        claim_.fetch_add(1, std::memory_order_acq_rel);
    if (!claimable(claim)) return;
    // A valid claim pins the slot: its loop cannot finish, and so cannot
    // be replaced, before this chunk is counted done.
    const std::int64_t begin =
        static_cast<std::int64_t>(claim & 0xffffffffu) * chunk_;
    const std::int64_t end = std::min(begin + chunk_, n_);
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        (*fn_)(worker, begin, end);
      } catch (...) {
        if (!failed_.exchange(true)) error_ = std::current_exception();
      }
    }
    done_.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::run(std::int64_t n, std::int64_t chunk, std::int64_t nchunks,
                     const LoopBody& fn) {
  fn_ = &fn;
  n_ = n;
  chunk_ = chunk;
  done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  claim_.store(static_cast<std::uint64_t>(nchunks) << 32);
  if (sleepers_.load() > 0) {
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }
  {
    // Nested loops in the caller's own chunks run inline, as on a worker.
    ScopedInlineLoops nested;
    drain(0);
  }
  // Every chunk is claimed now; wait for the ones workers still run.
  const auto all_done = [this, nchunks] {
    return done_.load(std::memory_order_acquire) == nchunks;
  };
  while (!spin_until(all_done)) std::this_thread::yield();
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

int ThreadPool::resolve_thread_count(const char* env_value, unsigned hardware) {
  const int hw_default =
      hardware == 0
          ? 1
          : static_cast<int>(std::min<unsigned>(hardware, kMaxThreads));
  if (env_value == nullptr || *env_value == '\0') return hw_default;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env_value, &end, 10);
  if (end == env_value || *end != '\0' || errno == ERANGE) {
    // Malformed ("abc", "4x", "") — ignore rather than propagate.
    return hw_default;
  }
  if (v < 1) return hw_default;  // non-positive is meaningless for a pool
  if (v > kMaxThreads) return kMaxThreads;
  return static_cast<int>(v);
}

int ThreadPool::resolve_worker_count(int threads, int cpus) {
  if (threads <= 1) return 0;
  return std::min(threads, std::max(1, cpus - 1));
}

ThreadPool& ThreadPool::global() {
  static const bool allocator_tuned = [] {
    tune_allocator_for_large_buffers();
    return true;
  }();
  (void)allocator_tuned;
  static ThreadPool pool(resolve_thread_count(
      std::getenv("MFN_NUM_THREADS"), std::thread::hardware_concurrency()));
  return pool;
}

ScopedInlineLoops::ScopedInlineLoops() : prev_(t_inline) { t_inline = true; }
ScopedInlineLoops::~ScopedInlineLoops() { t_inline = prev_; }

int max_parallel_workers() { return ThreadPool::global().workers() + 1; }

void parallel_for_indexed(std::int64_t n, const LoopBody& fn,
                          std::int64_t grain) {
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::global();
  if (n <= grain || pool.workers() == 0 || t_inline ||
      pool.busy_.load(std::memory_order_relaxed) ||
      pool.busy_.exchange(true, std::memory_order_acquire)) {
    fn(0, 0, n);
    return;
  }
  // About four chunks per participant, at most ceil(n / grain); every
  // chunk is non-empty.
  const std::int64_t target = std::min<std::int64_t>(
      4 * (pool.workers() + 1), (n + grain - 1) / grain);
  const std::int64_t chunk = (n + target - 1) / target;
  pool.run(n, chunk, (n + chunk - 1) / chunk, fn);
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain) {
  parallel_for_indexed(
      n, [&fn](int, std::int64_t b, std::int64_t e) { fn(b, e); }, grain);
}

void parallel_for_2d(
    std::int64_t n0, std::int64_t n1, std::int64_t grain0, std::int64_t grain1,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t)>& fn) {
  if (n0 <= 0 || n1 <= 0) return;
  MFN_CHECK(grain0 >= 1 && grain1 >= 1, "parallel_for_2d grain must be >= 1");
  const std::int64_t t0 = (n0 + grain0 - 1) / grain0;
  const std::int64_t t1 = (n1 + grain1 - 1) / grain1;
  parallel_for(t0 * t1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t t = b; t < e; ++t) {
      const std::int64_t i = (t / t1) * grain0;
      const std::int64_t j = (t % t1) * grain1;
      fn(i, std::min(i + grain0, n0), j, std::min(j + grain1, n1));
    }
  });
}

}  // namespace mfn
