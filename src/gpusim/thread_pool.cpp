#include "gpusim/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace mcmm::gpusim {

/// One in-flight fork-join batch, living on the submitter's stack.
struct ThreadPool::Batch {
  ChunkFn fn{};
  void* ctx{};
  std::uint64_t n{};
  std::uint64_t chunk_count{};
  std::uint64_t base{};  ///< static: floor chunk size; dynamic: grain
  std::uint64_t rem{};   ///< static: first `rem` chunks get one extra index
  Schedule schedule{Schedule::Static};
  std::atomic<std::uint64_t> next{0};  ///< chunk ticket dispenser
  std::atomic<bool> has_error{false};
  std::exception_ptr error;  ///< written by the has_error winner only
  Batch* next_open = nullptr;  ///< list link, guarded by mu_
  unsigned pins = 0;           ///< workers holding this batch, under mu_

  /// Bounds of chunk `c`. Static chunks tile [0, n) exactly: the first
  /// `rem` chunks carry one extra index, so no chunk is ever empty.
  void bounds(std::uint64_t c, std::uint64_t& begin,
              std::uint64_t& end) const noexcept {
    if (schedule == Schedule::Static) {
      begin = c * base + std::min(c, rem);
      end = begin + base + (c < rem ? 1 : 0);
    } else {
      begin = c * base;
      end = std::min(n, begin + base);
    }
  }
};

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(2u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::execute(Batch& batch) {
  for (;;) {
    const std::uint64_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= batch.chunk_count) return;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    batch.bounds(c, begin, end);
    try {
      batch.fn(batch.ctx, begin, end);
    } catch (...) {
      if (!batch.has_error.exchange(true, std::memory_order_relaxed)) {
        batch.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::unlink(Batch* batch) {
  for (Batch** p = &open_; *p != nullptr; p = &(*p)->next_open) {
    if (*p == batch) {
      *p = batch->next_open;
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || open_ != nullptr; });
    if (stop_) return;
    Batch* batch = open_;
    ++batch->pins;
    lock.unlock();
    execute(*batch);
    lock.lock();
    // Its tickets are spent: no one else needs to find it. The unpin
    // publishes this thread's chunk effects to the submitter.
    unlink(batch);
    if (--batch->pins == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_batch_parallel(std::uint64_t n, ChunkFn fn, void* ctx,
                                    Schedule schedule, std::uint64_t grain) {
  const std::uint64_t participants = worker_count() + 1;  // workers + caller

  Batch batch;
  batch.fn = fn;
  batch.ctx = ctx;
  batch.n = n;
  batch.schedule = schedule;
  if (schedule == Schedule::Static) {
    const std::uint64_t parts = std::min<std::uint64_t>(n, participants);
    batch.chunk_count = parts;
    batch.base = n / parts;
    batch.rem = n % parts;
  } else {
    if (grain == 0) {
      // Default grain: ~8 grabs per participant, clamped so tiny batches
      // still self-balance and huge ones keep the ticket traffic low.
      grain = std::max<std::uint64_t>(1, n / (participants * 8));
    }
    batch.base = grain;
    batch.chunk_count = (n + grain - 1) / grain;
  }

  // Single-chunk batches run inline on the caller: no publication, no
  // wake-up, and exceptions propagate directly.
  if (batch.chunk_count == 1) {
    fn(ctx, 0, n);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    batch.next_open = open_;
    open_ = &batch;
  }
  work_cv_.notify_all();

  // The submitter works too, which guarantees progress with every worker
  // busy. When this returns every ticket is claimed; after the unlink no
  // worker can pin the batch, so pins == 0 means all chunks finished.
  execute(batch);
  {
    std::unique_lock<std::mutex> lock(mu_);
    unlink(&batch);
    done_cv_.wait(lock, [&batch] { return batch.pins == 0; });
  }

  if (batch.has_error.load(std::memory_order_relaxed)) {
    std::rethrow_exception(batch.error);
  }
}

unsigned worker_count_from_env(const char* env, unsigned hardware_threads) {
  if (env == nullptr) return 0;
  const char* const end = env + std::strlen(env);
  unsigned long long v = 0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ptr == env || ptr != end) return 0;  // empty, non-numeric, trailing
  if (ec == std::errc::result_out_of_range) v = ~0ULL;
  if (v == 0) return 0;
  const unsigned cap = 4 * std::max(1u, hardware_threads);
  return static_cast<unsigned>(std::min<unsigned long long>(v, cap));
}

ThreadPool& ThreadPool::global() {
  // MCMM_NUM_THREADS pins the worker count (the OMP_NUM_THREADS idiom).
  // The determinism tests do not go through it: they hand devices pools
  // of 1, 4 and hardware_concurrency workers in one process and assert
  // bit-identical results and simulated time.
  static ThreadPool pool(worker_count_from_env(
      std::getenv("MCMM_NUM_THREADS"), std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace mcmm::gpusim
