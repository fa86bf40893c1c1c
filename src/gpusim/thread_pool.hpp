#pragma once
// The fork-join execution engine behind all simulated kernels.
//
// Design (see DESIGN.md Sec. 3.1, "Execution engine"): each submission
// builds one batch descriptor on the submitter's stack — kernel thunk,
// index range, an atomic chunk ticket and a first-error flag. The only
// shared pool state is one mutex guarding an intrusive list of open
// batches, each batch's `pins` count and a stop flag, plus two condition
// variables: one wakes workers, one wakes submitters. The submitter links
// its batch, wakes the workers and runs chunks itself; a worker pins the
// head batch under the mutex, grabs chunks by ticket fetch_add unlocked,
// then unlinks and unpins it under the mutex again. Once its own tickets
// run out, the submitter unlinks the batch and waits for `pins == 0`.
//
// Invariant both waits rely on: a batch can be pinned only while it is
// linked, and unlinking and unpinning happen under the same mutex. So
// after the submitter's unlink no new pin can appear, and `pins == 0`
// means no thread still holds the descriptor and every claimed chunk has
// finished. Submitter participation guarantees progress, so nested
// submission from a worker thread cannot deadlock, and concurrent
// submissions from any number of host threads each own their descriptor.
// No launch allocates.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcmm::gpusim {

/// How a batch's index range is handed out to the participating threads.
enum class Schedule : std::uint8_t {
  Static,   ///< one contiguous chunk per participant, fixed at submit time
  Dynamic,  ///< participants atomically grab `grain`-sized sub-ranges
};

/// Worker count requested by an MCMM_NUM_THREADS value `env` (nullptr when
/// unset) on a host with `hardware_threads` threads. Returns 0 (the pool
/// default) unless `env` is a positive decimal integer; larger values are
/// clamped to 4x the hardware threads.
[[nodiscard]] unsigned worker_count_from_env(const char* env,
                                             unsigned hardware_threads);

class ThreadPool {
 public:
  /// Type-erased chunk entry point: fn(ctx, begin, end).
  using ChunkFn = void (*)(void*, std::uint64_t, std::uint64_t);

  /// Creates `workers` persistent threads (0 = one per hardware thread,
  /// minimum 2 so parallel paths are exercised even on 1-core hosts).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Fork-join over [0, n): runs fn(ctx, begin, end) on sub-ranges that
  /// exactly tile [0, n) (never empty, each index covered once) and blocks
  /// until every chunk finished. The first exception thrown by a chunk is
  /// rethrown here, exactly once; the pool stays usable and concurrent
  /// batches are unaffected. `grain` bounds the sub-range size under
  /// Schedule::Dynamic (0 picks a cache-friendly default). Single-index
  /// batches short-circuit to a direct call — the per-launch overhead of
  /// tiny kernels is one branch, not a descriptor hand-off.
  void run_batch(std::uint64_t n, ChunkFn fn, void* ctx,
                 Schedule schedule = Schedule::Static,
                 std::uint64_t grain = 0) {
    if (n <= 1) {
      if (n == 1) fn(ctx, 0, 1);
      return;
    }
    run_batch_parallel(n, fn, ctx, schedule, grain);
  }

  /// Convenience wrapper over run_batch for any callable body(begin, end).
  /// Dispatches through a stack thunk — no std::function, no allocation.
  template <typename Body>
  void parallel_for_chunks(std::uint64_t n, const Body& body,
                           Schedule schedule = Schedule::Static,
                           std::uint64_t grain = 0) {
    run_batch(
        n,
        [](void* ctx, std::uint64_t begin, std::uint64_t end) {
          (*static_cast<const Body*>(ctx))(begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        schedule, grain);
  }

  /// The default pool: what a Device runs on when its creator passes no
  /// other. Worker count honours MCMM_NUM_THREADS (read once, at first
  /// use).
  [[nodiscard]] static ThreadPool& global();

 private:
  struct Batch;

  void run_batch_parallel(std::uint64_t n, ChunkFn fn, void* ctx,
                          Schedule schedule, std::uint64_t grain);
  void worker_loop();
  static void execute(Batch& batch);
  void unlink(Batch* batch);  ///< caller holds mu_; no-op if not linked

  std::mutex mu_;
  Batch* open_ = nullptr;  ///< open batches, newest first; under mu_
  bool stop_ = false;      ///< under mu_
  std::condition_variable work_cv_;  ///< a batch was linked, or stop_
  std::condition_variable done_cv_;  ///< some batch's pins dropped to 0
  std::vector<std::thread> threads_;  ///< last: workers use all of the above
};

}  // namespace mcmm::gpusim
