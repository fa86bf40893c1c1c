// Stress gate for the fork-join engine's publish/retire hand-off. Each test
// drives the pool with many tiny batches, where a submitter retires its
// stack descriptor while workers may still be looking at it. A lost
// wake-up or a use of a retired descriptor shows up as a hang, which the
// ctest TIMEOUT on this binary turns into a failure (a data race need not
// be flagged by TSan, so the timeout is the real gate). Runs in seconds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gpusim/thread_pool.hpp"

namespace mcmm::gpusim {
namespace {

TEST(ThreadPoolStress, EmptyBatchStorm) {
  ThreadPool pool(4);
  constexpr int kCalls = 300000;
  for (int i = 0; i < kCalls; ++i) {
    pool.parallel_for_chunks(256, [](std::uint64_t, std::uint64_t) {});
  }
  std::atomic<std::uint64_t> covered{0};
  pool.parallel_for_chunks(256, [&](std::uint64_t b, std::uint64_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 256u);
}

TEST(ThreadPoolStress, FourHostThreadsSubmitAtOnce) {
  ThreadPool pool(4);
  constexpr int kThreads = 4;
  constexpr int kCalls = 20000;
  std::atomic<std::uint64_t> covered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &covered, t] {
      const Schedule schedule = t % 2 == 0 ? Schedule::Static
                                           : Schedule::Dynamic;
      for (int i = 0; i < kCalls; ++i) {
        pool.parallel_for_chunks(
            256,
            [&covered](std::uint64_t b, std::uint64_t e) {
              covered.fetch_add(e - b, std::memory_order_relaxed);
            },
            schedule);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(covered.load(), std::uint64_t{kThreads} * kCalls * 256);
}

TEST(ThreadPoolStress, NestedSubmission) {
  ThreadPool pool(4);
  constexpr int kRounds = 2000;
  std::atomic<std::uint64_t> covered{0};
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for_chunks(
        8,
        [&](std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t i = b; i < e; ++i) {
            pool.parallel_for_chunks(
                256, [&covered](std::uint64_t ib, std::uint64_t ie) {
                  covered.fetch_add(ie - ib, std::memory_order_relaxed);
                });
          }
        },
        Schedule::Dynamic, 1);
  }
  EXPECT_EQ(covered.load(), std::uint64_t{kRounds} * 8 * 256);
}

}  // namespace
}  // namespace mcmm::gpusim
