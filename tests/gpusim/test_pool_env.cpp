// MCMM_NUM_THREADS parsing, tested as a pure function: no pool is built
// from these values, so the large ones start no threads. One case checks
// that the default pool takes its size from the variable; ctest also runs
// it with MCMM_NUM_THREADS=3 set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "gpusim/thread_pool.hpp"

namespace mcmm::gpusim {
namespace {

TEST(ThreadPoolEnv, UnsetOrInvalidGivesDefault) {
  EXPECT_EQ(worker_count_from_env(nullptr, 4), 0u);
  for (const char* v : {"", "abc", "4abc", " 4", "+4", "-3", "0", "-0"}) {
    EXPECT_EQ(worker_count_from_env(v, 4), 0u) << '"' << v << '"';
  }
}

TEST(ThreadPoolEnv, InRangeValuesPassThrough) {
  EXPECT_EQ(worker_count_from_env("1", 4), 1u);
  EXPECT_EQ(worker_count_from_env("4", 4), 4u);
  EXPECT_EQ(worker_count_from_env("16", 4), 16u);
}

TEST(ThreadPoolEnv, LargeValuesClampToFourTimesHardwareThreads) {
  EXPECT_EQ(worker_count_from_env("17", 4), 16u);
  EXPECT_EQ(worker_count_from_env("4096", 4), 16u);
  EXPECT_EQ(worker_count_from_env("4294967297", 4), 16u);
  EXPECT_EQ(worker_count_from_env("99999999999999999999999", 4), 16u);
  EXPECT_EQ(worker_count_from_env("100", 64), 100u);
}

TEST(ThreadPoolEnv, UnknownHardwareCountsAsOneThread) {
  EXPECT_EQ(worker_count_from_env("4", 0), 4u);
  EXPECT_EQ(worker_count_from_env("5", 0), 4u);
}

TEST(ThreadPoolEnv, DefaultPoolSizeFollowsTheVariable) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned picked =
      worker_count_from_env(std::getenv("MCMM_NUM_THREADS"), hw);
  const unsigned expected = picked != 0 ? picked : std::max(2u, hw);
  EXPECT_EQ(ThreadPool::global().worker_count(), expected);
}

}  // namespace
}  // namespace mcmm::gpusim
