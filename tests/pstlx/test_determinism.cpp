// pstlx determinism: every algorithm's output, and the simulated clock
// it produces, is byte-identical on pools of 1, 4 and
// hardware_concurrency workers, under both launch schedules. The
// fingerprint dumps every result buffer plus the simulated time consumed;
// its FNV-1a digest is pinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"
#include "support/fnv1a.hpp"
#include "support/pools.hpp"
#include "support/rng.hpp"

namespace {

using mcmm::Vendor;
using mcmm::gpusim::Schedule;
using mcmm::gpusim::ThreadPool;
using mcmm::stdparx::Runtime;
namespace pstlx = mcmm::pstlx;
namespace mtest = mcmm::testing;

constexpr std::size_t kN = 12289;  // prime: short tail tiles everywhere

/// Digest of fingerprint(Static) + fingerprint(Dynamic), recorded when
/// each pool size still ran in a process of its own (MCMM_NUM_THREADS =
/// 1, 4 and hw).
constexpr std::uint64_t kFingerprintDigest = 0x01b1bfed9b370930ULL;

void dump(std::ostream& os, const char* tag, const auto& v) {
  os << tag << ':';
  for (const auto& x : v) os << ' ' << x;
  os << '\n';
}

/// One schedule's worth of device algorithm runs on the NVIDIA rail,
/// streamed as text. Any pool-size dependence shows up as a byte diff.
void fingerprint_schedule(std::ostream& os, ThreadPool& pool, Schedule s) {
  pstlx::schedule_guard guard(s);
  const auto pol = mcmm::stdparx::par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  EXPECT_EQ(&pol.queue().pool(), &pool);

  const std::vector<int> in =
      mtest::make_data<int>(mtest::Shape::Random, kN, 0xf1bceed5ull);

  mcmm::stdparx::device_vector<int> a(pol, kN);
  mcmm::stdparx::device_vector<int> b(pol, kN);
  mcmm::stdparx::device_vector<int> merged(pol, 2 * kN);
  mcmm::stdparx::device_vector<long> scanned(pol, kN);
  a.upload(in.data(), kN);
  b.upload(in.data(), kN);

  pstlx::for_each(pol, a.begin(), a.end(), [](int& x) { x = x * 3 + 1; });
  pstlx::sort(pol, a.begin(), a.end());
  pstlx::stable_sort(pol, b.begin(), b.end());
  pstlx::merge(pol, a.begin(), a.end(), b.begin(), b.end(),
               merged.begin());
  pstlx::inclusive_scan(pol, b.begin(), b.end(), scanned.begin());
  const long sum = pstlx::reduce(pol, a.begin(), a.end(), 0L);
  // Squares widened to long first: an int product of two inputs of this
  // range overflows.
  const long sum_sq = pstlx::transform_reduce(
      pol, a.begin(), a.end(), 0L,
      [](int x) { return static_cast<long>(x) * x; });
  pol.queue().synchronize();

  std::vector<int> sorted(kN), merged_h(2 * kN);
  std::vector<long> scanned_h(kN);
  a.download(sorted.data(), kN);
  merged.download(merged_h.data(), 2 * kN);
  scanned.download(scanned_h.data(), kN);

  os << "schedule " << (s == Schedule::Static ? "static" : "dynamic")
     << '\n';
  dump(os, "sorted", sorted);
  dump(os, "merged", merged_h);
  dump(os, "scanned", scanned_h);
  os << "sum: " << sum << "\nsum_sq: " << sum_sq
     << "\nsim_us: " << pol.queue().simulated_time_us() << '\n';
}

TEST(PstlxDeterminism, FingerprintMatchesTheDigestOnEveryPoolSize) {
  for (const unsigned workers : mtest::determinism_worker_counts()) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    ThreadPool pool(workers);
    const mtest::RailsOnPool rails(pool);
    std::ostringstream os;
    fingerprint_schedule(os, pool, Schedule::Static);
    fingerprint_schedule(os, pool, Schedule::Dynamic);
    EXPECT_EQ(mtest::fnv1a(os.str()), kFingerprintDigest);
  }
}

}  // namespace
