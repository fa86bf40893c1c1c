// Clean-fixture workload for the pstlx device algorithms: every
// algorithm, odd sizes (non-power-of-two tiles, short tail tiles), on
// every stdparx route the Figure 1 gate admits. The pstlx kernels note
// their per-task input/output ranges through the sanitizer seam, so
// racecheck sees exactly which work item touched which range and must
// find the partitions disjoint; memcheck strict-checks every noted
// range against the owning allocations.

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "gpusan/fixtures.hpp"
#include "pstlx/pstlx.hpp"

namespace mcmm::gpusan::fixtures {
namespace {

/// Odd on purpose: exercises ceil-split tiles with a short tail.
constexpr std::size_t kPstlxN = 4097;

/// Values stay below kPstlxMax so the workload's int products fit an
/// int: transform_reduce multiplies a[i] (at most kPstlxMax after its +1)
/// by b[i] in the element type.
constexpr int kPstlxMax = 46000;
static_assert(static_cast<long long>(kPstlxMax) * kPstlxMax <=
              std::numeric_limits<int>::max());

/// Seeded deterministic fill (same shape the differential tests use).
[[nodiscard]] std::vector<int> pstlx_input(std::uint64_t seed) {
  std::vector<int> data(kPstlxN);
  std::uint64_t state = seed;
  for (auto& x : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<int>((state >> 33) % kPstlxMax);
  }
  return data;
}

void pstlx_workload(const stdparx::execution_policy& pol) {
  const std::vector<int> host_a = pstlx_input(7);
  const std::vector<int> host_b = pstlx_input(11);

  stdparx::device_vector<int> a(pol, kPstlxN);
  stdparx::device_vector<int> b(pol, kPstlxN);
  stdparx::device_vector<int> out(pol, kPstlxN);
  stdparx::device_vector<long> scanned(pol, kPstlxN);
  stdparx::device_vector<int> merged(pol, 2 * kPstlxN);

  a.upload(host_a.data(), kPstlxN);
  b.upload(host_b.data(), kPstlxN);

  pstlx::for_each(pol, a.begin(), a.end(), [](int& x) { x += 1; });
  pstlx::transform(pol, a.begin(), a.end(), out.begin(),
                   [](int x) { return x * 2; });
  pstlx::transform(pol, a.begin(), a.end(), b.begin(), out.begin(),
                   [](int x, int y) { return x + y; });

  (void)pstlx::reduce(pol, a.begin(), a.end(), 0L);
  (void)pstlx::transform_reduce(pol, a.begin(), a.end(), b.begin(), 0L);

  pstlx::inclusive_scan(pol, a.begin(), a.end(), scanned.begin());
  pstlx::exclusive_scan(pol, a.begin(), a.end(), scanned.begin(), 0L);

  pstlx::sort(pol, a.begin(), a.end());
  pstlx::stable_sort(pol, b.begin(), b.end());
  pstlx::merge(pol, a.begin(), a.end(), b.begin(), b.end(),
               merged.begin());
}

}  // namespace

void pstlx_suite(gpusim::Schedule schedule) {
  pstlx::schedule_guard guard(schedule);
  const std::pair<Vendor, stdparx::Runtime> routes[] = {
      {Vendor::NVIDIA, stdparx::Runtime::NVHPC},
      {Vendor::Intel, stdparx::Runtime::OneDPL},
      {Vendor::NVIDIA, stdparx::Runtime::OneDPL},
      {Vendor::AMD, stdparx::Runtime::OpenSYCL},
  };
  for (const auto& [vendor, runtime] : routes) {
    try {
      const stdparx::execution_policy pol(vendor, runtime);
      pstlx_workload(pol);
      pol.queue().synchronize();
    } catch (const UnsupportedCombination&) {
      // Gate says no on this simulated testbed; the suite covers what
      // the Figure 1 Standard column admits.
    }
  }
}

}  // namespace mcmm::gpusan::fixtures
