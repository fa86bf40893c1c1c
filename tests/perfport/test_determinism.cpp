// BENCH_perfport.json determinism: the campaign records only
// simulated-clock quantities, so its JSON report is byte-identical on
// pools of 1, 4 and hardware_concurrency workers. The report's FNV-1a
// digest is pinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "perfport/perfport.hpp"
#include "support/fnv1a.hpp"
#include "support/pools.hpp"

namespace {

using mcmm::perfport::CampaignConfig;
using mcmm::perfport::PerfKernel;

/// Digest of report_json(run_campaign(reduced_config())), recorded when
/// each pool size still ran in a process of its own (MCMM_NUM_THREADS =
/// 1, 4 and hw).
constexpr std::uint64_t kReportDigest = 0xa41e20972eaff0f3ULL;

/// Reduced but representative sweep: all vendors and schedules, two sizes,
/// a reduction-heavy and an uneven-work kernel alongside Triad.
CampaignConfig reduced_config() {
  CampaignConfig cfg;
  cfg.sizes = {2048, 4096};
  cfg.reps = 1;
  cfg.kernels = {PerfKernel::Triad, PerfKernel::Reduce, PerfKernel::Uneven};
  return cfg;
}

TEST(PerfportDeterminism, ReportMatchesTheDigestOnEveryPoolSize) {
  for (const unsigned workers : mcmm::testing::determinism_worker_counts()) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    mcmm::gpusim::ThreadPool pool(workers);
    const mcmm::testing::RailsOnPool rails(pool);
    const auto report = mcmm::perfport::run_campaign(reduced_config());
    ASSERT_FALSE(report.samples.empty());
    EXPECT_EQ(mcmm::testing::fnv1a(mcmm::perfport::report_json(report)),
              kReportDigest);
    // The campaign resets each vendor's device per suite; the resets keep
    // the pool, so the whole sweep ran on it.
    for (const mcmm::Vendor v : mcmm::kAllVendors) {
      mcmm::gpusim::Device& dev = mcmm::gpusim::Platform::instance().device(v);
      EXPECT_EQ(&dev.pool(), &pool);
      EXPECT_EQ(&dev.default_queue().pool(), &pool);
    }
  }
}

}  // namespace
