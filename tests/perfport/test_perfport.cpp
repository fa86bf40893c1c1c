// Tests for the perf-portability campaign: the Reguly PP metric is
// recomputed bit-for-bit against its documented operation order, the
// unsupported-platform and degenerate cases follow the Pennycook
// convention, and a small campaign is checked end to end for route
// coverage, verification, metric ranges, and schedule invariance of the
// simulated clock; the weak-scaling per-device shares are checked against
// totals computed from the suite's declared costs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/stream.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/descriptor.hpp"
#include "perfport/perfport.hpp"

namespace {

using mcmm::Model;
using mcmm::Vendor;
using mcmm::perfport::build_rows;
using mcmm::perfport::CampaignConfig;
using mcmm::perfport::PerfKernel;
using mcmm::perfport::performance_portability;
using mcmm::perfport::PerfReport;
using mcmm::perfport::PerfRow;
using mcmm::perfport::RouteSample;
using mcmm::perfport::run_campaign;
using mcmm::perfport::run_weak_scaling;
using mcmm::perfport::DeviceShare;
using mcmm::perfport::WeakScalingConfig;
using mcmm::perfport::WeakScalingSample;
using mcmm::gpusim::BackendProfile;
using mcmm::gpusim::descriptor_for;
using mcmm::gpusim::DeviceDescriptor;
using mcmm::gpusim::kernel_time_us;
using mcmm::gpusim::KernelCosts;

TEST(PerformancePortability, HarmonicMeanRecomputedBitForBit) {
  const std::vector<double> e{0.517, 0.25, 0.803};
  // The exact operation order of the implementation: accumulate 1/e_i in
  // input order, then divide the count once. Any reassociation (pairwise
  // sums, FMA contraction) would break the == below.
  double inv_sum = 0.0;
  for (const double v : e) inv_sum += 1.0 / v;
  const double expected = static_cast<double>(e.size()) / inv_sum;
  EXPECT_EQ(performance_portability(e), expected);
}

TEST(PerformancePortability, AnyUnsupportedPlatformGivesExactlyZero) {
  EXPECT_EQ(performance_portability({0.9, 0.0, 0.8}), 0.0);
  EXPECT_EQ(performance_portability({0.0}), 0.0);
  EXPECT_EQ(performance_portability({0.5, -0.1}), 0.0);
}

TEST(PerformancePortability, EmptyPlatformSetGivesZero) {
  EXPECT_EQ(performance_portability({}), 0.0);
}

TEST(PerformancePortability, SingleVendorDegeneratesToItsEfficiency) {
  // |H| = 1: PP = 1 / (1/e). Recompute with the same two divisions rather
  // than comparing against the raw e (double rounding may differ in the
  // last bit, and that bit is exactly what the implementation produces).
  const double e = 0.3;
  EXPECT_EQ(performance_portability({e}), 1.0 / (1.0 / e));
  EXPECT_DOUBLE_EQ(performance_portability({e}), e);
}

TEST(BuildRows, UnsupportedVendorZeroesThePpAndMarksTheCell) {
  // One CUDA Triad sample on NVIDIA only; the vendor set includes AMD.
  RouteSample s;
  s.route = "CUDA";
  s.model = Model::CUDA;
  s.vendor = Vendor::NVIDIA;
  s.schedule = "static";
  s.kernel = PerfKernel::Triad;
  s.n = 4096;
  s.pct_of_peak = 60.0;
  s.verified = true;
  const std::vector<PerfRow> rows =
      build_rows({s}, {Vendor::AMD, Vendor::NVIDIA}, 4096);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].model, Model::CUDA);
  EXPECT_EQ(rows[0].kernel, PerfKernel::Triad);
  EXPECT_EQ(rows[0].pp, 0.0);  // exactly, per the Pennycook convention
  ASSERT_EQ(rows[0].cells.size(), 2u);
  EXPECT_FALSE(rows[0].cells[0].supported);
  EXPECT_EQ(rows[0].cells[0].efficiency, 0.0);
  EXPECT_TRUE(rows[0].cells[1].supported);
  EXPECT_DOUBLE_EQ(rows[0].cells[1].efficiency, 0.6);
}

TEST(BuildRows, BestRouteAtTheTopSizeWinsTheCell) {
  const auto sample = [](const char* route, double pct, std::size_t n) {
    RouteSample s;
    s.route = route;
    s.model = Model::SYCL;
    s.vendor = Vendor::Intel;
    s.schedule = "static";
    s.kernel = PerfKernel::Dot;
    s.n = n;
    s.pct_of_peak = pct;
    s.verified = true;
    return s;
  };
  // The 90% sample sits at the smaller ladder size and must not win.
  const std::vector<PerfRow> rows = build_rows(
      {sample("SYCL(DPC++)", 40.0, 8192), sample("SYCL(Open SYCL)", 55.0, 8192),
       sample("SYCL(DPC++)", 90.0, 2048)},
      {Vendor::Intel}, 8192);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].cells.size(), 1u);
  EXPECT_EQ(rows[0].cells[0].route, "SYCL(Open SYCL)");
  EXPECT_DOUBLE_EQ(rows[0].cells[0].efficiency, 0.55);
}

/// Small two-kernel campaign shared by the end-to-end assertions below.
const PerfReport& small_report() {
  static const PerfReport report = [] {
    CampaignConfig cfg;
    cfg.sizes = {2048, 4096};
    cfg.reps = 1;
    cfg.kernels = {PerfKernel::Triad, PerfKernel::Dot};
    return run_campaign(cfg);
  }();
  return report;
}

TEST(Campaign, EveryAllowedRouteProducesEverySample) {
  const PerfReport& r = small_report();
  // 9 NVIDIA + 8 AMD (roc-stdpar on) + 6 Intel routes.
  EXPECT_EQ(r.route_count, 23u);
  // routes x schedules x sizes x kernels, no silent drops.
  EXPECT_EQ(r.samples.size(), 23u * 2 * 2 * 2);
  for (const RouteSample& s : r.samples) {
    EXPECT_TRUE(s.verified) << s.route << " " << s.schedule;
    EXPECT_GT(s.launches, 0u) << s.route;
    EXPECT_GT(s.sim_us, 0.0) << s.route;
    EXPECT_GE(s.pct_of_peak, 0.0) << s.route;
    EXPECT_LE(s.pct_of_peak, 100.0) << s.route;
  }
}

TEST(Campaign, RowsCoverEveryModelAndMetricsStayInRange) {
  const PerfReport& r = small_report();
  // 8 models with stream embeddings x 2 kernels.
  EXPECT_EQ(r.rows.size(), 16u);
  for (const PerfRow& row : r.rows) {
    ASSERT_EQ(row.cells.size(), r.config.vendors.size());
    EXPECT_GE(row.pp, 0.0);
    EXPECT_LE(row.pp, 1.0);
    for (const auto& cell : row.cells) {
      EXPECT_GE(cell.efficiency, 0.0);
      EXPECT_LE(cell.efficiency, 1.0);
      EXPECT_EQ(cell.supported, !cell.route.empty());
    }
  }
}

TEST(Campaign, SingleAndDualVendorModelsScoreZeroPp) {
  // CUDA, HIP, and OpenACC do not span the full vendor set, so the Reguly
  // metric is exactly 0 for them; every three-vendor model scores > 0.
  for (const PerfRow& row : small_report().rows) {
    const bool partial = row.model == Model::CUDA ||
                         row.model == Model::HIP ||
                         row.model == Model::OpenACC;
    if (partial) {
      EXPECT_EQ(row.pp, 0.0) << to_string(row.model);
    } else {
      EXPECT_GT(row.pp, 0.0) << to_string(row.model);
    }
  }
}

TEST(Campaign, SimulatedTimeIsScheduleInvariant) {
  // The schedule knob changes host-side chunking, never the cost model:
  // static and dynamic sweeps of the same (route, kernel, size) must land
  // on bit-identical simulated durations.
  std::map<std::tuple<std::string, int, std::size_t>,
           std::map<std::string, double>>
      by_point;
  for (const RouteSample& s : small_report().samples) {
    by_point[{s.route, static_cast<int>(s.kernel), s.n}][s.schedule] =
        s.sim_us;
  }
  for (const auto& [point, schedules] : by_point) {
    ASSERT_EQ(schedules.size(), 2u) << std::get<0>(point);
    EXPECT_EQ(schedules.at("static"), schedules.at("dynamic"))
        << std::get<0>(point) << " kernel " << std::get<1>(point);
  }
}

TEST(Campaign, VendorAndModelFiltersRestrictTheSweep) {
  CampaignConfig cfg;
  cfg.sizes = {2048};
  cfg.reps = 1;
  cfg.vendors = {Vendor::NVIDIA};
  cfg.models = {Model::Kokkos};
  cfg.schedules = {mcmm::gpusim::Schedule::Static};
  cfg.kernels = {PerfKernel::Reduce};
  const PerfReport r = run_campaign(cfg);
  EXPECT_EQ(r.route_count, 1u);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0].route, "Kokkos(Cuda)");
  EXPECT_EQ(r.samples[0].kernel, PerfKernel::Reduce);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].cells.size(), 1u);
  EXPECT_TRUE(r.rows[0].cells[0].supported);
}

TEST(Campaign, EmptyDimensionsAreRejected) {
  CampaignConfig cfg;
  cfg.vendors.clear();
  EXPECT_THROW((void)run_campaign(cfg), std::invalid_argument);
  cfg = CampaignConfig{};
  cfg.sizes.clear();
  EXPECT_THROW((void)run_campaign(cfg), std::invalid_argument);
  cfg = CampaignConfig{};
  cfg.schedules.clear();
  EXPECT_THROW((void)run_campaign(cfg), std::invalid_argument);
}

TEST(WeakScaling, DeviceSharesSumEverySuiteKernelOverEveryRep) {
  // Expected shares computed without the profiler fold: each device
  // replays the suite `reps` times, and the suite is Copy, Mul, Add,
  // Triad, Dot and Reduce (each a 64-chunk partial pass plus a combine)
  // and Uneven, with these declared costs.
  WeakScalingConfig cfg;
  cfg.n_per_device = 4096;
  cfg.reps = 3;
  cfg.device_counts = {1, 2};
  const double n = static_cast<double>(cfg.n_per_device);
  const double nd = n * sizeof(double);
  const double partials = 64 * sizeof(double);
  const double span =
      static_cast<double>(mcmm::bench::uneven_span_total(cfg.n_per_device));
  const auto costs = [](double read, double written, double flops) {
    KernelCosts c;
    c.bytes_read = read;
    c.bytes_written = written;
    c.flops = flops;
    return c;
  };
  const std::vector<KernelCosts> suite = {
      costs(nd, nd, 0),                        // Copy
      costs(nd, nd, n),                        // Mul
      costs(2 * nd, nd, n),                    // Add
      costs(2 * nd, nd, 2 * n),                // Triad
      costs(2 * nd, partials, 2 * n),          // Dot partials
      costs(partials, sizeof(double), 64),     // Dot combine
      costs(nd, partials, 2 * n),              // Reduce partials
      costs(partials, sizeof(double), 64),     // Reduce combine
      costs(span * sizeof(double), nd, span),  // Uneven
  };

  const std::vector<WeakScalingSample> samples = run_weak_scaling(cfg);
  ASSERT_EQ(samples.size(), 6u);
  for (const WeakScalingSample& sample : samples) {
    const DeviceDescriptor desc = descriptor_for(sample.vendor);
    double bytes = 0.0;
    double sim_us = 0.0;
    for (const KernelCosts& c : suite) {
      bytes += c.total_bytes();
      sim_us += kernel_time_us(desc, BackendProfile{}, c);
    }
    bytes *= cfg.reps;
    sim_us *= cfg.reps;
    ASSERT_EQ(sample.shares.size(), sample.devices);
    for (const DeviceShare& share : sample.shares) {
      SCOPED_TRACE(share.device);
      EXPECT_EQ(share.bytes, bytes);
      EXPECT_NEAR(share.sim_us, sim_us, 1e-9 * sim_us);
    }
  }
}

}  // namespace
