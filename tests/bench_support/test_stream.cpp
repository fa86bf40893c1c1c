// BabelStream suite tests: correctness of every model implementation and
// the performance-shape properties the bench figures rely on.

#include "bench_support/stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "bench_support/stream_kernels.hpp"
#include "gpusim/allocator.hpp"
#include "gpusim/device.hpp"
#include "models/stdparx/stdparx.hpp"

namespace mcmm::bench {
namespace {

constexpr std::size_t kN = 64 * 1024;
constexpr int kReps = 3;

TEST(StreamBytes, MatchBabelStreamAccounting) {
  EXPECT_DOUBLE_EQ(stream_bytes(StreamKernel::Copy, 100), 1600.0);
  EXPECT_DOUBLE_EQ(stream_bytes(StreamKernel::Mul, 100), 1600.0);
  EXPECT_DOUBLE_EQ(stream_bytes(StreamKernel::Add, 100), 2400.0);
  EXPECT_DOUBLE_EQ(stream_bytes(StreamKernel::Triad, 100), 2400.0);
  EXPECT_DOUBLE_EQ(stream_bytes(StreamKernel::Dot, 100), 1600.0);
}

TEST(StreamVerify, AcceptsCorrectEvolution) {
  double va = kInitA, vb = kInitB, vc = kInitC;
  for (int r = 0; r < 4; ++r) {
    vc = va;
    vb = kScalar * vc;
    vc = va + vb;
    va = vb + kScalar * vc;
  }
  const std::vector<double> a(100, va), b(100, vb), c(100, vc);
  EXPECT_TRUE(verify_stream(a, b, c, va * vb * 100, 100, 4));
  EXPECT_FALSE(verify_stream(a, b, c, 0.0, 100, 4));
  std::vector<double> bad = a;
  bad[50] = 1e9;
  EXPECT_FALSE(verify_stream(bad, b, c, va * vb * 100, 100, 4));
}

TEST(StreamBytes, AreTheDeclaredCostsTraffic) {
  for (const StreamKernel k :
       {StreamKernel::Copy, StreamKernel::Mul, StreamKernel::Add,
        StreamKernel::Triad, StreamKernel::Dot, StreamKernel::Reduce,
        StreamKernel::Uneven}) {
    EXPECT_EQ(stream_bytes(k, 4099), costs_for(k, 4099).total_bytes())
        << to_string(k);
  }
  // Uneven reads 1+2+...+16 per full tile and writes every element.
  EXPECT_EQ(stream_bytes(StreamKernel::Uneven, 32), (2 * 136 + 32) * 8.0);
}

TEST(StreamVerify, SuiteChecksTileSumsInCAndEveryTotalPair) {
  constexpr std::size_t n = 40;
  const StreamScalars v = stream_scalars(3);
  std::vector<double> a(n, v.a), b(n, v.b), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = static_cast<double>(i % kUnevenTile + 1) * v.a;
  }
  const double nd = static_cast<double>(n);
  const double dot = v.a * v.b * nd, reduce = v.a * v.a * nd;
  EXPECT_TRUE(verify_suite(a, b, c, {dot, reduce, dot, reduce}, n, 3));
  EXPECT_FALSE(verify_suite(a, b, c, {dot, reduce, dot, 0.0}, n, 3));
  EXPECT_FALSE(verify_suite(a, b, c, {dot, reduce}, n, 2));
  c[17] = v.a;  // a classic-cycle c, not the tile sum
  EXPECT_FALSE(verify_suite(a, b, c, {dot, reduce}, n, 3));
}

/// Arrays and sums after `reps` rounds of the full seven-kernel cycle,
/// driven the way the perfport campaign drives a route.
struct CycleResult {
  std::vector<double> a, b, c;
  double dot{}, reduce{};
};

[[nodiscard]] CycleResult run_cycle(StreamBenchmark& bench, std::size_t n,
                                    int reps) {
  CycleResult r;
  bench.alloc(n);
  bench.init_arrays();
  for (int rep = 0; rep < reps; ++rep) {
    bench.copy();
    bench.mul();
    bench.add();
    bench.triad();
    r.dot = bench.dot();
    r.reduce = bench.reduce();
    bench.uneven();
  }
  bench.read_arrays(r.a, r.b, r.c);
  return r;
}

[[nodiscard]] bool same_bits(const std::vector<double>& x,
                             const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Turns the roc-stdpar experiment on for the AMD pSTL route (as the
/// campaign does) and restores it on scope exit.
class RocStdparOn {
 public:
  RocStdparOn() : saved_(stdparx::roc_stdpar_enabled()) {
    stdparx::enable_experimental_roc_stdpar(true);
  }
  ~RocStdparOn() { stdparx::enable_experimental_roc_stdpar(saved_); }

 private:
  bool saved_;
};

class StreamPerVendor : public ::testing::TestWithParam<Vendor> {};

TEST_P(StreamPerVendor, EveryRouteComputesTheSameCycle) {
  // 4099 leaves a tail in every split the routes make: 256-wide blocks,
  // 64 reduction chunks, 16-element Uneven tiles.
  constexpr std::size_t n = 4099;
  const RocStdparOn roc;
  const auto benches = stream_benchmarks_for(GetParam());
  ASSERT_GE(benches.size(), 4u);
  const CycleResult first = run_cycle(*benches.front(), n, kReps);
  EXPECT_TRUE(verify_suite(first.a, first.b, first.c,
                           {first.dot, first.reduce}, n, kReps));
  for (std::size_t r = 1; r < benches.size(); ++r) {
    SCOPED_TRACE(benches[r]->label() + " vs " + benches.front()->label());
    const CycleResult got = run_cycle(*benches[r], n, kReps);
    EXPECT_TRUE(same_bits(got.a, first.a));
    EXPECT_TRUE(same_bits(got.b, first.b));
    EXPECT_TRUE(same_bits(got.c, first.c));
    EXPECT_NEAR(got.dot, first.dot, 1e-12 * std::fabs(first.dot));
    EXPECT_NEAR(got.reduce, first.reduce, 1e-12 * std::fabs(first.reduce));
  }
}

/// Gives the vendor's Platform device red zones while in scope: each new
/// block starts canary-filled and a freed one is poisoned, so a route
/// verifies memory it wrote itself, not the values the previous route
/// (or test) left in a recycled block. Restores the guard size after.
class FreshDeviceMemory {
 public:
  explicit FreshDeviceMemory(Vendor v)
      : allocator_(gpusim::Platform::instance().device(v).allocator()),
        saved_(allocator_.guard_bytes()) {
    allocator_.set_guard_bytes(64);
  }
  ~FreshDeviceMemory() { allocator_.set_guard_bytes(saved_); }

  FreshDeviceMemory(const FreshDeviceMemory&) = delete;
  FreshDeviceMemory& operator=(const FreshDeviceMemory&) = delete;

 private:
  gpusim::DeviceAllocator& allocator_;
  std::size_t saved_;
};

TEST_P(StreamPerVendor, AllRoutesVerify) {
  const FreshDeviceMemory fresh(GetParam());
  for (auto& bench : stream_benchmarks_for(GetParam())) {
    const auto results = run_stream(*bench, kN, kReps);
    ASSERT_EQ(results.size(), 5u) << bench->label();
    for (const StreamResult& r : results) {
      EXPECT_TRUE(r.verified)
          << bench->label() << " " << to_string(r.kernel);
      EXPECT_GT(r.bandwidth_gbps, 0.0) << bench->label();
      EXPECT_GT(r.best_time_us, 0.0) << bench->label();
      EXPECT_EQ(r.vendor, GetParam());
    }
  }
}

TEST_P(StreamPerVendor, AtLeastFourRoutesPerVendor) {
  // Fig. 1: every vendor is reachable through multiple models in C++.
  EXPECT_GE(stream_benchmarks_for(GetParam()).size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Vendors, StreamPerVendor,
                         ::testing::ValuesIn(kAllVendors),
                         [](const ::testing::TestParamInfo<Vendor>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Stream, NativeModelFastestOnItsPlatform) {
  // The headline performance shape: the native model attains the highest
  // Triad bandwidth on its home platform.
  const std::map<Vendor, std::string> native_label{
      {Vendor::NVIDIA, "CUDA"},
      {Vendor::AMD, "HIP"},
      {Vendor::Intel, "SYCL(DPC++)"},
  };
  for (const Vendor v : kAllVendors) {
    double native_bw = 0.0;
    double best_other = 0.0;
    std::string best_other_label;
    for (auto& bench : stream_benchmarks_for(v)) {
      const auto results = run_stream(*bench, kN, kReps);
      for (const StreamResult& r : results) {
        if (r.kernel != StreamKernel::Triad) continue;
        if (r.label == native_label.at(v)) {
          native_bw = r.bandwidth_gbps;
        } else if (r.bandwidth_gbps > best_other) {
          best_other = r.bandwidth_gbps;
          best_other_label = r.label;
        }
      }
    }
    EXPECT_GT(native_bw, best_other)
        << to_string(v) << ": native should beat " << best_other_label;
  }
}

TEST(Stream, PortabilityLayerWithinTenPercentOfNative) {
  // BabelStream literature: mature portability layers land within ~10 % of
  // native. Kokkos(Cuda) vs CUDA on the simulated NVIDIA device. Needs a
  // BabelStream-realistic array size so launch latency is amortized.
  constexpr std::size_t kLargeN = 1 << 22;
  double native = 0.0, kokkos = 0.0;
  for (auto& bench : stream_benchmarks_for(Vendor::NVIDIA)) {
    const auto results = run_stream(*bench, kLargeN, 2);
    for (const StreamResult& r : results) {
      if (r.kernel != StreamKernel::Triad) continue;
      if (r.label == "CUDA") native = r.bandwidth_gbps;
      if (r.label == "Kokkos(Cuda)") kokkos = r.bandwidth_gbps;
    }
  }
  ASSERT_GT(native, 0.0);
  ASSERT_GT(kokkos, 0.0);
  EXPECT_GT(kokkos, 0.9 * native);
  EXPECT_LE(kokkos, native);
}

TEST(Stream, ExperimentalRoutesClearlyBehindNative) {
  // Kokkos' experimental SYCL backend on Intel must trail DPC++ visibly.
  double native = 0.0, experimental = 0.0;
  for (auto& bench : stream_benchmarks_for(Vendor::Intel)) {
    const auto results = run_stream(*bench, kN, kReps);
    for (const StreamResult& r : results) {
      if (r.kernel != StreamKernel::Triad) continue;
      if (r.label == "SYCL(DPC++)") native = r.bandwidth_gbps;
      if (r.label == "Kokkos(SYCL)") experimental = r.bandwidth_gbps;
    }
  }
  ASSERT_GT(native, 0.0);
  ASSERT_GT(experimental, 0.0);
  EXPECT_LT(experimental, 0.9 * native);
}

TEST(Stream, RocStdparAppearsOnlyWhenEnabled) {
  stdparx::enable_experimental_roc_stdpar(false);
  auto without = stream_benchmarks_for(Vendor::AMD);
  stdparx::enable_experimental_roc_stdpar(true);
  auto with = stream_benchmarks_for(Vendor::AMD);
  stdparx::enable_experimental_roc_stdpar(false);
  EXPECT_EQ(with.size(), without.size() + 1);
}

TEST(Stream, NvidiaDeviceHasHighestCopyBandwidth) {
  // Descriptor-level: the H100-like device leads in attainable bandwidth.
  std::map<Vendor, double> best;
  for (const Vendor v : kAllVendors) {
    auto benches = stream_benchmarks_for(v);
    ASSERT_FALSE(benches.empty());
    const auto results = run_stream(*benches.front(), kN, kReps);
    for (const StreamResult& r : results) {
      if (r.kernel == StreamKernel::Copy) {
        best[v] = std::max(best[v], r.bandwidth_gbps);
      }
    }
  }
  EXPECT_GT(best[Vendor::NVIDIA], best[Vendor::AMD]);
  EXPECT_GT(best[Vendor::NVIDIA], best[Vendor::Intel]);
}

TEST(Stream, FormattersIncludeAllRows) {
  auto benches = stream_benchmarks_for(Vendor::Intel);
  std::vector<StreamResult> all;
  for (auto& bench : benches) {
    const auto results = run_stream(*bench, 4096, 2);
    all.insert(all.end(), results.begin(), results.end());
  }
  const std::string table = format_stream_table(all);
  const std::string csv = format_stream_csv(all);
  for (const StreamResult& r : all) {
    EXPECT_NE(table.find(r.label), std::string::npos);
    EXPECT_NE(csv.find(r.label), std::string::npos);
  }
  // CSV has a header plus one line per result.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            all.size() + 1);
}

TEST(Stream, BandwidthScalesReasonablyWithProblemSize) {
  // Larger arrays amortize launch latency: bandwidth grows monotonically
  // toward the device limit.
  auto benches = stream_benchmarks_for(Vendor::NVIDIA);
  StreamBenchmark* cuda = benches.front().get();
  double prev = 0.0;
  for (const std::size_t n : {1u << 12, 1u << 15, 1u << 18}) {
    const auto results = run_stream(*cuda, n, 2);
    const double bw = results[0].bandwidth_gbps;  // Copy
    EXPECT_GT(bw, prev) << n;
    prev = bw;
  }
}

}  // namespace
}  // namespace mcmm::bench
