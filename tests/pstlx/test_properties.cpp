// Property tests for the pstlx algorithms: invariants that must hold
// for *every* input, checked over seeded shapes rather than against a
// reference implementation. Covers the scan prefix laws, the
// inclusive/exclusive duality, merge stability (equal keys keep their
// source-range order and relative order), schedule independence
// (Static and Dynamic produce identical bytes and identical simulated
// time), and the Figure 1 Standard-column tier table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <vector>

#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"
#include "support/rng.hpp"

namespace mcmm {
namespace {

using testing::Shape;
using testing::kAllShapes;
using testing::make_data;

constexpr std::uint64_t kSeed = 0x5eedf00d12345678ull;

[[nodiscard]] stdparx::execution_policy device_policy() {
  return stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
}

TEST(PstlxProperties, InclusiveScanPrefixInvariant) {
  const auto pol = device_policy();
  for (const std::size_t n : {std::size_t{1}, std::size_t{4097}}) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      const std::vector<long> in = make_data<long>(shape, n, kSeed ^ 1);
      stdparx::device_vector<long> d(pol, n);
      stdparx::device_vector<long> dout(pol, n);
      d.upload(in.data(), n);
      pstlx::inclusive_scan(pol, d.begin(), d.end(), dout.begin());
      std::vector<long> out(n);
      dout.download(out.data(), n);
      ASSERT_EQ(out[0], in[0]);
      for (std::size_t i = 1; i < n; ++i) {
        ASSERT_EQ(out[i], out[i - 1] + in[i]) << "at i=" << i;
      }
    }
  }
}

TEST(PstlxProperties, ExclusiveScanPrefixInvariant) {
  const auto pol = device_policy();
  constexpr long kInit = 17;
  for (const std::size_t n : {std::size_t{1}, std::size_t{4097}}) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      const std::vector<long> in = make_data<long>(shape, n, kSeed ^ 2);
      stdparx::device_vector<long> d(pol, n);
      stdparx::device_vector<long> dout(pol, n);
      d.upload(in.data(), n);
      pstlx::exclusive_scan(pol, d.begin(), d.end(), dout.begin(), kInit);
      std::vector<long> out(n);
      dout.download(out.data(), n);
      ASSERT_EQ(out[0], kInit);
      for (std::size_t i = 1; i < n; ++i) {
        ASSERT_EQ(out[i], out[i - 1] + in[i - 1]) << "at i=" << i;
      }
    }
  }
}

/// inclusive[i] == exclusive[i] + in[i] when the exclusive seed is 0.
TEST(PstlxProperties, ScanDuality) {
  const auto pol = device_policy();
  const std::size_t n = 5001;
  const std::vector<long> in = make_data<long>(Shape::Random, n, kSeed ^ 3);
  stdparx::device_vector<long> d(pol, n);
  stdparx::device_vector<long> dinc(pol, n);
  stdparx::device_vector<long> dexc(pol, n);
  d.upload(in.data(), n);
  pstlx::inclusive_scan(pol, d.begin(), d.end(), dinc.begin());
  pstlx::exclusive_scan(pol, d.begin(), d.end(), dexc.begin(), 0L);
  std::vector<long> inc(n);
  std::vector<long> exc(n);
  dinc.download(inc.data(), n);
  dexc.download(exc.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(inc[i], exc[i] + in[i]) << "at i=" << i;
  }
}

struct Keyed {
  int key;
  int tag;  // provenance: which range / original position
  bool operator==(const Keyed&) const = default;
};

TEST(PstlxProperties, MergeIsStable) {
  // Duplicate-heavy keys so stability is actually exercised: ties must
  // take from the first range before the second, preserving tag order.
  const auto pol = device_policy();
  const std::size_t na = 3001, nb = 2003;
  const auto by_key = [](const Keyed& x, const Keyed& y) {
    return x.key < y.key;
  };

  std::vector<Keyed> a, b;
  testing::rng r(kSeed ^ 4);
  for (std::size_t i = 0; i < na; ++i) {
    a.push_back({static_cast<int>(r.below(16)), static_cast<int>(i)});
  }
  for (std::size_t i = 0; i < nb; ++i) {
    b.push_back({static_cast<int>(r.below(16)),
                 static_cast<int>(na + i)});
  }
  std::stable_sort(a.begin(), a.end(), by_key);
  std::stable_sort(b.begin(), b.end(), by_key);

  stdparx::device_vector<Keyed> da(pol, na);
  stdparx::device_vector<Keyed> db(pol, nb);
  stdparx::device_vector<Keyed> dout(pol, na + nb);
  da.upload(a.data(), na);
  db.upload(b.data(), nb);
  pstlx::merge(pol, da.begin(), da.end(), db.begin(), db.end(),
               dout.begin(), by_key);
  std::vector<Keyed> got(na + nb);
  dout.download(got.data(), na + nb);

  // std::merge is specified stable; element-wise equality on (key, tag)
  // proves pstlx::merge makes the same tie-breaking choices.
  std::vector<Keyed> expected(na + nb);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin(),
             by_key);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "at i=" << i;
  }
}

TEST(PstlxProperties, StableSortPreservesTagOrderWithinEqualKeys) {
  const auto pol = device_policy();
  const std::size_t n = 8191;
  const auto by_key = [](const Keyed& x, const Keyed& y) {
    return x.key < y.key;
  };
  std::vector<Keyed> data;
  testing::rng r(kSeed ^ 5);
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back({static_cast<int>(r.below(8)), static_cast<int>(i)});
  }
  std::vector<Keyed> expected = data;

  stdparx::device_vector<Keyed> d(pol, n);
  d.upload(data.data(), n);
  pstlx::stable_sort(pol, d.begin(), d.end(), by_key);
  std::vector<Keyed> got(n);
  d.download(got.data(), n);

  std::stable_sort(expected.begin(), expected.end(), by_key);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], expected[i]) << "at i=" << i;
  }
}

TEST(PstlxProperties, SortProducesSortedPermutation) {
  const auto pol = device_policy();
  for (const Shape shape : kAllShapes) {
    SCOPED_TRACE(testing::to_string(shape));
    const std::size_t n = 4099;
    const std::vector<int> in = make_data<int>(shape, n, kSeed ^ 6);
    stdparx::device_vector<int> d(pol, n);
    d.upload(in.data(), n);
    pstlx::sort(pol, d.begin(), d.end());
    std::vector<int> got(n);
    d.download(got.data(), n);
    ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    ASSERT_TRUE(std::is_permutation(got.begin(), got.end(), in.begin()));
  }
}

/// Schedule is an execution knob only: Static and Dynamic must produce
/// identical bytes *and* identical simulated time.
TEST(PstlxProperties, ScheduleNeverChangesResultsOrSimTime) {
  const std::size_t n = 12289;
  const std::vector<int> in = make_data<int>(Shape::Random, n, kSeed ^ 7);

  auto run = [&](gpusim::Schedule s) {
    pstlx::schedule_guard guard(s);
    const auto pol = device_policy();
    stdparx::device_vector<int> d(pol, n);
    stdparx::device_vector<long> dscan(pol, n);
    d.upload(in.data(), n);
    pstlx::sort(pol, d.begin(), d.end());
    pstlx::inclusive_scan(pol, d.begin(), d.end(), dscan.begin());
    const long total =
        pstlx::reduce(pol, d.begin(), d.end(), 0L);
    std::vector<int> sorted(n);
    std::vector<long> scanned(n);
    d.download(sorted.data(), n);
    dscan.download(scanned.data(), n);
    return std::tuple{sorted, scanned, total,
                      pol.queue().simulated_time_us()};
  };

  const auto stat = run(gpusim::Schedule::Static);
  const auto dyn = run(gpusim::Schedule::Dynamic);
  EXPECT_EQ(std::get<0>(stat), std::get<0>(dyn));
  EXPECT_EQ(std::get<1>(stat), std::get<1>(dyn));
  EXPECT_EQ(std::get<2>(stat), std::get<2>(dyn));
  EXPECT_EQ(std::get<3>(stat), std::get<3>(dyn))
      << "schedule changed simulated time";
}

/// The Figure 1 Standard-column table, cell by cell.
TEST(PstlxProperties, TierTableMatchesFigureOneStandardColumn) {
  using stdparx::Runtime;
  using pstlx::SupportTier;
  using pstlx::tier_for;

  EXPECT_EQ(tier_for(Vendor::NVIDIA, Runtime::NVHPC),
            SupportTier::VendorComplete);
  EXPECT_EQ(tier_for(Vendor::AMD, Runtime::NVHPC), SupportTier::Unsupported);
  EXPECT_EQ(tier_for(Vendor::Intel, Runtime::NVHPC),
            SupportTier::Unsupported);

  EXPECT_EQ(tier_for(Vendor::Intel, Runtime::OneDPL),
            SupportTier::CustomNamespace);
  EXPECT_EQ(tier_for(Vendor::NVIDIA, Runtime::OneDPL),
            SupportTier::Experimental);
  EXPECT_EQ(tier_for(Vendor::AMD, Runtime::OneDPL),
            SupportTier::Experimental);

  EXPECT_EQ(tier_for(Vendor::AMD, Runtime::RocStdpar),
            SupportTier::OptInExperimental);
  EXPECT_EQ(tier_for(Vendor::NVIDIA, Runtime::RocStdpar),
            SupportTier::Unsupported);
  EXPECT_EQ(tier_for(Vendor::Intel, Runtime::RocStdpar),
            SupportTier::Unsupported);

  for (const Vendor v : {Vendor::NVIDIA, Vendor::AMD, Vendor::Intel}) {
    EXPECT_EQ(tier_for(v, Runtime::OpenSYCL), SupportTier::Experimental);
  }

  EXPECT_EQ(pstlx::to_string(SupportTier::VendorComplete),
            "vendor-complete");
  EXPECT_EQ(pstlx::to_string(SupportTier::CustomNamespace),
            "custom-namespace");
  EXPECT_EQ(pstlx::to_string(SupportTier::OptInExperimental),
            "opt-in-experimental");
  EXPECT_EQ(pstlx::to_string(SupportTier::Experimental), "experimental");
  EXPECT_EQ(pstlx::to_string(SupportTier::Unsupported), "unsupported");
}

}  // namespace
}  // namespace mcmm
