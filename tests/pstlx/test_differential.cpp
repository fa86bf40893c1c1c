// Differential battery (ctest label: differential): every pstlx
// algorithm checked against its sequential std:: counterpart over
// seeded inputs in the sizes and distribution shapes where blocked
// decompositions historically break: 0, 1, non-power-of-two, and 2^20
// elements; random, duplicate-heavy, presorted, reverse-sorted, and
// all-equal values. Integer results must match std:: exactly; the device
// reduce additionally matches stdparx::reduce bit for bit on doubles
// (same 64-chunk decomposition).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"
#include "support/rng.hpp"

namespace mcmm {
namespace {

using testing::Shape;
using testing::kAllShapes;
using testing::make_data;

constexpr std::size_t kSizes[] = {0, 1, 1000, std::size_t{1} << 20};
constexpr std::uint64_t kSeed = 0xbadc0ffee0ddf00dull;

[[nodiscard]] stdparx::execution_policy device_policy() {
  return stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
}

/// Uploads host data, runs `device_op(policy, device_ptr, n)`, downloads
/// the result.
template <typename T, typename DeviceOp>
std::vector<T> on_device(const std::vector<T>& input, DeviceOp&& device_op) {
  const auto pol = device_policy();
  const std::size_t n = input.size();
  stdparx::device_vector<T> d(pol, n == 0 ? 1 : n);
  if (n != 0) d.upload(input.data(), n);
  device_op(pol, d.begin(), n);
  std::vector<T> out(n);
  if (n != 0) d.download(out.data(), n);
  return out;
}

TEST(PstlxDifferential, DeviceSortMatchesStdSort) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      std::vector<int> expected = make_data<int>(shape, n, kSeed);
      const std::vector<int> got =
          on_device(expected, [](const auto& pol, int* d, std::size_t m) {
            pstlx::sort(pol, d, d + m);
          });
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceStableSortMatchesStdStableSort) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      // Pack (key, original index) into one value so exact equality
      // with std::stable_sort proves order preservation among ties.
      std::vector<long> expected;
      expected.reserve(n);
      const std::vector<int> keys = make_data<int>(shape, n, kSeed ^ 1);
      for (std::size_t i = 0; i < n; ++i) {
        expected.push_back(static_cast<long>(keys[i]) * 1048576 +
                           static_cast<long>(i % 1048576));
      }
      const auto by_key = [](long a, long b) {
        return a / 1048576 < b / 1048576;
      };
      const std::vector<long> got = on_device(
          expected, [&](const auto& pol, long* d, std::size_t m) {
            pstlx::stable_sort(pol, d, d + m, by_key);
          });
      std::stable_sort(expected.begin(), expected.end(), by_key);
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceMergeMatchesStdMerge) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      std::vector<int> a = make_data<int>(shape, n, kSeed ^ 2);
      std::vector<int> b = make_data<int>(shape, n / 2 + 1, kSeed ^ 3);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      const std::size_t total = a.size() + b.size();

      const auto pol = device_policy();
      stdparx::device_vector<int> da(pol, a.size() + 1);
      stdparx::device_vector<int> db(pol, b.size() + 1);
      stdparx::device_vector<int> dout(pol, total + 1);
      if (!a.empty()) da.upload(a.data(), a.size());
      db.upload(b.data(), b.size());
      pstlx::merge(pol, da.begin(), da.begin() + a.size(), db.begin(),
                   db.begin() + b.size(), dout.begin());
      std::vector<int> got(total);
      dout.download(got.data(), total);

      std::vector<int> expected(total);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceInclusiveScanMatchesStd) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      const std::vector<long> input =
          make_data<long>(shape, n, kSeed ^ 4);
      const auto pol = device_policy();
      stdparx::device_vector<long> d(pol, n == 0 ? 1 : n);
      stdparx::device_vector<long> dout(pol, n == 0 ? 1 : n);
      if (n != 0) d.upload(input.data(), n);
      pstlx::inclusive_scan(pol, d.begin(), d.begin() + n, dout.begin());
      std::vector<long> got(n);
      if (n != 0) dout.download(got.data(), n);

      std::vector<long> expected(n);
      std::inclusive_scan(input.begin(), input.end(), expected.begin());
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceExclusiveScanMatchesStd) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      const std::vector<long> input =
          make_data<long>(shape, n, kSeed ^ 5);
      const auto pol = device_policy();
      stdparx::device_vector<long> d(pol, n == 0 ? 1 : n);
      stdparx::device_vector<long> dout(pol, n == 0 ? 1 : n);
      if (n != 0) d.upload(input.data(), n);
      pstlx::exclusive_scan(pol, d.begin(), d.begin() + n, dout.begin(),
                            7L);
      std::vector<long> got(n);
      if (n != 0) dout.download(got.data(), n);

      std::vector<long> expected(n);
      std::exclusive_scan(input.begin(), input.end(), expected.begin(), 7L);
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceReduceMatchesStdReduce) {
  for (const std::size_t n : kSizes) {
    for (const Shape shape : kAllShapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << testing::to_string(shape));
      const std::vector<int> input = make_data<int>(shape, n, kSeed ^ 6);
      const auto pol = device_policy();
      stdparx::device_vector<int> d(pol, n == 0 ? 1 : n);
      if (n != 0) d.upload(input.data(), n);
      const long got = pstlx::reduce(pol, d.begin(), d.begin() + n, 5L);
      const long expected = std::reduce(input.begin(), input.end(), 5L);
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(PstlxDifferential, DeviceTransformReduceMatchesStdInnerProduct) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::vector<int> a = make_data<int>(Shape::Random, n, kSeed ^ 7);
    const std::vector<int> b =
        make_data<int>(Shape::DuplicateHeavy, n, kSeed ^ 8);
    const auto pol = device_policy();
    stdparx::device_vector<int> da(pol, n == 0 ? 1 : n);
    stdparx::device_vector<int> db(pol, n == 0 ? 1 : n);
    if (n != 0) {
      da.upload(a.data(), n);
      db.upload(b.data(), n);
    }
    const long got = pstlx::transform_reduce(pol, da.begin(),
                                             da.begin() + n, db.begin(), 0L);
    const long expected =
        std::inner_product(a.begin(), a.end(), b.begin(), 0L);
    ASSERT_EQ(got, expected);
  }
}

/// The FP contract the perfport dogfood relies on: pstlx device reduce
/// uses the same 64-chunk decomposition and combine order as stdparx, so
/// double sums are bitwise identical between the two (not merely close).
TEST(PstlxDifferential, DeviceDoubleReduceBitwiseMatchesStdparx) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{1} << 20}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    testing::rng r(kSeed ^ 9);
    std::vector<double> input(n);
    for (auto& x : input) x = r.unit() * 2.0 - 1.0;
    const auto pol = device_policy();
    stdparx::device_vector<double> d(pol, n);
    d.upload(input.data(), n);
    const double via_pstlx =
        pstlx::transform_reduce(pol, d.begin(), d.end(), d.begin(), 0.0);
    const double via_stdparx =
        stdparx::transform_reduce(pol, d.begin(), d.end(), d.begin(), 0.0);
    ASSERT_EQ(via_pstlx, via_stdparx);  // bitwise, not EXPECT_DOUBLE_EQ
  }
}

TEST(PstlxDifferential, DeviceForEachAndTransformMatchStd) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<int> expected = make_data<int>(Shape::Random, n, kSeed ^ 10);
    const std::vector<int> got = on_device(
        expected, [](const auto& pol, int* d, std::size_t m) {
          pstlx::for_each(pol, d, d + m, [](int& x) { x = x * 3 + 1; });
        });
    std::for_each(expected.begin(), expected.end(),
                  [](int& x) { x = x * 3 + 1; });
    ASSERT_EQ(got, expected);

    const auto pol = device_policy();
    stdparx::device_vector<int> din(pol, n == 0 ? 1 : n);
    stdparx::device_vector<int> dout(pol, n == 0 ? 1 : n);
    if (n != 0) din.upload(got.data(), n);
    pstlx::transform(pol, din.begin(), din.begin() + n, dout.begin(),
                     [](int x) { return x - 7; });
    std::vector<int> got2(n);
    if (n != 0) dout.download(got2.data(), n);
    std::vector<int> expected2(n);
    std::transform(expected.begin(), expected.end(), expected2.begin(),
                   [](int x) { return x - 7; });
    ASSERT_EQ(got2, expected2);
  }
}

}  // namespace
}  // namespace mcmm
