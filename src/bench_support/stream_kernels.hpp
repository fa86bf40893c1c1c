#pragma once
// The BabelStream suite written once: the element body of every kernel,
// the Dot and Reduce terms, the chunk partial of the two-phase
// reductions, and the cost every kernel declares. The model adapters
// (stream_impls.cpp), the weak-scaling graph (perfport) and `mcmm graph`
// all launch these; they differ only in how they allocate, launch, reduce
// and copy back.

#include <algorithm>
#include <cstdint>

#include "bench_support/stream.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/queue.hpp"

namespace mcmm::bench {

/// Chunk count of the two-phase Dot/Reduce reductions; fixed so the
/// double-precision combine order (and thus the bits) never depends on
/// the host pool size.
inline constexpr std::uint32_t kChunks = 64;

/// The cost one invocation of kernel k over arrays of n doubles declares
/// (Init declares Copy's). Every term is an integer multiple of 8 below
/// 2^53, so sums of terms are exact.
[[nodiscard]] gpusim::KernelCosts costs_for(StreamKernel k,
                                            std::size_t n) noexcept;

/// Element access: device pointers index with [], Kokkos Views with (),
/// whose operator() reports every access to the sanitizer.
template <typename T>
[[nodiscard]] inline T& at(T* p, std::size_t i) noexcept {
  return p[i];
}
template <typename View>
[[nodiscard]] inline decltype(auto) at(const View& v, std::size_t i) noexcept {
  return v(i);
}

/// The three arrays as one model's kernels see them (V is a device
/// pointer or a Kokkos View), and the body of every kernel at element i.
template <typename V>
struct StreamArrays {
  V a, b, c;

  void init(std::size_t i) const {
    at(a, i) = kInitA;
    at(b, i) = kInitB;
    at(c, i) = kInitC;
  }
  void copy(std::size_t i) const { at(c, i) = at(a, i); }
  void mul(std::size_t i) const { at(b, i) = kScalar * at(c, i); }
  void add(std::size_t i) const { at(c, i) = at(a, i) + at(b, i); }
  void triad(std::size_t i) const { at(a, i) = at(b, i) + kScalar * at(c, i); }
  /// c[i] = sum of a[j] from the start of i's kUnevenTile-aligned tile to i.
  void uneven(std::size_t i) const {
    const std::size_t start = i - (i % kUnevenTile);
    double acc = 0.0;
    for (std::size_t j = start; j <= i; ++j) acc += at(a, j);
    at(c, i) = acc;
  }
  [[nodiscard]] double dot_term(std::size_t i) const {
    return at(a, i) * at(b, i);
  }
  [[nodiscard]] double reduce_term(std::size_t i) const {
    return at(a, i) * at(a, i);
  }
};

/// Phase one of the two-phase Dot/Reduce: work item `cidx` of kChunks
/// writes the sum of term(i) over its chunk of [0, n) to p[cidx].
template <typename Term>
inline void chunk_partial(std::size_t cidx, std::size_t n, double* p,
                          const Term& term) {
  if (cidx >= kChunks) return;
  const std::size_t chunk = (n + kChunks - 1) / kChunks;
  const std::size_t begin = cidx * chunk;
  const std::size_t end = std::min(n, begin + chunk);
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) acc += term(i);
  p[cidx] = acc;
}

/// Launches elementwise kernel `Body` (a StreamArrays member) on a raw
/// gpusim queue in 256-wide blocks under `label`, declaring kind's cost;
/// the weak-scaling graph and `mcmm graph` launch through it.
template <auto Body>
gpusim::Event launch_elements(gpusim::Queue& q, const char* label,
                              StreamKernel kind,
                              const StreamArrays<double*>& s, std::size_t n) {
  const gpusim::KernelLabelScope scope(label);
  return q.launch(gpusim::launch_1d(n, 256), costs_for(kind, n),
                  [s, n](const gpusim::WorkItem& it) {
                    const std::size_t i = it.global_x();
                    if (i < n) (s.*Body)(i);
                  });
}

}  // namespace mcmm::bench
