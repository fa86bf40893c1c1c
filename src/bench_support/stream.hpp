#pragma once
// BabelStream-style benchmark suite (Deakin et al. [53], the performance
// methodology the paper names as its natural extension, Sec. 5/6). Seven
// kernels — Copy, Mul, Add, Triad, Dot, plus Reduce and Uneven — whose
// bodies and declared costs are defined once (stream_kernels.hpp); each
// programming-model adapter holds only its model's API idiom (alloc,
// launch, reduce, copy-back). The harness runs them on the simulated
// devices and reports attainable bandwidth per (model route, vendor).

#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "gpusim/thread_pool.hpp"  // gpusim::Schedule

namespace mcmm::bench {

/// BabelStream's constants.
inline constexpr double kInitA = 0.1;
inline constexpr double kInitB = 0.2;
inline constexpr double kInitC = 0.0;
inline constexpr double kScalar = 0.4;

/// Tile span of the Uneven kernel: work item i accumulates a[j] over the
/// i%kUnevenTile+1 elements at the start of its kUnevenTile-aligned tile,
/// so per-item cost ramps 1..kUnevenTile within every tile (a ragged
/// workload that rewards dynamic scheduling on real hardware).
inline constexpr std::size_t kUnevenTile = 16;

/// Copy/Mul/Add/Triad/Dot are classic BabelStream; Reduce (sum of a[i]^2,
/// reduction-heavy) and Uneven (ragged per-item tile sums) extend the
/// suite for the perf-portability campaign.
enum class StreamKernel { Copy, Mul, Add, Triad, Dot, Reduce, Uneven };

[[nodiscard]] std::string_view to_string(StreamKernel k) noexcept;

/// Total elements read by one Uneven invocation over n items: item i reads
/// i%kUnevenTile+1 elements, so a full tile contributes 1+2+...+kUnevenTile.
[[nodiscard]] constexpr std::size_t uneven_span_total(std::size_t n) noexcept {
  constexpr std::size_t t = kUnevenTile;
  const std::size_t full = n / t, rem = n % t;
  return full * (t * (t + 1) / 2) + rem * (rem + 1) / 2;
}

/// Bytes moved by one invocation of a kernel on arrays of n doubles.
[[nodiscard]] double stream_bytes(StreamKernel k, std::size_t n) noexcept;

/// One programming-model implementation of the BabelStream kernels.
/// Lifecycle: construct -> alloc(n) -> init_arrays() -> kernels -> read -> destruct.
class StreamBenchmark {
 public:
  virtual ~StreamBenchmark() = default;

  /// Route label, e.g. "CUDA", "SYCL(DPC++)", "Kokkos(HIP)".
  [[nodiscard]] virtual std::string label() const = 0;
  [[nodiscard]] virtual Vendor vendor() const = 0;

  virtual void alloc(std::size_t n) = 0;
  virtual void init_arrays() = 0;

  virtual void copy() = 0;        ///< c[i] = a[i]
  virtual void mul() = 0;         ///< b[i] = scalar * c[i]
  virtual void add() = 0;         ///< c[i] = a[i] + b[i]
  virtual void triad() = 0;       ///< a[i] = b[i] + scalar * c[i]
  [[nodiscard]] virtual double dot() = 0;     ///< sum a[i] * b[i]
  [[nodiscard]] virtual double reduce() = 0;  ///< sum a[i] * a[i]
  /// c[i] = sum of a[j] for j in [tile_start(i), i], tiles of kUnevenTile.
  virtual void uneven() = 0;

  /// Host-side launch schedule for the elementwise kernels. Only models
  /// whose real APIs expose a schedule knob honor it (SYCL via the
  /// LaunchPolicy parallel_for overload, Kokkos via Schedule<...>); the
  /// default is a no-op, mirroring CUDA/HIP/stdpar, which have none.
  /// Simulated time is schedule-invariant by construction either way.
  virtual void set_schedule(gpusim::Schedule /*schedule*/) {}

  virtual void read_arrays(std::vector<double>& a, std::vector<double>& b,
                           std::vector<double>& c) = 0;

  /// Simulated time consumed so far on this route's queue, microseconds.
  [[nodiscard]] virtual double simulated_time_us() const = 0;
};

/// Result of one (route, kernel) measurement.
struct StreamResult {
  std::string label;
  Vendor vendor{};
  StreamKernel kernel{};
  std::size_t n{};
  double best_time_us{};    ///< min simulated time over repetitions
  double bandwidth_gbps{};  ///< stream_bytes / best_time
  bool verified{};
};

/// Runs the BabelStream cycle `reps` times on `bench` with arrays of `n`
/// doubles, verifying the final array contents; returns one result per
/// kernel.
[[nodiscard]] std::vector<StreamResult> run_stream(StreamBenchmark& bench,
                                                   std::size_t n, int reps);

/// The value every element of a, b and c holds after `reps` cycles of
/// Copy, Mul, Add and Triad (all elements evolve identically): the one
/// scalar replay of the cycle every verifier checks against.
struct StreamScalars {
  double a, b, c;
};
[[nodiscard]] StreamScalars stream_scalars(int reps) noexcept;

/// Verifies arrays after `reps` iterations of the BabelStream cycle plus a
/// final dot; returns true when within tolerance.
[[nodiscard]] bool verify_stream(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 const std::vector<double>& c, double dot,
                                 std::size_t n, int reps);

/// Verifies arrays after `reps` iterations of the seven-kernel cycle
/// (Uneven last, so c holds tile prefix sums of a), and every (Dot,
/// Reduce) pair in `totals`, each over n elements.
[[nodiscard]] bool verify_suite(const std::vector<double>& a,
                                const std::vector<double>& b,
                                const std::vector<double>& c,
                                const std::vector<double>& totals,
                                std::size_t n, int reps);

/// Factory: every model route of Fig. 1's C++ row that can execute on
/// `vendor` (the executable cross-section of the compatibility table).
[[nodiscard]] std::vector<std::unique_ptr<StreamBenchmark>>
stream_benchmarks_for(Vendor vendor);

/// Formats results as a BabelStream-like table (one row per route/kernel).
[[nodiscard]] std::string format_stream_table(
    const std::vector<StreamResult>& results);

/// Formats results as CSV.
[[nodiscard]] std::string format_stream_csv(
    const std::vector<StreamResult>& results);

}  // namespace mcmm::bench
