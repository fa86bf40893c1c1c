#pragma once
// Small measurement helpers shared by every workload: order statistics,
// per-process CPU and memory readings from /proc, a seeded RNG, and the
// ordered metric list the benchmark prints.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcmm::bm {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  bool coin() noexcept { return (next() & 1u) != 0; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Nanoseconds every thread of `pid` has spent on a CPU, summed over
/// /proc/<pid>/task/*/schedstat. Threads that already exited are not
/// counted, so call it on processes whose thread set is fixed.
[[nodiscard]] std::uint64_t process_cpu_ns(pid_t pid);
/// High-water resident set (VmHWM) of `pid`, MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// One printed metric.
struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }
  /// The value of `name`; 0 when absent.
  [[nodiscard]] double get(std::string_view name) const noexcept;

 private:
  std::vector<Metric> items_;
};

/// True when `name` is made only of [A-Za-z0-9_.-] and is non-empty.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Shortest round-trip decimal form of a finite double ("0" otherwise).
[[nodiscard]] std::string json_number(double v);

}  // namespace mcmm::bm
