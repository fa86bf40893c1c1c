#include "bench_support/stream.hpp"

#include "bench_support/stream_kernels.hpp"
#include "gpusim/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace mcmm::bench {

std::string_view to_string(StreamKernel k) noexcept {
  switch (k) {
    case StreamKernel::Copy:
      return "Copy";
    case StreamKernel::Mul:
      return "Mul";
    case StreamKernel::Add:
      return "Add";
    case StreamKernel::Triad:
      return "Triad";
    case StreamKernel::Dot:
      return "Dot";
    case StreamKernel::Reduce:
      return "Reduce";
    case StreamKernel::Uneven:
      return "Uneven";
  }
  return "?";
}

gpusim::KernelCosts costs_for(StreamKernel k, std::size_t n) noexcept {
  const double nd = static_cast<double>(n) * sizeof(double);
  const double flops = static_cast<double>(n);
  gpusim::KernelCosts c;
  switch (k) {
    case StreamKernel::Copy:
      c = {nd, nd, 0};
      break;
    case StreamKernel::Mul:
      c = {nd, nd, flops};
      break;
    case StreamKernel::Add:
      c = {2 * nd, nd, flops};
      break;
    case StreamKernel::Triad:
      c = {2 * nd, nd, 2 * flops};
      break;
    case StreamKernel::Dot:
      c = {2 * nd, 0, 2 * flops};
      break;
    case StreamKernel::Reduce:
      // One read stream (a twice, but a single load per item).
      c = {nd, 0, 2 * flops};
      break;
    case StreamKernel::Uneven: {
      // Ragged reads (avg (kUnevenTile+1)/2 per item) + one write stream.
      const double span = static_cast<double>(uneven_span_total(n));
      c = {span * sizeof(double), nd, span};
      break;
    }
  }
  return c;
}

double stream_bytes(StreamKernel k, std::size_t n) noexcept {
  return costs_for(k, n).total_bytes();
}

StreamScalars stream_scalars(int reps) noexcept {
  StreamScalars v{kInitA, kInitB, kInitC};
  for (int r = 0; r < reps; ++r) {
    v.c = v.a;                    // copy
    v.b = kScalar * v.c;          // mul
    v.c = v.a + v.b;              // add
    v.a = v.b + kScalar * v.c;    // triad
  }
  return v;
}

namespace {

[[nodiscard]] bool close(double x, double y, double tol) {
  const double scale = std::max({std::fabs(x), std::fabs(y), 1e-30});
  return std::fabs(x - y) / scale < tol;
}

}  // namespace

bool verify_stream(const std::vector<double>& a, const std::vector<double>& b,
                   const std::vector<double>& c, double dot, std::size_t n,
                   int reps) {
  const StreamScalars v = stream_scalars(reps);
  for (std::size_t i = 0; i < n; ++i) {
    if (!close(a[i], v.a, 1e-8) || !close(b[i], v.b, 1e-8) ||
        !close(c[i], v.c, 1e-8)) {
      return false;
    }
  }
  // Dot accumulates n terms; allow a looser relative tolerance.
  const double expected_dot = v.a * v.b * static_cast<double>(n);
  const double scale = std::max(std::fabs(expected_dot), 1e-30);
  return std::fabs(dot - expected_dot) / scale < 1e-6;
}

bool verify_suite(const std::vector<double>& a, const std::vector<double>& b,
                  const std::vector<double>& c,
                  const std::vector<double>& totals, std::size_t n,
                  int reps) {
  // Uneven clobbers c with tile prefix sums of the post-triad a; the next
  // repetition's copy rewrites c before mul reads it, so the classic a/b
  // recurrence is untouched.
  const StreamScalars v = stream_scalars(reps);
  for (std::size_t i = 0; i < n; ++i) {
    const double span = static_cast<double>(i % kUnevenTile + 1);
    if (!close(a[i], v.a, 1e-8) || !close(b[i], v.b, 1e-8) ||
        !close(c[i], span * v.a, 1e-8)) {
      return false;
    }
  }
  const double nd = static_cast<double>(n);
  for (std::size_t t = 0; t + 1 < totals.size(); t += 2) {
    if (!close(totals[t], v.a * v.b * nd, 1e-6) ||
        !close(totals[t + 1], v.a * v.a * nd, 1e-6)) {
      return false;
    }
  }
  return true;
}

std::vector<StreamResult> run_stream(StreamBenchmark& bench, std::size_t n,
                                     int reps) {
  bench.alloc(n);
  {
    gpusim::KernelLabelScope label("Init");
    bench.init_arrays();
  }

  constexpr int kKernelCount = 5;
  double best[kKernelCount];
  std::fill(best, best + kKernelCount, std::numeric_limits<double>::max());
  double dot_value = 0.0;

  for (int r = 0; r < reps; ++r) {
    // Label the kernels for gpuprof (NVTX-style; no-op unless a profiler
    // is installed — the labels make the per-kernel roofline attribution
    // read "Triad" instead of an anonymous launch).
    double t0 = bench.simulated_time_us();
    {
      gpusim::KernelLabelScope label("Copy");
      bench.copy();
    }
    double t1 = bench.simulated_time_us();
    {
      gpusim::KernelLabelScope label("Mul");
      bench.mul();
    }
    double t2 = bench.simulated_time_us();
    {
      gpusim::KernelLabelScope label("Add");
      bench.add();
    }
    double t3 = bench.simulated_time_us();
    {
      gpusim::KernelLabelScope label("Triad");
      bench.triad();
    }
    double t4 = bench.simulated_time_us();
    {
      gpusim::KernelLabelScope label("Dot");
      dot_value = bench.dot();
    }
    double t5 = bench.simulated_time_us();

    const double durations[kKernelCount] = {t1 - t0, t2 - t1, t3 - t2,
                                            t4 - t3, t5 - t4};
    for (int k = 0; k < kKernelCount; ++k) {
      best[k] = std::min(best[k], durations[k]);
    }
  }

  std::vector<double> a(n), b(n), c(n);
  bench.read_arrays(a, b, c);
  const bool ok = verify_stream(a, b, c, dot_value, n, reps);

  std::vector<StreamResult> results;
  const StreamKernel kernels[kKernelCount] = {
      StreamKernel::Copy, StreamKernel::Mul, StreamKernel::Add,
      StreamKernel::Triad, StreamKernel::Dot};
  for (int k = 0; k < kKernelCount; ++k) {
    StreamResult res;
    res.label = bench.label();
    res.vendor = bench.vendor();
    res.kernel = kernels[k];
    res.n = n;
    res.best_time_us = best[k];
    res.bandwidth_gbps =
        stream_bytes(kernels[k], n) / (best[k] * 1e3);  // B/us -> GB/s
    res.verified = ok;
    results.push_back(std::move(res));
  }
  return results;
}

std::string format_stream_table(const std::vector<StreamResult>& results) {
  std::ostringstream out;
  out << std::left << std::setw(26) << "Route" << std::setw(8) << "Vendor"
      << std::setw(7) << "Kernel" << std::right << std::setw(12)
      << "Best us" << std::setw(12) << "GB/s" << std::setw(10) << "Verified"
      << "\n";
  out << std::string(75, '-') << "\n";
  out << std::fixed << std::setprecision(1);
  for (const StreamResult& r : results) {
    out << std::left << std::setw(26) << r.label << std::setw(8)
        << to_string(r.vendor) << std::setw(7) << to_string(r.kernel)
        << std::right << std::setw(12) << r.best_time_us << std::setw(12)
        << r.bandwidth_gbps << std::setw(10) << (r.verified ? "yes" : "NO")
        << "\n";
  }
  return out.str();
}

std::string format_stream_csv(const std::vector<StreamResult>& results) {
  std::ostringstream out;
  out << "route,vendor,kernel,n,best_time_us,bandwidth_gbps,verified\n";
  out << std::fixed << std::setprecision(3);
  for (const StreamResult& r : results) {
    out << r.label << ',' << to_string(r.vendor) << ','
        << to_string(r.kernel) << ',' << r.n << ',' << r.best_time_us << ','
        << r.bandwidth_gbps << ',' << (r.verified ? 1 : 0) << "\n";
  }
  return out.str();
}

}  // namespace mcmm::bench
