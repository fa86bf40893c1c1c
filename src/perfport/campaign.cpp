// The perf-portability campaign driver: every stream route the matrix
// allows, under every requested (schedule, size), measured through
// gpuprof's ProfilerHooks trace rather than fresh instrumentation.

#include <algorithm>
#include <stdexcept>

#include "bench_support/stream.hpp"
#include "gpuprof/gpuprof.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "models/stdparx/stdparx.hpp"
#include "perfport/perfport.hpp"

namespace mcmm::perfport {
namespace {

/// Route labels are "<model>(<flavor>)"; the prefix names the Fig. 1
/// column. stdpar routes belong to the Standard (pSTL) column.
[[nodiscard]] Model model_for_route(std::string_view label) {
  const auto has = [&](std::string_view prefix) {
    return label.substr(0, prefix.size()) == prefix;
  };
  if (has("CUDA")) return Model::CUDA;
  if (has("HIP")) return Model::HIP;
  if (has("SYCL")) return Model::SYCL;
  if (has("OpenMP")) return Model::OpenMP;
  if (has("OpenACC")) return Model::OpenACC;
  if (has("stdpar")) return Model::Standard;
  if (has("Kokkos")) return Model::Kokkos;
  if (has("Alpaka")) return Model::Alpaka;
  throw std::runtime_error("perfport: unknown route label: " +
                           std::string(label));
}

/// Restores the roc-stdpar experiment toggle on scope exit; the campaign
/// turns it on so the AMD pSTL route is covered, like the matrix benches.
class RocStdparGuard {
 public:
  RocStdparGuard() : saved_(stdparx::roc_stdpar_enabled()) {
    stdparx::enable_experimental_roc_stdpar(true);
  }
  ~RocStdparGuard() { stdparx::enable_experimental_roc_stdpar(saved_); }
  RocStdparGuard(const RocStdparGuard&) = delete;
  RocStdparGuard& operator=(const RocStdparGuard&) = delete;

 private:
  bool saved_;
};

/// One (route, schedule, size) measurement: the suite runs under
/// gpuprof::capture_trace and each kernel's roofline row comes out of the
/// trace's kernel summaries. The pSTL route expresses Copy as std::copy —
/// a device-to-device memcpy with no kernel row — so its Copy summary is
/// rebuilt from the capture's D2D copy events (same declared traffic).
struct SuiteRun {
  std::vector<gpuprof::KernelSummary> summaries;
  bool verified{false};
};

[[nodiscard]] SuiteRun run_suite(bench::StreamBenchmark& bench,
                                 std::size_t n, int reps,
                                 gpusim::Schedule schedule) {
  bench.set_schedule(schedule);
  double dot_value = 0.0;
  double reduce_value = 0.0;
  std::vector<double> a, b, c;
  const gpuprof::Trace trace = gpuprof::capture_trace([&] {
    bench.alloc(n);
    {
      gpusim::KernelLabelScope label("Init");
      bench.init_arrays();
    }
    for (int r = 0; r < reps; ++r) {
      {
        gpusim::KernelLabelScope label("Copy");
        bench.copy();
      }
      {
        gpusim::KernelLabelScope label("Mul");
        bench.mul();
      }
      {
        gpusim::KernelLabelScope label("Add");
        bench.add();
      }
      {
        gpusim::KernelLabelScope label("Triad");
        bench.triad();
      }
      {
        gpusim::KernelLabelScope label("Dot");
        dot_value = bench.dot();
      }
      {
        gpusim::KernelLabelScope label("Reduce");
        reduce_value = bench.reduce();
      }
      {
        gpusim::KernelLabelScope label("Uneven");
        bench.uneven();
      }
    }
    bench.read_arrays(a, b, c);
  });

  SuiteRun run;
  run.summaries = trace.kernel_summaries();
  const bool has_copy =
      std::any_of(run.summaries.begin(), run.summaries.end(),
                  [](const gpuprof::KernelSummary& s) {
                    return s.name == "Copy";
                  });
  if (!has_copy) {
    gpuprof::KernelSummary copy;
    copy.name = "Copy";
    for (const gpuprof::TraceEvent& e : trace.events) {
      if (e.kind != gpuprof::OpKind::MemcpyD2D) continue;
      copy.vendor = e.vendor;
      copy.device = e.device;
      copy.model = e.model;
      ++copy.launches;
      copy.bytes += e.total_bytes();
      copy.sim_us += e.sim_duration_us();
      copy.pct_of_peak = e.peak_gbps;  // holds peak until fixed below
    }
    const double peak = copy.pct_of_peak;
    copy.achieved_gbps =
        copy.sim_us > 0 ? copy.bytes / (copy.sim_us * 1e3) : 0.0;
    copy.pct_of_peak =
        peak > 0 ? 100.0 * copy.achieved_gbps / peak : 0.0;
    run.summaries.push_back(std::move(copy));
  }
  run.verified =
      bench::verify_suite(a, b, c, {dot_value, reduce_value}, n, reps);
  return run;
}

[[nodiscard]] const gpuprof::KernelSummary& summary_for(
    const SuiteRun& run, const std::string& route, PerfKernel kernel) {
  const std::string_view name = to_string(kernel);
  for (const gpuprof::KernelSummary& s : run.summaries) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("perfport: route " + route +
                           " produced no roofline row for kernel " +
                           std::string(name));
}

template <typename T>
[[nodiscard]] bool wanted(const std::vector<T>& filter, T value) {
  return filter.empty() ||
         std::find(filter.begin(), filter.end(), value) != filter.end();
}

}  // namespace

PerfReport run_campaign(const CampaignConfig& config) {
  if (config.sizes.empty() || config.reps < 1 || config.vendors.empty() ||
      config.schedules.empty()) {
    throw std::invalid_argument("perfport: empty campaign dimension");
  }
  const RocStdparGuard roc_guard;

  PerfReport report;
  report.config = config;

  for (const Vendor vendor : config.vendors) {
    bool counted_routes = false;
    const std::size_t n_routes = bench::stream_benchmarks_for(vendor).size();
    for (const std::size_t n : config.sizes) {
      for (const gpusim::Schedule schedule : config.schedules) {
        for (std::size_t i = 0; i < n_routes; ++i) {
          // A pristine device (simulated clock at zero) per suite: every
          // sample depends only on (route, kernel, n, reps), never on what
          // ran before it. Without the reset the shared Platform device's
          // clock carries across suites and (t + d) - t rounds differently
          // at each epoch, breaking bitwise schedule invariance. The reset
          // must precede benchmark construction — model runtimes capture
          // the Device pointer in their constructors.
          gpusim::Platform::instance().reset_device(
              vendor, gpusim::descriptor_for(vendor));
          const auto benches = bench::stream_benchmarks_for(vendor);
          bench::StreamBenchmark* bench_ptr = benches[i].get();
          const std::string route = bench_ptr->label();
          const Model model = model_for_route(route);
          if (!wanted(config.models, model)) continue;
          if (!counted_routes) ++report.route_count;

          const SuiteRun run =
              run_suite(*bench_ptr, n, config.reps, schedule);
          for (const PerfKernel kernel : kAllPerfKernels) {
            if (!wanted(config.kernels, kernel)) continue;
            const gpuprof::KernelSummary& s =
                summary_for(run, route, kernel);
            RouteSample sample;
            sample.route = route;
            sample.model = model;
            sample.vendor = vendor;
            sample.schedule = std::string(to_string(schedule));
            sample.kernel = kernel;
            sample.n = n;
            sample.launches = s.launches;
            sample.sim_us = s.sim_us;
            sample.achieved_gbps = s.achieved_gbps;
            sample.pct_of_peak = s.pct_of_peak;
            sample.peak_gbps =
                s.pct_of_peak > 0
                    ? s.achieved_gbps * 100.0 / s.pct_of_peak
                    : 0.0;
            sample.verified = run.verified;
            report.samples.push_back(std::move(sample));
          }
        }
        counted_routes = true;
      }
    }
  }

  report.rows = build_rows(report.samples, config.vendors,
                           config.sizes.back());
  return report;
}

}  // namespace mcmm::perfport
