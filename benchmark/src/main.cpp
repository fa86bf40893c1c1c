// mcmm_benchmark: the repository's layered benchmark.
//
//   mcmm_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--commit <id>]
//   mcmm_benchmark --list-metrics
//
// Runs one workload, checks its outputs, and prints one metadata line and
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the
// workload half untraced and half traced and adds the per-layer probes.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "names.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#if defined(__clang__)
#define MCMM_BENCH_COMPILER "clang " __clang_version__
#else
#define MCMM_BENCH_COMPILER "gcc " __VERSION__
#endif
#ifndef MCMM_BENCH_BUILD_TYPE
#define MCMM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using mcmm::bm::json_number;
using mcmm::serve::json_quote;
using mcmm::bm::kEndToEnd;
using mcmm::bm::kPerLayer;
using mcmm::bm::kWorkloads;

int usage() {
  std::cerr << "usage: mcmm_benchmark --workload <serve-lookup|serve-plan> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>]\n"
               "       mcmm_benchmark --list-metrics\n";
  return 2;
}

void list_metrics() {
  const auto list = [](const auto& specs) {
    std::string out = "[";
    for (const mcmm::bm::MetricSpec& m : specs) {
      if (out.size() > 1) out += ',';
      out += "{\"name\":" + json_quote(m.name) +
             ",\"unit\":" + json_quote(m.unit) + "}";
    }
    return out + "]";
  };
  std::string workloads = "[";
  for (const std::string_view w : kWorkloads) {
    if (workloads.size() > 1) workloads += ',';
    workloads += json_quote(w);
  }
  std::cout << "{\"workloads\":" << workloads
            << "],\"end_to_end\":" << list(kEndToEnd)
            << ",\"per_layer\":" << list(kPerLayer) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 4 && args[0] == "--role" && args[2] == "--report-fd") {
    const int fd = std::atoi(args[3].c_str());
    if (args[1] == "sim-probe") return mcmm::bm::sim_probe_main(fd);
    return mcmm::bm::server_process_main(args[1], fd);
  }
  if (args.size() == 1 && args[0] == "--list-metrics") {
    list_metrics();
    return 0;
  }

  mcmm::bm::RunArgs run;
  std::string commit = "unknown";
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(run.seconds > 0) || run.seconds > 600) {
        return usage();
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage();
      run.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const std::string_view w : kWorkloads) {
    known = known || w == run.workload;
  }
  if (!have_workload || !known) return usage();

  mcmm::bm::RunOutput out;
  try {
    out = mcmm::bm::run_serving(run, run.workload == "serve-plan");
  } catch (const std::exception& e) {
    std::cerr << "mcmm_benchmark: " << e.what() << "\n";
    return 1;
  }
  if (out.attempted == 0) {
    std::cerr << "mcmm_benchmark: the workload attempted nothing\n";
    return 1;
  }
  out.metrics.add("error_rate",
                  static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
                  "ratio");

  std::string metrics = "{";
  const auto emit = [&](const auto& specs) {
    for (const mcmm::bm::MetricSpec& spec : specs) {
      const mcmm::bm::Metric* found = nullptr;
      for (const mcmm::bm::Metric& m : out.metrics.items()) {
        if (m.name == spec.name) found = &m;
      }
      if (found == nullptr || found->unit != spec.unit ||
          !mcmm::bm::valid_metric_name(spec.name)) {
        std::cerr << "mcmm_benchmark: metric " << spec.name
                  << " was not measured in " << spec.unit << "\n";
        return false;
      }
      if (metrics.size() > 1) metrics += ',';
      metrics += json_quote(spec.name) +
                 ":{\"value\":" + json_number(found->value) +
                 ",\"unit\":" + json_quote(found->unit) + "}";
    }
    return true;
  };
  if (!(run.trace ? emit(kPerLayer) : emit(kEndToEnd))) return 1;
  metrics += "}";

  std::string notes = "[";
  for (const std::string& n : out.notes) {
    if (notes.size() > 1) notes += ',';
    notes += json_quote(n);
  }
  notes += "]";
  std::cout << "# meta {\"workload\":" << json_quote(run.workload)
            << ",\"seed\":" << run.seed
            << ",\"seconds\":" << json_number(run.seconds)
            << ",\"trace\":" << (run.trace ? 1 : 0)
            << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ",\"compiler\":" << json_quote(MCMM_BENCH_COMPILER)
            << ",\"build_type\":" << json_quote(MCMM_BENCH_BUILD_TYPE)
            << ",\"commit\":" << json_quote(commit) << ",\"notes\":" << notes
            << "}\n";
  if (!out.first_failure.empty()) {
    std::cout << "# first failure: " << out.first_failure << "\n";
  }
  std::cout << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed
            << ",\"metrics\":" << metrics << "}" << std::endl;
  return 0;
}
