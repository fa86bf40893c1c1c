#pragma once
// The two serving workloads and the layer probes. Each workload's reason
// for existing is stated next to its runner in serving.cpp.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"

namespace mcmm::bm {

struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

struct RunOutput {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string first_failure;
  MetricList metrics;
  /// Workload-specific lines for the result's metadata.
  std::vector<std::string> notes;
};

/// serve-lookup (plans == false) and serve-plan (plans == true).
[[nodiscard]] RunOutput run_serving(const RunArgs& args, bool plans);

/// Entry of the re-executed server process: `serve` runs one
/// serve::Server, `cluster` forks 3 serve replicas behind a
/// gateway::Gateway (the `mcmm cluster 3` shape). Writes its port and the
/// replicas' ports to `report_fd`, then serves until SIGTERM.
int server_process_main(const std::string& kind, int report_fd);

/// A server-side process tree started from this binary.
class ServerProcess {
 public:
  /// Starts `kind` and waits until it is ready: /healthz answers (serve),
  /// or /gateway/replicas lists 3 healthy replicas that each answered a
  /// health probe (cluster). Throws std::runtime_error on failure.
  explicit ServerProcess(const std::string& kind);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM, wait for a clean exit, SIGKILL the process group if needed.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::vector<std::uint16_t>& replica_ports()
      const noexcept {
    return replica_ports_;
  }
  /// Seconds from fork until ready.
  [[nodiscard]] double setup_seconds() const noexcept { return setup_s_; }
  /// CPU nanoseconds of the started process (not of forked replicas).
  [[nodiscard]] std::uint64_t cpu_ns() const;
  /// High-water RSS of the started process, MiB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  pid_t pid_{-1};
  std::uint16_t port_{0};
  std::vector<std::uint16_t> replica_ports_;
  double setup_s_{0};
};

/// The layer probes of a traced run: each times calls into one layer's
/// public functions from the benchmark's own code. Closed-loop probes send
/// the workload's own mix (plan queries when `plans`); the gateway
/// counters come from the probes' own cluster. Every probe answer and the
/// campaign's reference check count in `run.attempted`, and every wrong one
/// in `run.failed`. Throws std::runtime_error when a simulation probe does
/// not report, so no missing measurement is printed as a value.
void run_layer_probes(std::uint64_t seed, bool plans, RunOutput& run);
/// serve.* in-process probes: parse, serialize and the loopback echo floor
/// over `mix` (the workload's), Api::handle over `gets` and `plans`.
void probe_serve_layers(const RequestMix& mix, const RequestMix& gets,
                        const RequestMix& plans, MetricList& out);
/// gpusim, model, stream, gpuprof, pstlx and perfport probes, run in a
/// re-executed child under a deadline, plus one check of a default
/// campaign against campaign_reference.hpp. Throws std::runtime_error
/// naming the first probe that did not report.
void run_simulation_probes(RunOutput& run);
/// Entry of `--role sim-probe`: runs those probes and writes one
/// "name value unit" line per metric to `report_fd`.
int sim_probe_main(int report_fd);

/// Forks and re-executes this binary as `--role <role> --report-fd <fd>`
/// in its own process group (killed if this process dies), optionally
/// pinned to `cpus`. Returns the child's pid; `*read_fd` is the read end
/// of the child's report pipe.
pid_t spawn_self(const std::string& role, const cpu_set_t* cpus, int* read_fd);

}  // namespace mcmm::bm
