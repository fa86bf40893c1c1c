// Per-layer probes of the traced run. Each one times calls into a single
// layer's public functions from here, the benchmark's own code, on the
// workload's own request bytes or on launch-bound shapes; nothing is
// instrumented inside the program.

#include <arpa/inet.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_support/stream.hpp"
#include "campaign_reference.hpp"
#include "data/dataset.hpp"
#include "gpuprof/gpuprof.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/graph.hpp"
#include "loadgen.hpp"
#include "names.hpp"
#include "models/accx/accx.hpp"
#include "models/alpakax/alpakax.hpp"
#include "models/cudax/cudax.hpp"
#include "models/hipx/hipx.hpp"
#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "models/syclx/syclx.hpp"
#include "perfport/perfport.hpp"
#include "pstlx/pstlx.hpp"
#include "serve/api.hpp"
#include "workloads.hpp"

namespace mcmm::bm {
namespace {

constexpr int kReps = 5;
/// Calls per repetition of the launch-overhead probes.
constexpr std::uint64_t kLaunches = 2000;
/// Items per empty fork-join dispatch: a few hundred, so dispatch
/// outweighs the body.
constexpr std::size_t kDispatchItems = 256;
/// The simulation probes normally finish in about fifteen seconds.
constexpr int kSimProbeDeadlineS = 60;
/// The line the probe process reports for the campaign check: 1 when a
/// default campaign reproduced campaign_reference.hpp, else 0.
constexpr const char* kReferenceCheck = "check.campaign_reference";

/// "" when `report` (a default campaign plus its weak-scaling pass) and its
/// report_json bytes reproduce campaign_reference.hpp, else what differs,
/// in the form the reference records.
std::string reference_mismatch(const perfport::PerfReport& report,
                               const std::string& json) {
  double sim_us = 0;
  std::uint64_t launches = 0;
  std::size_t unverified = 0;
  for (const perfport::RouteSample& s : report.samples) {
    sim_us += s.sim_us;
    launches += s.launches;
    if (!s.verified) ++unverified;
  }
  for (const perfport::WeakScalingSample& w : report.weak_scaling) {
    sim_us += w.sim_us;
    if (!w.verified) ++unverified;
  }
  const std::string etag = serve::etag_for(json);
  if (etag == reference::kReportEtag && sim_us == reference::kSimUs &&
      launches == reference::kLaunches &&
      report.samples.size() == reference::kSamples &&
      report.weak_scaling.size() == reference::kWeakPoints &&
      unverified == 0) {
    return "";
  }
  char sim[64];
  std::snprintf(sim, sizeof sim, "%a", sim_us);
  return "campaign differs from campaign_reference.hpp: report " + etag +
         ", sim_us " + sim + ", launches " + std::to_string(launches) +
         ", samples " + std::to_string(report.samples.size()) +
         ", weak points " + std::to_string(report.weak_scaling.size()) +
         ", unverified " + std::to_string(unverified);
}

/// Median over kReps of the mean ns per call of `iters` calls of `f`,
/// after one untimed warm-up pass.
template <typename F>
double ns_per_call(std::uint64_t iters, F&& f) {
  for (std::uint64_t i = 0; i < iters; ++i) f(i);
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) f(i);
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                   static_cast<double>(iters));
  }
  return median(std::move(reps));
}

/// Plain TCP exchange of the same byte sizes as the workload's requests
/// and responses: the loopback floor no server design can beat.
double loopback_rtt_us(
    const std::vector<std::pair<std::size_t, std::size_t>>& sizes) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (lfd >= 0) ::close(lfd);
    throw std::runtime_error("loopback probe: cannot listen");
  }
  const auto io = [](int fd, std::string& buf, std::size_t n, bool send) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t k =
          send ? ::send(fd, buf.data() + done, n - done, MSG_NOSIGNAL)
               : ::recv(fd, buf.data() + done, n - done, 0);
      if (k <= 0) return false;
      done += static_cast<std::size_t>(k);
    }
    return true;
  };
  std::size_t biggest = 1;
  for (const auto& [q, r] : sizes) biggest = std::max({biggest, q, r});
  std::thread echo([&, lfd] {
    const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::string buf(biggest, 'x');
    for (const auto& [q, r] : sizes) {
      if (!io(fd, buf, q, false) || !io(fd, buf, r, true)) break;
    }
    ::close(fd);
  });
  std::vector<double> rtt;
  const int fd = connect_loopback(ntohs(addr.sin_port));
  if (fd >= 0) {
    std::string buf(biggest, 'x');
    for (const auto& [q, r] : sizes) {
      const auto t0 = Clock::now();
      if (!io(fd, buf, q, true) || !io(fd, buf, r, false)) break;
      rtt.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    ::close(fd);
  }
  echo.join();
  ::close(lfd);
  if (rtt.size() != sizes.size()) {
    throw std::runtime_error("loopback probe: exchange failed");
  }
  return median(std::move(rtt));
}

}  // namespace

void probe_serve_layers(const RequestMix& mix, const RequestMix& gets,
                        const RequestMix& plans, MetricList& out) {
  constexpr std::uint64_t kRequests = 4096;
  const serve::Api api(data::paper_matrix());
  // The first kRequests of each schedule, so costs are mix-weighted.
  std::vector<const std::string*> wires;
  std::vector<serve::Response> resps;
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  std::vector<serve::Request> get_reqs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    wires.push_back(&mix.request(i).wire);
    resps.push_back(api.handle(parse_request(*wires.back())));
    sizes.emplace_back(wires.back()->size(),
                       serve::serialize_response(resps.back(), false, true)
                           .size());
    get_reqs.push_back(parse_request(gets.request(i).wire));
  }
  std::vector<serve::Request> plan_reqs;
  for (const RequestTemplate& t : plans.templates()) {
    plan_reqs.push_back(parse_request(t.wire));
  }

  std::size_t sink = 0;
  out.add("serve.parse_ns", ns_per_call(kRequests, [&](std::uint64_t i) {
            serve::RequestParser parser;
            (void)parser.feed(*wires[i]);
            sink += parser.take_request().target.size();
          }),
          "ns");
  out.add("serve.api_lookup_ns",
          ns_per_call(get_reqs.size(), [&](std::uint64_t i) {
            sink += api.handle(get_reqs[i]).body.size();
          }),
          "ns");
  out.add("serve.api_plan_us",
          ns_per_call(plan_reqs.size(),
                      [&](std::uint64_t i) {
                        sink += api.handle(plan_reqs[i]).body.size();
                      }) /
              1e3,
          "us");
  out.add("serve.serialize_ns", ns_per_call(kRequests, [&](std::uint64_t i) {
            sink += serve::serialize_response(resps[i], false, true).size();
          }),
          "ns");
  if (sink == 0) throw std::runtime_error("serve probes produced nothing");
  out.add("serve.loopback_rtt_us", loopback_rtt_us(sizes), "us");
}

int sim_probe_main(int report_fd) {
  MetricList out;
  std::size_t sent = 0;
  // Each finished group is reported at once, so a probe that hangs keeps
  // what was measured before it.
  const auto flush = [&] {
    std::string lines;
    for (; sent < out.items().size(); ++sent) {
      const Metric& m = out.items()[sent];
      lines += m.name + " " + json_number(m.value) + " " + m.unit + "\n";
    }
    for (std::size_t off = 0; off < lines.size();) {
      const ssize_t n =
          ::write(report_fd, lines.data() + off, lines.size() - off);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  };
  const gpusim::KernelCosts empty{};

  // Launch overhead without the fork-join engine (one work item).
  {
    gpusim::Device dev(gpusim::tiny_test_device(std::size_t{1} << 20));
    gpusim::Queue& q = dev.default_queue();
    const gpusim::LaunchConfig one = gpusim::launch_1d(1, 1);
    const auto launch = [&](std::uint64_t) {
      (void)q.launch(one, empty, [](const gpusim::WorkItem&) {});
    };
    const double untraced = ns_per_call(kLaunches, launch);
    out.add("gpusim.queue_launch_ns", untraced, "ns");
    gpuprof::Config cfg;
    cfg.max_events = (kReps + 1) * kLaunches + 1024;
    gpuprof::reset();
    gpuprof::enable(cfg);
    const double traced = ns_per_call(kLaunches, launch);
    (void)gpuprof::finalize();
    gpuprof::reset();
    out.add("gpuprof.hook_ns", traced - untraced, "ns");
  }
  flush();

  {
    constexpr std::size_t n = std::size_t{1} << 20;
    gpusim::Device dev(gpusim::tiny_test_device(std::size_t{1} << 26));
    gpusim::Queue& q = dev.default_queue();
    auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
    std::vector<double> host(n, 1.0);
    const double ns = ns_per_call(8, [&](std::uint64_t) {
      (void)q.memcpy(d, host.data(), n * sizeof(double),
                     gpusim::CopyKind::HostToDevice);
      (void)q.memcpy(host.data(), d, n * sizeof(double),
                     gpusim::CopyKind::DeviceToHost);
    });
    dev.deallocate(d);
    out.add("gpusim.memcpy_gbps", 2.0 * n * sizeof(double) / ns, "GB/s");
  }
  flush();

  {
    // Two body types alternate, so no run of same-body single-item nodes
    // exists for replay to fuse: every node is dispatched on its own.
    constexpr std::uint64_t kNodes = 8192;
    gpusim::Device dev(gpusim::tiny_test_device(std::size_t{1} << 20));
    gpusim::Queue& q = dev.default_queue();
    const gpusim::LaunchConfig one = gpusim::launch_1d(1, 1);
    gpusim::Graph graph;
    q.begin_capture(graph);
    for (std::uint64_t i = 0; i < kNodes; i += 2) {
      (void)q.launch(one, empty, [](const gpusim::WorkItem&) {});
      (void)q.launch(one, empty, [i](const gpusim::WorkItem&) { (void)i; });
    }
    (void)q.end_capture();
    std::vector<double> inst;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      gpusim::ExecutableGraph exec(graph, q);
      inst.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    out.add("gpusim.graph_instantiate_us", median(inst), "us");
    gpusim::ExecutableGraph exec(graph, q);
    out.add("gpusim.graph_replay_ns_per_node",
            ns_per_call(4, [&](std::uint64_t) { (void)exec.replay(q); }) /
                kNodes,
            "ns");
  }
  flush();

  // --- stream bodies at 2^20 through the CUDA route ------------------------
  {
    constexpr std::size_t n = std::size_t{1} << 20;
    auto routes = bench::stream_benchmarks_for(Vendor::NVIDIA);
    bench::StreamBenchmark& r = *routes.front();
    r.alloc(n);
    r.init_arrays();
    double sink = 0;
    const auto gbps = [&](bench::StreamKernel k, auto&& call) {
      const double ns = ns_per_call(3, [&](std::uint64_t) { call(); });
      return bench::stream_bytes(k, n) / ns;
    };
    using K = bench::StreamKernel;
    out.add("stream.copy.host_gbps", gbps(K::Copy, [&] { r.copy(); }), "GB/s");
    out.add("stream.mul.host_gbps", gbps(K::Mul, [&] { r.mul(); }), "GB/s");
    out.add("stream.add.host_gbps", gbps(K::Add, [&] { r.add(); }), "GB/s");
    out.add("stream.triad.host_gbps", gbps(K::Triad, [&] { r.triad(); }),
            "GB/s");
    out.add("stream.dot.host_gbps", gbps(K::Dot, [&] { sink += r.dot(); }),
            "GB/s");
    out.add("stream.reduce.host_gbps",
            gbps(K::Reduce, [&] { sink += r.reduce(); }), "GB/s");
    out.add("stream.uneven.host_gbps", gbps(K::Uneven, [&] { r.uneven(); }),
            "GB/s");
    if (!(sink == sink)) throw std::runtime_error("stream probe: NaN");
  }
  flush();

  // --- pstlx on the pSTL Dot/Reduce route ----------------------------------
  {
    constexpr std::size_t n = std::size_t{1} << 20;
    const stdparx::execution_policy pol(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
    stdparx::device_vector<double> a(pol, n);
    stdparx::device_vector<double> b(pol, n);
    stdparx::fill(pol, a.begin(), a.end(), bench::kInitA);
    stdparx::fill(pol, b.begin(), b.end(), bench::kInitB);
    double sink = 0;
    out.add("pstlx.transform_reduce_us", ns_per_call(4, [&](std::uint64_t) {
              sink += pstlx::transform_reduce(pol, a.begin(), a.end(), b.begin(),
                                              0.0);
            }) / 1e3,
            "us");
    if (!(sink > 0)) throw std::runtime_error("pstlx probe: wrong sum");
  }
  flush();

  // --- perfport --------------------------------------------------------------
  {
    perfport::CampaignConfig one;
    one.sizes = {std::size_t{1} << 20};
    one.vendors = {Vendor::NVIDIA};
    one.schedules = {gpusim::Schedule::Static};
    one.models = {Model::CUDA};
    std::vector<double> suite;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      (void)perfport::run_campaign(one);
      suite.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    out.add("perfport.suite_ms", median(suite), "ms");

    perfport::PerfReport campaign = perfport::run_campaign();
    campaign.weak_scaling = perfport::run_weak_scaling();
    const perfport::PerfReport* report = &campaign;
    const std::string mismatch =
        reference_mismatch(campaign, perfport::report_json(campaign));
    if (!mismatch.empty()) std::fprintf(stderr, "%s\n", mismatch.c_str());
    out.add(kReferenceCheck, mismatch.empty() ? 1.0 : 0.0, "count");
    out.add("perfport.build_rows_us", ns_per_call(3, [&](std::uint64_t) {
              (void)perfport::build_rows(report->samples, report->config.vendors,
                                         report->config.sizes.back());
            }) / 1e3,
            "us");
    out.add("perfport.report_json_ms", ns_per_call(2, [&](std::uint64_t) {
              (void)perfport::report_json(*report);
            }) / 1e6,
            "ms");
    double launches = 0;
    double verified = 0;
    for (const perfport::RouteSample& s : report->samples) {
      launches += static_cast<double>(s.launches);
      verified += s.verified ? 1 : 0;
    }
    out.add("perfport.launches", launches, "count");
    out.add("perfport.samples_verified", verified, "count");
  }
  flush();

  // Tiny fork-join dispatches last: they can hang the engine (README.md,
  // "Known defect"), and by now everything else has been reported.
  // --- models: an empty kernel through each model's own launch call -------
  {
    const cudax::dim3 one{1, 1, 1};
    out.add("models.cuda.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              (void)cudax::cudaLaunch(one, one, empty,
                                      static_cast<cudax::cudaStream_t>(nullptr),
                                      [](const cudax::KernelCtx&) {});
            }),
            "ns");
    const hipx::Platform saved = hipx::platform();
    hipx::set_platform(hipx::Platform::amd);
    out.add("models.hip.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              (void)hipx::hipLaunchKernelGGL([](const hipx::KernelCtx&) {}, one,
                                             one, empty,
                                             static_cast<hipx::hipStream_t>(nullptr));
            }),
            "ns");
    hipx::set_platform(saved);
    syclx::queue sq(Vendor::Intel, syclx::Implementation::DPCpp);
    out.add("models.sycl.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              (void)sq.parallel_for(syclx::range{1}, empty, [](syclx::id) {});
            }),
            "ns");
    ompx::TargetDevice omp(Vendor::NVIDIA, ompx::Compiler::NVHPC);
    out.add("models.omp.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              ompx::target_teams_distribute_parallel_for(omp, 1, empty,
                                                         [](std::size_t) {});
            }),
            "ns");
    accx::Accelerator acc(Vendor::NVIDIA, accx::Compiler::NVHPC);
    out.add("models.acc.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              acc.parallel_loop(1, empty, [](std::size_t) {});
            }),
            "ns");
    const stdparx::execution_policy pol(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
    stdparx::device_vector<double> v(pol, 1);
    out.add("models.stdpar.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              stdparx::for_each(pol, v.begin(), v.end(), [](double&) {});
            }),
            "ns");
    kokkosx::Execution kk(kokkosx::ExecSpace::Cuda, Vendor::NVIDIA);
    out.add("models.kokkos.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              kokkosx::parallel_for(kk, kokkosx::RangePolicy{0, 1}, empty,
                                    [](std::size_t) {});
            }),
            "ns");
    alpakax::Queue<alpakax::AccGpuCudaRt> aq;
    out.add("models.alpaka.launch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
              alpakax::exec(aq, alpakax::WorkDiv{1, 1}, empty,
                            [](const alpakax::AccCtx&) {});
            }),
            "ns");
  }
  flush();

  gpusim::ThreadPool& pool = gpusim::ThreadPool::global();
  out.add("gpusim.pool_dispatch_ns", ns_per_call(kLaunches, [&](std::uint64_t) {
            pool.parallel_for_chunks(kDispatchItems,
                                     [](std::uint64_t, std::uint64_t) {});
          }),
          "ns");
  flush();
  return 0;
}

void run_simulation_probes(RunOutput& run) {
  int fd = -1;
  const pid_t pid = spawn_self("sim-probe", nullptr, &fd);
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(kSimProbeDeadlineS);
  bool hung = false;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      hung = true;
      break;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ::kill(-pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  MetricList got;
  std::istringstream in(text);
  std::string name;
  std::string value;
  std::string unit;
  while (in >> name >> value >> unit) {
    got.add(name, std::strtod(value.c_str(), nullptr), unit);
  }
  for (const MetricSpec& spec : kPerLayer) {
    const std::string_view n = spec.name;
    bool simulated = false;
    for (const std::string_view layer :
         {"gpusim.", "models.", "stream.", "gpuprof.", "pstlx.", "perfport."}) {
      simulated = simulated || n.rfind(layer, 0) == 0;
    }
    if (!simulated) continue;
    const Metric* found = nullptr;
    for (const Metric& m : got.items()) {
      if (m.name == n) found = &m;
    }
    if (found == nullptr) {
      const std::string why =
          hung ? "hung past the deadline"
          : WIFSIGNALED(status)
              ? "died of signal " + std::to_string(WTERMSIG(status))
              : "exited with code " + std::to_string(WEXITSTATUS(status));
      throw std::runtime_error("simulation probe " + std::string(n) +
                               " did not report: the probe process " + why);
    }
    run.metrics.add(std::string(n), found->value, std::string(spec.unit));
  }
  const Metric* check = nullptr;
  for (const Metric& m : got.items()) {
    if (m.name == kReferenceCheck) check = &m;
  }
  if (check == nullptr) {
    throw std::runtime_error("the campaign reference check did not report");
  }
  ++run.attempted;
  if (check->value != 1.0) {
    ++run.failed;
    if (run.first_failure.empty()) {
      run.first_failure =
          "the default campaign differs from campaign_reference.hpp (the "
          "probe process printed the new values on stderr)";
    }
  }
}

}  // namespace mcmm::bm
