// The serving workload: an open loop at a fixed offered rate into one
// `mcmm serve` process (serve-lookup), and the server processes the layer
// probes start (one serve process, and a gateway in front of three forked
// serve replicas). The server side runs in a re-executed copy of this
// binary, so its CPU time and memory are measured apart from the
// generator's.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "data/dataset.hpp"
#include "gateway/gateway.hpp"
#include "gateway/supervisor.hpp"
#include "loadgen.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace mcmm::bm {
namespace {

/// Offered rate, the same for both mixes: near a quarter of one server's
/// closed-loop lookup saturation on a 4-core host, so latency is service
/// cost rather than a growing queue, yet the loop is busy enough that most
/// requests do not pay a sleeping thread's wake-up. At lower rates
/// run-to-run spread grew (3000/s: p50 IQR a third of the median over
/// five runs).
constexpr double kRate = 16000;
constexpr unsigned kConnections = 4;
/// A run measures this many segments, each against a freshly started
/// server, and reports medians over them: how a server process happens to
/// settle (thread placement) differs between starts, and one start would
/// stand for the whole run.
constexpr int kSegments = 4;
/// Cold starts timed for setup_s: one per segment plus extra start/stop
/// cycles, because one start takes a few milliseconds and a median of
/// four moved by a fifth between runs.
constexpr int kSetupStarts = 16;
constexpr double kWarmupSeconds = 0.5;

/// Splits this thread's allowed CPUs: the last one for the load
/// generator, the rest for the server side, so the spinning generator and
/// the servers never compete for a CPU and their placement is the same in
/// every run. With a single CPU both get it.
void cpu_split(cpu_set_t* generator, cpu_set_t* servers) {
  cpu_set_t all;
  CPU_ZERO(&all);
  ::sched_getaffinity(0, sizeof all, &all);
  *generator = all;
  *servers = all;
  if (CPU_COUNT(&all) < 2) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  CPU_ZERO(generator);
  CPU_SET(last, generator);
  CPU_CLR(last, servers);
}

std::atomic<bool> g_stop_requested{false};
serve::HttpListener* g_listener = nullptr;

extern "C" void on_server_signal(int) {
  g_stop_requested.store(true);
  if (g_listener != nullptr) g_listener->shutdown();
}

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Waits for `listener` to drain after SIGTERM (or a signal that arrived
/// before the handler could see it).
void serve_until_stopped(serve::HttpListener& listener) {
  g_listener = &listener;
  if (g_stop_requested.load()) listener.shutdown();
  listener.join();
  g_listener = nullptr;
}

/// Sum of every sample of a Prometheus family (labels ignored).
double prom_sum(const std::string& text, const std::string& family) {
  double total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp != std::string::npos) {
      total += std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  return total;
}

std::string scrape(std::uint16_t port) {
  std::string body;
  if (http_get(port, "/metrics", &body) != 200) {
    throw std::runtime_error("cannot scrape /metrics on port " +
                             std::to_string(port));
  }
  return body;
}

/// Event-loop and request counters of one serve process.
struct ServeCounters {
  double wakeups{0};
  double dispatches{0};
  double requests{0};
};

ServeCounters serve_counters_of(std::uint16_t port) {
  const std::string text = scrape(port);
  return ServeCounters{prom_sum(text, "mcmm_eventloop_wakeups_total"),
                       prom_sum(text, "mcmm_eventloop_dispatches_total"),
                       prom_sum(text, "mcmm_http_requests_total")};
}

struct GatewayCounters {
  double retries{0};
  double hedges{0};
  double hedge_wins{0};
  double budget_exhausted{0};
};

GatewayCounters gateway_counters_of(std::uint16_t port) {
  const std::string text = scrape(port);
  return GatewayCounters{
      prom_sum(text, "mcmm_gateway_retries_total"),
      prom_sum(text, "mcmm_gateway_hedges_total"),
      prom_sum(text, "mcmm_gateway_hedge_wins_total"),
      prom_sum(text, "mcmm_gateway_retry_budget_exhausted_total")};
}

void add_gateway_counters(const GatewayCounters& before,
                          const GatewayCounters& after, MetricList& out) {
  const double hedges = after.hedges - before.hedges;
  out.add("gateway.retries", after.retries - before.retries, "count");
  out.add("gateway.hedges", hedges, "count");
  out.add("gateway.hedge_win_ratio",
          hedges > 0 ? (after.hedge_wins - before.hedge_wins) / hedges : 0.0,
          "ratio");
  out.add("gateway.budget_exhausted",
          after.budget_exhausted - before.budget_exhausted, "count");
}

void add_serve_counters(const ServeCounters& before, const ServeCounters& after,
                        std::uint64_t conditional, std::uint64_t not_modified,
                        MetricList& out) {
  const double reqs = std::max(1.0, after.requests - before.requests);
  out.add("serve.wakeups_per_req", (after.wakeups - before.wakeups) / reqs,
          "count");
  out.add("serve.dispatches_per_req",
          (after.dispatches - before.dispatches) / reqs, "count");
  out.add("serve.not_modified_share",
          conditional > 0 ? static_cast<double>(not_modified) /
                                static_cast<double>(conditional)
                          : 0.0,
          "ratio");
}

/// Closed-loop pass of `count` mix requests on one connection.
struct ClosedLoop {
  double p50_us{0};
  std::uint64_t failures{0};
};

ClosedLoop closed_loop(std::uint16_t port, const RequestMix& mix,
                       std::uint64_t count) {
  BlockingClient client(port);
  ClosedLoop r;
  std::vector<double> lat;
  lat.reserve(count);
  std::string body;
  for (std::uint64_t i = 0; i < count; ++i) {
    const RequestTemplate& t = mix.request(i);
    const auto t0 = Clock::now();
    const int status = client.exchange(t.wire, &body);
    lat.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (!check_response(t, status, body).empty()) ++r.failures;
  }
  r.p50_us = median(std::move(lat));
  return r;
}

}  // namespace

// --- the re-executed server process ---------------------------------------

int server_process_main(const std::string& kind, int report_fd) {
  std::signal(SIGTERM, on_server_signal);
  std::signal(SIGINT, on_server_signal);
  try {
    if (kind == "serve") {
      serve::ServerConfig cfg;
      cfg.port = 0;
      serve::Server server(data::paper_matrix(), cfg);
      server.start();
      write_all(report_fd, std::to_string(server.port()) + "\n");
      ::close(report_fd);
      serve_until_stopped(server);
      return 0;
    }
    if (kind == "cluster") {
      // Fork the replicas before any thread exists (the gateway
      // constructor starts the health prober).
      std::vector<gateway::ReplicaProcess> replicas =
          gateway::spawn_replicas(3, gateway::SupervisorConfig{});
      std::vector<gateway::ReplicaEndpoint> backends;
      std::string report;
      for (const gateway::ReplicaProcess& r : replicas) {
        backends.push_back(gateway::ReplicaEndpoint{"127.0.0.1", r.port});
        report += ' ';
        report += std::to_string(r.port);
      }
      {
        gateway::GatewayConfig cfg;
        cfg.port = 0;
        gateway::Gateway gw(std::move(backends), cfg);
        gw.start();
        write_all(report_fd, std::to_string(gw.port()) + report + "\n");
        ::close(report_fd);
        serve_until_stopped(gw);
      }
      gateway::terminate_replicas(replicas, 5000);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server process: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "server process: unknown kind %s\n", kind.c_str());
  return 2;
}

pid_t spawn_self(const std::string& role, const cpu_set_t* cpus, int* read_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof *cpus, cpus);
    const int report = ::dup(fds[1]);  // dup drops O_CLOEXEC
    const std::string fd_arg = std::to_string(report);
    ::execl("/proc/self/exe", "mcmm_benchmark", "--role", role.c_str(),
            "--report-fd", fd_arg.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::setpgid(pid, pid);
  ::close(fds[1]);
  *read_fd = fds[0];
  return pid;
}

ServerProcess::ServerProcess(const std::string& kind) {
  cpu_set_t generator_cpus;
  cpu_set_t server_cpus;
  cpu_split(&generator_cpus, &server_cpus);
  const auto t0 = Clock::now();
  int report = -1;
  pid_ = spawn_self(kind, &server_cpus, &report);
  std::string line;
  char c = 0;
  while (::read(report, &c, 1) == 1 && c != '\n') line += c;
  ::close(report);
  if (line.empty()) {
    stop();
    throw std::runtime_error("server process (" + kind + ") did not start");
  }
  std::istringstream in(line);
  unsigned port = 0;
  in >> port;
  port_ = static_cast<std::uint16_t>(port);
  unsigned replica = 0;
  while (in >> replica) {
    replica_ports_.push_back(static_cast<std::uint16_t>(replica));
  }

  const auto deadline = t0 + std::chrono::seconds(60);
  for (;;) {
    std::string body;
    if (kind == "serve") {
      if (http_get(port_, "/healthz", &body) == 200) break;
    } else if (http_get(port_, "/gateway/replicas", &body) == 200) {
      std::size_t healthy = 0;
      std::size_t probed = 0;
      for (std::size_t p = body.find("\"health\":\"healthy\"");
           p != std::string::npos;
           p = body.find("\"health\":\"healthy\"", p + 1)) {
        ++healthy;
      }
      for (std::size_t p = body.find("\"pid\":"); p != std::string::npos;
           p = body.find("\"pid\":", p + 1)) {
        const char d = body[p + 6];
        if (d >= '1' && d <= '9') ++probed;
      }
      if (healthy == 3 && probed == 3) break;
    }
    if (Clock::now() > deadline) {
      stop();
      throw std::runtime_error("server process (" + kind + ") never ready");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  setup_s_ = seconds_between(t0, Clock::now());
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(-pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(-pid_, SIGKILL);  // stray replicas, if the supervisor died early
  pid_ = -1;
}

std::uint64_t ServerProcess::cpu_ns() const { return process_cpu_ns(pid_); }

double ServerProcess::peak_rss_mb() const { return bm::peak_rss_mb(pid_); }

// --- probes ---------------------------------------------------------------

void run_layer_probes(std::uint64_t seed, bool plans, RunOutput& run) {
  MetricList& out = run.metrics;
  constexpr std::uint64_t kRequests = 3000;
  const CompatibilityMatrix& matrix = data::paper_matrix();
  const serve::Api api(matrix);
  const RequestMix get_mix(api, matrix, seed, false);
  const RequestMix plan_mix(api, matrix, seed, true);
  const RequestMix& mix = plans ? plan_mix : get_mix;
  probe_serve_layers(mix, get_mix, plan_mix, out);

  // Direct p50 against one serve process, then the same requests against
  // one replica and through the gateway in front of it.
  ServerProcess serve("serve");
  const ClosedLoop direct = closed_loop(serve.port(), mix, kRequests);
  serve.stop();
  ServerProcess cluster("cluster");
  const ClosedLoop replica =
      closed_loop(cluster.replica_ports().front(), mix, kRequests);
  const GatewayCounters gc0 = gateway_counters_of(cluster.port());
  const ClosedLoop via_gateway = closed_loop(cluster.port(), mix, kRequests);
  add_gateway_counters(gc0, gateway_counters_of(cluster.port()), out);
  cluster.stop();
  out.add("serve.direct_p50_us", direct.p50_us, "us");
  out.add("gateway.hop_us", via_gateway.p50_us - replica.p50_us, "us");
  run.attempted += 3 * kRequests;
  run.failed += direct.failures + replica.failures + via_gateway.failures;
  if (run.failed > 0 && run.first_failure.empty()) {
    run.first_failure = "a layer probe got a wrong answer";
  }
  const double handle_us = plans ? out.get("serve.api_plan_us")
                                 : out.get("serve.api_lookup_ns") / 1e3;
  out.add("serve.transport_us",
          direct.p50_us - out.get("serve.loopback_rtt_us") - handle_us -
              (out.get("serve.parse_ns") + out.get("serve.serialize_ns")) / 1e3,
          "us");
  run_simulation_probes(run);
}

// --- the workloads ---------------------------------------------------------

namespace {

struct Window {
  LoadResult load;
  std::uint64_t cpu_ns{0};
};

/// Pins the calling thread to the generator's CPU (see cpu_split) for its
/// lifetime.
class GeneratorPin {
 public:
  GeneratorPin() {
    ::sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t generator_cpus;
    cpu_set_t server_cpus;
    cpu_split(&generator_cpus, &server_cpus);
    ::sched_setaffinity(0, sizeof generator_cpus, &generator_cpus);
  }
  ~GeneratorPin() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  GeneratorPin(const GeneratorPin&) = delete;
  GeneratorPin& operator=(const GeneratorPin&) = delete;

 private:
  cpu_set_t saved_;
};

Window measure(const ServerProcess& server, const RequestMix& mix,
               double seconds, std::uint64_t first_index) {
  LoadConfig cfg;
  cfg.port = server.port();
  cfg.connections = kConnections;
  cfg.rate = kRate;
  cfg.seconds = seconds;
  cfg.first_index = first_index;
  const GeneratorPin pin;
  const std::uint64_t cpu0 = server.cpu_ns();
  Window w;
  w.load = run_open_loop(cfg, mix);
  w.cpu_ns = server.cpu_ns() - cpu0;
  return w;
}

void add_window(const Window& w, RunOutput& run) {
  run.attempted += w.load.attempted;
  run.failed += w.load.failed;
  if (run.first_failure.empty()) run.first_failure = w.load.first_failure;
}

}  // namespace

RunOutput run_serving(const RunArgs& args, bool plans) {
  // serve-lookup: every answer is a precomputed lookup, so the time goes
  // to transport (event loop, parse, ring hand-off, serialize).
  // serve-plan: every answer is a RoutePlanner result computed per
  // request, so the handler's share grows; a change that moves work onto
  // the event loop shows its cost here. Neither uses the gateway.
  RunOutput run;
  const CompatibilityMatrix& matrix = data::paper_matrix();
  const serve::Api api(matrix);
  const RequestMix mix(api, matrix, args.seed, plans);

  // Untraced segments; a traced run spends half its time on them.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setups;
  std::vector<double> window_p50s;
  std::vector<double> cpu_per_op;
  double peak_rss = 0;
  for (int k = kSegments; k < kSetupStarts; ++k) {
    setups.push_back(ServerProcess("serve").setup_seconds());
  }
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < kSegments; ++k) {
    server.reset();
    server = std::make_unique<ServerProcess>("serve");
    setups.push_back(server->setup_seconds());
    // Warm-up: connections, page faults.
    (void)measure(*server, mix, kWarmupSeconds, std::uint64_t{1} << 40);
    const Window w = measure(*server, mix, untraced_s / kSegments,
                             static_cast<std::uint64_t>(k) << 32);
    add_window(w, run);
    for (const double p : window_p50s_us(w.load)) window_p50s.push_back(p);
    cpu_per_op.push_back(
        static_cast<double>(w.cpu_ns) / 1e3 /
        std::max<double>(1, static_cast<double>(w.load.completed)));
    peak_rss = std::max(peak_rss, server->peak_rss_mb());
  }
  const double p50_ms = median(window_p50s) / 1e3;

  if (!args.trace) {
    run.metrics.add("p50_ms", p50_ms, "ms");
    run.metrics.add("cpu_us_per_op", median(cpu_per_op), "us");
    run.metrics.add("setup_s", median(setups), "s");
    run.metrics.add("peak_rss_mb", peak_rss, "MiB");
  } else {
    const ServeCounters sc0 = serve_counters_of(server->port());
    const Window traced =
        measure(*server, mix, args.seconds / 2, std::uint64_t{1} << 41);
    add_window(traced, run);
    const LoadResult& l = traced.load;
    add_serve_counters(sc0, serve_counters_of(server->port()), l.conditional,
                       l.not_modified, run.metrics);
    server.reset();  // the probes start their own servers

    const double traced_p50_ms = median(window_p50s_us(l)) / 1e3;
    run.metrics.add("latency.p90_ms", quantile(l.latency_us, 0.9) / 1e3, "ms");
    run.metrics.add("latency.p99_ms", quantile(l.latency_us, 0.99) / 1e3, "ms");
    run.metrics.add("latency.p999_ms", quantile(l.latency_us, 0.999) / 1e3,
                    "ms");
    run.metrics.add("latency.max_ms", quantile(l.latency_us, 1.0) / 1e3, "ms");
    run.metrics.add("loadgen.lag_ms", quantile(l.lag_us, 0.99) / 1e3, "ms");
    run.metrics.add(
        "trace.overhead_pct",
        p50_ms > 0 ? 100.0 * (traced_p50_ms - p50_ms) / p50_ms : 0.0, "%");
    run_layer_probes(args.seed, plans, run);

    // Layer accounting: the measured layers of one request against the
    // open-loop p50. The remainder is what no probe explains (hand-off,
    // event loop, queueing at the offered rate).
    const MetricList& m = run.metrics;
    const double handle_us = plans ? m.get("serve.api_plan_us")
                                   : m.get("serve.api_lookup_ns") / 1e3;
    const double layers = m.get("serve.loopback_rtt_us") + handle_us +
                          (m.get("serve.parse_ns") +
                           m.get("serve.serialize_ns")) / 1e3;
    run.metrics.add("account.e2e_us", p50_ms * 1e3, "us");
    run.metrics.add("account.layers_us", layers, "us");
    run.metrics.add("account.remainder_us", p50_ms * 1e3 - layers, "us");
  }
  run.notes.push_back("offered_rate_per_s=" +
                      std::to_string(static_cast<int>(kRate)));
  run.notes.push_back("connections=" + std::to_string(kConnections));
  run.notes.push_back("loop=open, latency timed from each request's due time");
  run.notes.push_back(
      plans ? "mix=POST /v1/plan, uniform over 1024 seeded queries; an "
              "assumption, not observed traffic"
            : "mix=GET, uniform over the distinct resources, every 8th "
              "conditional; an assumption, not observed traffic");
  return run;
}

}  // namespace mcmm::bm
