#include "gpuprof/gpuprof.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/queue.hpp"

namespace mcmm::gpuprof {
namespace {

using Clock = std::chrono::steady_clock;

/// Singleton tracer state. Leaked deliberately: hooks and the at-exit
/// writer may run during static destruction, after a normal static's
/// lifetime would have ended.
struct State {
  std::mutex mu;
  Config cfg;
  bool enabled{false};
  Clock::time_point t0{};
  std::uint64_t next_id{1};
  std::uint32_t next_queue_id{1};
  /// Keyed by Queue::serial(), not address: a queue destroyed and a new
  /// one at the same address get distinct timeline rows.
  std::unordered_map<std::uint64_t, std::uint32_t> queue_ids;
  std::map<std::uint64_t, TraceEvent> open;  ///< begun, end not yet seen
  std::vector<TraceEvent> events;
  std::uint64_t dropped{0};
  /// Graph-replay per-node attribution, folded in bulk at replay end.
  /// Raw-sum convention of Trace::folded (peak parked in pct_of_peak,
  /// latency sum in launch_overhead_pct).
  std::map<std::tuple<std::string, std::string, std::string>, KernelSummary>
      folded;
};

State& state() {
  static State* s = new State;
  return *s;
}

/// Host microseconds since the trace epoch (s.mu held).
[[nodiscard]] double host_now_us(const State& s) {
  return std::chrono::duration<double, std::micro>(Clock::now() - s.t0)
      .count();
}

/// The per-queue timeline id, assigned on first sight (s.mu held).
[[nodiscard]] std::uint32_t queue_id(State& s, const gpusim::Queue& q) {
  const auto [it, inserted] =
      s.queue_ids.emplace(q.serial(), s.next_queue_id);
  if (inserted) ++s.next_queue_id;
  return it->second;
}

[[nodiscard]] std::string dim3_str(const gpusim::Dim3& d) {
  std::string out = "(";
  out += std::to_string(d.x);
  out += ',';
  out += std::to_string(d.y);
  out += ',';
  out += std::to_string(d.z);
  out += ')';
  return out;
}

/// Opens a new event with everything known at begin time: identity,
/// device roofline reference, model tag, host begin timestamp (s.mu
/// held). Returns 0 when the timeline is full.
[[nodiscard]] std::uint64_t open_event(State& s, const gpusim::Queue& q,
                                       OpKind kind, std::string name) {
  if (s.events.size() + s.open.size() >= s.cfg.max_events) {
    ++s.dropped;
    return 0;
  }
  const gpusim::DeviceDescriptor& dev = q.device().descriptor();
  TraceEvent e;
  e.id = s.next_id++;
  e.kind = kind;
  e.vendor = dev.vendor;
  e.device = dev.name;
  e.queue_id = queue_id(s, q);
  e.name = std::move(name);
  e.model = q.backend_profile().label;
  e.peak_gbps = dev.mem_bandwidth_gbps;
  e.launch_latency_us = dev.kernel_launch_latency_us +
                        q.backend_profile().extra_launch_latency_us;
  e.host_begin_us = host_now_us(s);
  const std::uint64_t id = e.id;
  s.open.emplace(id, std::move(e));
  return id;
}

/// Completes an open event with its simulated span (s.mu held).
void close_event(State& s, std::uint64_t id, const gpusim::Event& sim) {
  const auto it = s.open.find(id);
  if (it == s.open.end()) return;  // dropped or reset in between
  TraceEvent e = std::move(it->second);
  s.open.erase(it);
  e.sim_begin_us = sim.sim_begin_us;
  e.sim_end_us = sim.sim_end_us;
  e.host_end_us = host_now_us(s);
  s.events.push_back(std::move(e));
}

/// Records a zero-duration marker (record/sync) directly (s.mu held).
void add_marker(State& s, const gpusim::Queue& q, OpKind kind,
                const char* name, double sim_us) {
  if (s.events.size() + s.open.size() >= s.cfg.max_events) {
    ++s.dropped;
    return;
  }
  const gpusim::DeviceDescriptor& dev = q.device().descriptor();
  TraceEvent e;
  e.id = s.next_id++;
  e.kind = kind;
  e.vendor = dev.vendor;
  e.device = dev.name;
  e.queue_id = queue_id(s, q);
  e.name = name;
  e.model = q.backend_profile().label;
  e.peak_gbps = dev.mem_bandwidth_gbps;
  e.sim_begin_us = sim_us;
  e.sim_end_us = sim_us;
  e.host_begin_us = host_now_us(s);
  e.host_end_us = e.host_begin_us;
  s.events.push_back(std::move(e));
}

// --- hook entry points (installed into gpusim) ---------------------------

std::uint64_t hook_launch_begin(void*, gpusim::Queue& queue,
                                const gpusim::LaunchConfig& cfg,
                                gpusim::Schedule schedule,
                                const gpusim::KernelCosts& costs,
                                const char* label) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return 0;
  const std::uint64_t id = open_event(
      s, queue, OpKind::Kernel, label != nullptr ? label : "kernel");
  if (id == 0) return 0;
  TraceEvent& e = s.open.at(id);
  e.launch = "grid=" + dim3_str(cfg.grid) + " block=" + dim3_str(cfg.block) +
             " schedule=" +
             (schedule == gpusim::Schedule::Static ? "static" : "dynamic");
  e.items = cfg.total_threads();
  e.bytes_read = costs.bytes_read;
  e.bytes_written = costs.bytes_written;
  e.flops = costs.flops;
  return id;
}

void hook_launch_end(void*, gpusim::Queue&, std::uint64_t id,
                     const gpusim::Event& sim) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  close_event(s, id, sim);
}

std::uint64_t hook_copy_begin(void*, gpusim::Queue& queue,
                              gpusim::CopyKind kind, std::size_t bytes) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return 0;
  OpKind op = OpKind::MemcpyH2D;
  if (kind == gpusim::CopyKind::DeviceToHost) op = OpKind::MemcpyD2H;
  if (kind == gpusim::CopyKind::DeviceToDevice) op = OpKind::MemcpyD2D;
  if (kind == gpusim::CopyKind::PeerToPeer) op = OpKind::MemcpyP2P;
  const std::uint64_t id =
      open_event(s, queue, op, std::string(to_string(op)));
  if (id == 0) return 0;
  TraceEvent& e = s.open.at(id);
  // Traffic as the cost model bills it: D2H reads device DRAM, H2D writes
  // it, D2D does both, P2P reads the source device (the event lives on the
  // source queue; the destination device's DRAM is not this account).
  if (op != OpKind::MemcpyH2D) e.bytes_read = static_cast<double>(bytes);
  if (op != OpKind::MemcpyD2H && op != OpKind::MemcpyP2P) {
    e.bytes_written = static_cast<double>(bytes);
  }
  return id;
}

void hook_copy_end(void*, gpusim::Queue&, std::uint64_t id,
                   const gpusim::Event& sim) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  close_event(s, id, sim);
}

std::uint64_t hook_fill_begin(void*, gpusim::Queue& queue,
                              std::size_t bytes) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return 0;
  const std::uint64_t id = open_event(s, queue, OpKind::Memset, "Memset");
  if (id == 0) return 0;
  s.open.at(id).bytes_written = static_cast<double>(bytes);
  return id;
}

void hook_fill_end(void*, gpusim::Queue&, std::uint64_t id,
                   const gpusim::Event& sim) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  close_event(s, id, sim);
}

void hook_event_record(void*, const gpusim::Queue& queue, double sim_us) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return;
  add_marker(s, queue, OpKind::EventRecord, "EventRecord", sim_us);
}

void hook_sync(void*, gpusim::Queue& queue, double sim_us) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return;
  add_marker(s, queue, OpKind::Sync, "Sync", sim_us);
}

std::uint64_t hook_graph_replay_begin(void*, gpusim::Queue& queue,
                                      std::size_t node_count) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.enabled) return 0;
  const std::uint64_t id =
      open_event(s, queue, OpKind::GraphReplay, "GraphReplay");
  if (id == 0) return 0;
  s.open.at(id).items = node_count;  // nodes dispatched, not work items
  return id;
}

void hook_graph_replay_end(void*, gpusim::Queue& queue, std::uint64_t id,
                           const gpusim::Event& sim,
                           const gpusim::GraphNodeSample* nodes,
                           std::size_t count) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  // Fold per-node attribution into the summary rows the way the eager path
  // would have accumulated per-launch events: same (device, name, model)
  // key, same traffic and simulated spans, so roofline numbers line up.
  // Host time is not attributed per node (the replay's host span lives on
  // the single GraphReplay event).
  const gpusim::DeviceDescriptor& dev = queue.device().descriptor();
  const double latency_us = dev.kernel_launch_latency_us +
                            queue.backend_profile().extra_launch_latency_us;
  const std::string& model = queue.backend_profile().label;
  for (std::size_t i = 0; i < count; ++i) {
    const gpusim::GraphNodeSample& n = nodes[i];
    const bool is_kernel = n.kind == gpusim::GraphNodeKind::Kernel;
    if (!is_kernel && n.kind != gpusim::GraphNodeKind::Memset) continue;
    const char* name =
        n.label != nullptr ? n.label : (is_kernel ? "kernel" : "Memset");
    KernelSummary& row = s.folded[{dev.name, name, model}];
    row.vendor = dev.vendor;
    row.device = dev.name;
    row.name = name;
    row.model = model;
    ++row.launches;
    row.items += n.items;
    row.bytes += n.bytes_read + n.bytes_written;
    row.sim_us += n.sim_end_us - n.sim_begin_us;
    row.pct_of_peak = dev.mem_bandwidth_gbps;  // temporarily holds peak
    row.launch_overhead_pct += latency_us;     // temporarily a sum
  }
  close_event(s, id, sim);
}

constexpr gpusim::ProfilerHooks kHooks{
    nullptr,
    &hook_launch_begin,
    &hook_launch_end,
    &hook_copy_begin,
    &hook_copy_end,
    &hook_fill_begin,
    &hook_fill_end,
    &hook_event_record,
    &hook_sync,
    &hook_graph_replay_begin,
    &hook_graph_replay_end,
};

/// Builds a trace snapshot (s.mu held).
[[nodiscard]] Trace make_snapshot(const State& s) {
  Trace t;
  t.events = s.events;
  t.dropped = s.dropped;
  t.incomplete = s.open.size();
  t.folded.reserve(s.folded.size());
  for (const auto& [key, row] : s.folded) t.folded.push_back(row);
  return t;
}

}  // namespace

void enable(const Config& config) {
  State& s = state();
  {
    const std::lock_guard lock(s.mu);
    s.cfg = config;
    if (!s.enabled) s.t0 = Clock::now();
    s.enabled = true;
  }
  gpusim::install_profiler_hooks(&kHooks);
}

void disable() {
  gpusim::install_profiler_hooks(nullptr);
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.enabled = false;
}

bool enabled() noexcept {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return s.enabled;
}

Config current_config() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return s.cfg;
}

Trace snapshot() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return make_snapshot(s);
}

Trace finalize() {
  gpusim::install_profiler_hooks(nullptr);
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.enabled = false;
  return make_snapshot(s);
}

void reset() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.events.clear();
  s.open.clear();
  s.folded.clear();
  s.queue_ids.clear();
  s.dropped = 0;
  s.next_id = 1;
  s.next_queue_id = 1;
  s.t0 = Clock::now();
}

Trace capture_trace(const std::function<void()>& work) {
  const bool was_enabled = enabled();
  const Config prior_cfg = current_config();
  reset();
  enable(prior_cfg);
  work();
  Trace trace = snapshot();
  if (!was_enabled) {
    disable();
    reset();
  }
  return trace;
}

std::vector<KernelSummary> capture_kernel_summaries(
    const std::function<void()>& work) {
  return capture_trace(work).kernel_summaries();
}

void init_from_env() {
  const char* spec = std::getenv("MCMM_GPUPROF");
  if (spec == nullptr || *spec == '\0' || std::string_view(spec) == "0") {
    return;
  }
  // Construct the Platform now so its static destructor is registered
  // before our at-exit writer: atexit runs LIFO, so the writer then runs
  // before the devices are torn down.
  (void)gpusim::Platform::instance();
  enable();
  std::atexit(+[] {
    const Trace trace = finalize();
    const auto write = [](const char* env, const std::string& content) {
      if (const char* path = std::getenv(env);
          path != nullptr && *path != '\0') {
        std::ofstream out(path);
        out << content;
      }
    };
    write("MCMM_GPUPROF_TRACE", trace.chrome_json());
    write("MCMM_GPUPROF_CSV", trace.summary_csv());
    write("MCMM_GPUPROF_REPORT", trace.summary_json());
    std::fputs(trace.text_report().c_str(), stderr);
  });
}

}  // namespace mcmm::gpuprof
