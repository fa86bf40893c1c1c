#pragma once
// In-order execution queue of a simulated device. Operations execute
// eagerly in submission order (the semantics of a synchronized-on-every-op
// stream); each operation advances the queue's simulated clock according to
// the analytic cost model and returns timing via Event.
//
// Kernel dispatch is allocation-free: the body is handed to the fork-join
// engine as a function pointer + stack context (no std::function), and the
// 3-D work-item coordinates are advanced by incremental carry instead of a
// per-element div/mod chain.

#include <cstring>
#include <type_traits>

#include "gpusim/allocator.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/graph.hpp"
#include "gpusim/ops.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/thread_pool.hpp"

namespace mcmm::gpusim {

class Device;

class Queue {
 public:
  /// Created via Device::create_queue() / Device::default_queue().
  explicit Queue(Device& device);

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  [[nodiscard]] Device& device() noexcept { return *device_; }
  [[nodiscard]] const Device& device() const noexcept { return *device_; }

  /// Process-unique, never reused: unlike the queue's address, it tells
  /// a destroyed queue from a later one built in the same memory.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

  /// The device's fork-join pool, which runs this queue's kernels,
  /// copies and fills.
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  /// Backend profile applied to subsequent kernel launches (set by the
  /// programming-model layer to reflect its software route).
  void set_backend_profile(BackendProfile profile) {
    profile_ = std::move(profile);
  }
  [[nodiscard]] const BackendProfile& backend_profile() const noexcept {
    return profile_;
  }

  /// Launches a kernel: body(item) runs once per work item, partitioned
  /// over the worker pool. Validates the configuration against device
  /// limits. Returns the simulated timing of the launch.
  template <typename Body>
  Event launch(const LaunchConfig& cfg, const KernelCosts& costs, Body&& body,
               LaunchPolicy policy = {}) {
    const std::uint64_t total = cfg.total_threads();
    if (total == 0 || cfg.block.volume() > max_threads_per_block_) {
      fail_launch(cfg);  // [[noreturn]]: empty shape or block over limit
    }
    if (capture_ != nullptr) {
      // Capture mode: record instead of executing. The clock does not move
      // (nothing ran); the duration is baked at graph instantiate from the
      // same descriptor/profile the eager path would have used here.
      capture_->record_kernel(cfg, costs, std::forward<Body>(body), policy,
                              kernel_label());
      return Event{sim_time_us_, sim_time_us_};
    }
    using Thunk = LaunchThunk<std::remove_reference_t<Body>>;
    Thunk thunk{cfg, std::addressof(body), 0};
    const SanitizerHooks* hooks = sanitizer_hooks();
    if (hooks != nullptr && hooks->on_launch_begin != nullptr) {
      thunk.launch_id =
          hooks->on_launch_begin(hooks->ctx, *this, cfg, policy.schedule);
    }
    const ProfilerHooks* prof = profiler_hooks();
    std::uint64_t trace_id = 0;
    if (prof != nullptr && prof->on_launch_begin != nullptr) {
      trace_id = prof->on_launch_begin(prof->ctx, *this, cfg, policy.schedule,
                                       costs, kernel_label());
    }
    pool_->run_batch(total, &Thunk::run, &thunk, policy.schedule,
                     policy.grain);
    if (thunk.launch_id != 0 && hooks->on_launch_end != nullptr) {
      hooks->on_launch_end(hooks->ctx, *this, thunk.launch_id);
    }
    const Event e = advance_kernel(costs);
    if (trace_id != 0 && prof->on_launch_end != nullptr) {
      prof->on_launch_end(prof->ctx, *this, trace_id, e);
    }
    return e;
  }

  /// Explicit memcpy with direction validation: device pointers must come
  /// from this device's allocator, host pointers must not. Large copies
  /// are striped over the worker pool.
  Event memcpy(void* dst, const void* src, std::size_t bytes, CopyKind kind);

  /// memset on device memory (striped over the pool above a threshold).
  Event memset(void* dst, int value, std::size_t bytes);

  /// Copies device memory of this queue's device into device memory of
  /// `dst_device` over the simulated inter-device link (NVLink / Infinity
  /// Fabric / Xe Link), billed by p2p_time_us against the slower endpoint.
  /// Same-device calls degrade to an ordinary DeviceToDevice memcpy. Not
  /// capturable into a graph (a graph is compiled for one device).
  Event memcpy_peer(void* dst, Device& dst_device, const void* src,
                    std::size_t bytes);

  /// Records the current simulated time (an event-record marker on the
  /// profiler timeline). In capture mode the marker is recorded as a
  /// zero-duration graph node instead.
  [[nodiscard]] Event record() const {
    if (capture_ != nullptr) {
      capture_->record_marker("event");
      return Event{sim_time_us_, sim_time_us_};
    }
    if (const ProfilerHooks* prof = profiler_hooks();
        prof != nullptr && prof->on_event_record != nullptr) {
      prof->on_event_record(prof->ctx, *this, sim_time_us_);
    }
    return Event{sim_time_us_, sim_time_us_};
  }

  /// Barrier. Execution-wise a no-op: the queue is eager and in-order, and
  /// the fork-join engine joins every launch before it returns, so all
  /// submitted work is already complete here. Kept because real code
  /// synchronizes at these points and the model layers mirror that shape —
  /// and because the sanitizer verifies allocation red zones here, exactly
  /// where compute-sanitizer reports deferred memory errors. In capture
  /// mode it records an event-wait marker node (CUDA stream capture treats
  /// in-stream synchronization points the same way).
  void synchronize() noexcept {
    if (capture_ != nullptr) {
      try {
        capture_->record_marker("sync");
      } catch (...) {  // vector growth OOM; the barrier itself cannot fail
      }
      return;
    }
    const SanitizerHooks* hooks = sanitizer_hooks();
    if (hooks != nullptr && hooks->on_sync != nullptr) {
      hooks->on_sync(hooks->ctx, *this);
    }
    if (const ProfilerHooks* prof = profiler_hooks();
        prof != nullptr && prof->on_sync != nullptr) {
      prof->on_sync(prof->ctx, *this, sim_time_us_);
    }
  }

  /// Puts the queue into capture mode: subsequent launches, memcpies,
  /// memsets, and event records are recorded into `graph` as a linear chain
  /// instead of executing. Throws CaptureError when this queue is already
  /// capturing (capture-while-capturing), the graph is being captured into
  /// by another queue, or the graph is not empty.
  void begin_capture(Graph& graph);

  /// Ends capture mode and returns the number of captured nodes. Throws
  /// CaptureError when the queue is not capturing.
  std::size_t end_capture();

  [[nodiscard]] bool capturing() const noexcept { return capture_ != nullptr; }

  /// Total simulated time consumed by this queue, microseconds.
  [[nodiscard]] double simulated_time_us() const noexcept {
    return sim_time_us_;
  }

 private:
  /// Stack-allocated bridge from the typed kernel body to the engine's
  /// type-erased ChunkFn. The body pointer refers to the caller's frame;
  /// the engine joins before launch() returns, so it never dangles.
  /// When the sanitizer tracks this launch (launch_id != 0), the thunk
  /// publishes the executing work item's linear id in a thread-local so
  /// instrumented accessors can attribute each access to a work item; the
  /// untracked path pays one predictable branch per item.
  template <typename Body>
  struct LaunchThunk {
    LaunchConfig cfg;
    Body* body;
    std::uint64_t launch_id;

    static void run(void* ctx, std::uint64_t begin, std::uint64_t end) {
      auto* self = static_cast<LaunchThunk*>(ctx);
      Body& body = *self->body;
      const std::uint64_t launch_id = self->launch_id;
      WorkItem item = begin == 0 ? first_work_item(self->cfg)
                                 : work_item_from_linear(self->cfg, begin);
      for (std::uint64_t i = begin;;) {
        if (launch_id != 0) set_current_work_item(launch_id, i);
        body(item);
        if (++i == end) break;
        advance_work_item(self->cfg, item);
      }
      if (launch_id != 0) clear_current_work_item();
    }
  };

  [[noreturn]] void fail_launch(const LaunchConfig& cfg) const;

  Event advance_kernel(const KernelCosts& costs) {
    return advance(kernel_time_us(*descriptor_, profile_, costs));
  }

  Event advance(double duration_us) {
    Event e;
    e.sim_begin_us = sim_time_us_;
    sim_time_us_ += duration_us;
    e.sim_end_us = sim_time_us_;
    return e;
  }

  /// ExecutableGraph replays through the queue's private clock/pool seam
  /// (advance + pool_) — the whole point is to bypass the per-launch path.
  friend class ExecutableGraph;

  Device* device_;
  const DeviceDescriptor* descriptor_;  ///< cached: hot path, Device opaque
  ThreadPool* pool_;
  std::uint64_t max_threads_per_block_;
  BackendProfile profile_{};
  double sim_time_us_{0};
  Graph* capture_{nullptr};  ///< non-null while in capture mode
  std::uint64_t serial_;
};

}  // namespace mcmm::gpusim
