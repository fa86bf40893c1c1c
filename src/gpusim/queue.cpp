#include "gpusim/queue.hpp"

#include <atomic>

#include "gpusim/device.hpp"
#include "gpusim/error.hpp"
#include "gpusim/stripe.hpp"

namespace mcmm::gpusim {

namespace {
std::atomic<std::uint64_t> g_next_queue_serial{1};
}  // namespace

Queue::Queue(Device& device)
    : device_(&device),
      descriptor_(&device.descriptor()),
      pool_(&device.pool()),
      max_threads_per_block_(device.descriptor().max_threads_per_block),
      serial_(g_next_queue_serial.fetch_add(1, std::memory_order_relaxed)) {}

void Queue::fail_launch(const LaunchConfig& cfg) const {
  if (cfg.grid.volume() == 0 || cfg.block.volume() == 0) {
    throw InvalidLaunch("launch with empty grid or block");
  }
  throw InvalidLaunch("block of " + std::to_string(cfg.block.volume()) +
                      " threads exceeds device limit of " +
                      std::to_string(max_threads_per_block_));
}

Event Queue::memcpy(void* dst, const void* src, std::size_t bytes,
                    CopyKind kind) {
  const DeviceAllocator& alloc = device_->allocator();
  switch (kind) {
    case CopyKind::HostToDevice:
      alloc.check_range(dst, bytes);
      if (alloc.owns(src)) {
        throw InvalidPointer("memcpy H2D: source is device memory");
      }
      break;
    case CopyKind::DeviceToHost:
      alloc.check_range(src, bytes);
      if (alloc.owns(dst)) {
        throw InvalidPointer("memcpy D2H: destination is device memory");
      }
      break;
    case CopyKind::DeviceToDevice:
      alloc.check_range(src, bytes);
      alloc.check_range(dst, bytes);
      break;
    case CopyKind::PeerToPeer:
      throw InvalidPointer("memcpy: PeerToPeer copies go through memcpy_peer");
  }
  if (capture_ != nullptr) {
    capture_->record_memcpy(dst, src, bytes, kind);
    return Event{sim_time_us_, sim_time_us_};
  }
  const ProfilerHooks* prof = profiler_hooks();
  std::uint64_t trace_id = 0;
  if (prof != nullptr && prof->on_copy_begin != nullptr) {
    trace_id = prof->on_copy_begin(prof->ctx, *this, kind, bytes);
  }
  stripe::run_copy(*pool_, dst, src, bytes);
  if (const SanitizerHooks* hooks = sanitizer_hooks();
      hooks != nullptr && hooks->on_sync != nullptr) {
    hooks->on_sync(hooks->ctx, *this);
  }
  const double us = kind == CopyKind::DeviceToDevice
                        ? d2d_time_us(device_->descriptor(),
                                      static_cast<double>(bytes))
                        : copy_time_us(device_->descriptor(),
                                       static_cast<double>(bytes));
  const Event e = advance(us);
  if (trace_id != 0 && prof->on_copy_end != nullptr) {
    prof->on_copy_end(prof->ctx, *this, trace_id, e);
  }
  return e;
}

Event Queue::memcpy_peer(void* dst, Device& dst_device, const void* src,
                         std::size_t bytes) {
  if (capture_ != nullptr) {
    throw CaptureError(
        "memcpy_peer: PeerToPeer copies span two devices and cannot be "
        "captured into a single-device graph");
  }
  device_->allocator().check_range(src, bytes);
  dst_device.allocator().check_range(dst, bytes);
  if (&dst_device == device_) {
    // Same device on both ends: there is no inter-device link to bill, so
    // this is an ordinary device copy (cudaMemcpyPeer does the same).
    return memcpy(dst, src, bytes, CopyKind::DeviceToDevice);
  }
  const ProfilerHooks* prof = profiler_hooks();
  std::uint64_t trace_id = 0;
  if (prof != nullptr && prof->on_copy_begin != nullptr) {
    trace_id =
        prof->on_copy_begin(prof->ctx, *this, CopyKind::PeerToPeer, bytes);
  }
  stripe::run_copy(*pool_, dst, src, bytes);
  if (const SanitizerHooks* hooks = sanitizer_hooks();
      hooks != nullptr && hooks->on_sync != nullptr) {
    hooks->on_sync(hooks->ctx, *this);
  }
  // The source queue owns the transfer: its clock advances by the link
  // time; the destination device's queues are unaffected (the consumer
  // orders against the producer by reading the returned Event).
  const Event e = advance(p2p_time_us(device_->descriptor(),
                                      dst_device.descriptor(),
                                      static_cast<double>(bytes)));
  if (trace_id != 0 && prof->on_copy_end != nullptr) {
    prof->on_copy_end(prof->ctx, *this, trace_id, e);
  }
  return e;
}

Event Queue::memset(void* dst, int value, std::size_t bytes) {
  device_->allocator().check_range(dst, bytes);
  if (capture_ != nullptr) {
    capture_->record_memset(dst, value, bytes);
    return Event{sim_time_us_, sim_time_us_};
  }
  const ProfilerHooks* prof = profiler_hooks();
  std::uint64_t trace_id = 0;
  if (prof != nullptr && prof->on_fill_begin != nullptr) {
    trace_id = prof->on_fill_begin(prof->ctx, *this, bytes);
  }
  stripe::run_fill(*pool_, dst, value, bytes);
  if (const SanitizerHooks* hooks = sanitizer_hooks();
      hooks != nullptr && hooks->on_sync != nullptr) {
    hooks->on_sync(hooks->ctx, *this);
  }
  KernelCosts costs;
  costs.bytes_written = static_cast<double>(bytes);
  const Event e = advance_kernel(costs);
  if (trace_id != 0 && prof->on_fill_end != nullptr) {
    prof->on_fill_end(prof->ctx, *this, trace_id, e);
  }
  return e;
}

void Queue::begin_capture(Graph& graph) {
  if (capture_ != nullptr) {
    throw CaptureError("begin_capture: queue is already capturing");
  }
  graph.start_capture_session();  // throws on busy or non-empty graph
  capture_ = &graph;
}

std::size_t Queue::end_capture() {
  if (capture_ == nullptr) {
    throw CaptureError("end_capture: queue is not capturing");
  }
  Graph* graph = capture_;
  capture_ = nullptr;
  graph->end_capture_session();
  return graph->node_count();
}

}  // namespace mcmm::gpusim

namespace mcmm::gpusim {

Platform& Platform::instance() {
  static Platform platform;
  return platform;
}

namespace {

/// A device for `ordinal` of `rail`, on `pool` when given, else on the
/// pool of the rail's ordinal 0, else on the default pool.
std::unique_ptr<Device> make_device(
    const std::vector<std::unique_ptr<Device>>& rail,
    DeviceDescriptor descriptor, unsigned ordinal, ThreadPool* pool) {
  if (pool == nullptr && !rail.empty()) pool = &rail.front()->pool();
  if (pool == nullptr) {
    return std::make_unique<Device>(std::move(descriptor), ordinal);
  }
  return std::make_unique<Device>(std::move(descriptor), ordinal, *pool);
}

}  // namespace

Device& Platform::device(Vendor v, unsigned ordinal) {
  auto& rail = devices_[static_cast<std::size_t>(v)];
  while (rail.size() <= ordinal) {
    DeviceDescriptor descriptor = descriptor_for(v);
    if (!rail.empty()) {
      // Ordinal 0 keeps the spec-sheet name (golden traces and roofline
      // summaries key on it); siblings get a " #k" suffix so per-device
      // attribution stays distinguishable in summaries and reports.
      descriptor.name += " #" + std::to_string(rail.size());
    }
    rail.push_back(make_device(rail, std::move(descriptor),
                               static_cast<unsigned>(rail.size()), nullptr));
  }
  return *rail[ordinal];
}

Device* Platform::try_device(Vendor v, unsigned ordinal) noexcept {
  const auto& rail = devices_[static_cast<std::size_t>(v)];
  return ordinal < rail.size() ? rail[ordinal].get() : nullptr;
}

unsigned Platform::device_count(Vendor v) const noexcept {
  return static_cast<unsigned>(devices_[static_cast<std::size_t>(v)].size());
}

std::vector<Device*> Platform::devices_of(Vendor v) noexcept {
  std::vector<Device*> out;
  const auto& rail = devices_[static_cast<std::size_t>(v)];
  out.reserve(rail.size());
  for (const auto& d : rail) out.push_back(d.get());
  return out;
}

Device& Platform::reset_device(Vendor v, const DeviceDescriptor& descriptor,
                               unsigned ordinal, ThreadPool* pool) {
  auto& rail = devices_[static_cast<std::size_t>(v)];
  if (ordinal > rail.size()) {
    // Materialize the rail up to the requested ordinal first so device
    // ordinals stay dense (ordinal == index invariant).
    static_cast<void>(device(v, ordinal - 1));
  }
  if (pool == nullptr && ordinal < rail.size()) pool = &rail[ordinal]->pool();
  auto replacement = make_device(rail, descriptor, ordinal, pool);
  if (ordinal == rail.size()) {
    rail.push_back(std::move(replacement));
  } else {
    rail[ordinal] = std::move(replacement);
  }
  return *rail[ordinal];
}

void Platform::trim_devices(Vendor v, unsigned keep) {
  auto& rail = devices_[static_cast<std::size_t>(v)];
  while (rail.size() > keep) rail.pop_back();
}

}  // namespace mcmm::gpusim
