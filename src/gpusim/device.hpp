#pragma once
// A simulated GPU device: descriptor + memory + queues + the fork-join
// pool its kernels run on. The Platform holds N devices per vendor
// (lazily grown, ordinal 0 by default), standing in for the multi-GPU
// nodes of the three-machine testbed the paper's ecosystem spans.

#include <memory>
#include <string_view>
#include <vector>

#include "gpusim/allocator.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/queue.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/thread_pool.hpp"

namespace mcmm::gpusim {

class Device {
 public:
  /// Every queue of the device runs its kernels, copies and fills on
  /// `pool`, which must outlive the device.
  explicit Device(DeviceDescriptor descriptor, unsigned ordinal = 0,
                  ThreadPool& pool = ThreadPool::global())
      : descriptor_(std::move(descriptor)),
        ordinal_(ordinal),
        pool_(&pool),
        allocator_(descriptor_.memory_bytes),
        default_queue_(std::make_unique<Queue>(*this)) {}

  /// Teardown is a sanitizer checkpoint: red zones of still-live blocks
  /// are verified and leaks reported before the allocator reclaims them.
  ~Device() {
    if (const SanitizerHooks* hooks = sanitizer_hooks();
        hooks != nullptr && hooks->on_device_teardown != nullptr) {
      hooks->on_device_teardown(hooks->ctx, *this);
    }
  }

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceDescriptor& descriptor() const noexcept {
    return descriptor_;
  }
  [[nodiscard]] Vendor vendor() const noexcept { return descriptor_.vendor; }

  /// Position of this device on its vendor's Platform rail (0 = the
  /// default device real runtimes select with cudaSetDevice(0)).
  [[nodiscard]] unsigned ordinal() const noexcept { return ordinal_; }

  /// The fork-join pool every queue of this device executes on.
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  [[nodiscard]] DeviceAllocator& allocator() noexcept { return allocator_; }
  [[nodiscard]] const DeviceAllocator& allocator() const noexcept {
    return allocator_;
  }

  /// Device-memory management (see DeviceAllocator for semantics).
  /// `origin` tags the allocation for sanitizer reports.
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::string_view origin = {}) {
    return allocator_.allocate(bytes, origin);
  }
  void deallocate(void* p) { allocator_.deallocate(p); }
  [[nodiscard]] bool is_device_pointer(const void* p) const {
    return allocator_.owns(p);
  }

  [[nodiscard]] Queue& default_queue() noexcept { return *default_queue_; }
  [[nodiscard]] std::unique_ptr<Queue> create_queue() {
    return std::make_unique<Queue>(*this);
  }

 private:
  DeviceDescriptor descriptor_;
  unsigned ordinal_{0};
  ThreadPool* pool_;
  DeviceAllocator allocator_;
  std::unique_ptr<Queue> default_queue_;
};

/// The simulated machine room: N devices per vendor on a dense ordinal
/// rail, lazily constructed. Ordinal 0 is the device single-GPU code has
/// always used; requesting a higher ordinal materializes every device up
/// to it (each with its own allocator, default queue, and sanitizer/
/// profiler state). Sibling descriptors get a " #k" name suffix so
/// per-device attribution stays distinguishable in profiler summaries.
/// A new device runs on the pool of the rail's ordinal 0 (the default
/// pool on an empty rail); reset_device is where a caller picks another.
class Platform {
 public:
  [[nodiscard]] static Platform& instance();

  [[nodiscard]] Device& device(Vendor v, unsigned ordinal = 0);

  /// The vendor's device at `ordinal` if it has been constructed, else
  /// nullptr. Lets the sanitizer sweep existing devices without forcing
  /// any into existence.
  [[nodiscard]] Device* try_device(Vendor v, unsigned ordinal = 0) noexcept;

  /// Number of constructed devices on the vendor's rail.
  [[nodiscard]] unsigned device_count(Vendor v) const noexcept;

  /// All constructed devices of a vendor, ordinal order (sanitizer and
  /// teardown sweeps).
  [[nodiscard]] std::vector<Device*> devices_of(Vendor v) noexcept;

  /// Replaces the vendor's device at `ordinal` with a custom-descriptor
  /// one (tests use this for tiny-memory devices; the perf campaign for
  /// pristine per-suite clocks); returns the new device. Materializes
  /// lower ordinals as defaults if needed so the rail stays dense. The new
  /// device runs on `pool` if given, else on the pool of the device it
  /// replaces, so a pool chosen once survives later resets.
  Device& reset_device(Vendor v, const DeviceDescriptor& descriptor,
                       unsigned ordinal = 0, ThreadPool* pool = nullptr);

  /// Destroys devices above ordinal `keep - 1` (teardown checkpoints fire
  /// for each). Weak-scaling scenarios shrink rails back after a run.
  void trim_devices(Vendor v, unsigned keep);

 private:
  Platform() = default;
  std::vector<std::unique_ptr<Device>> devices_[3];
};

}  // namespace mcmm::gpusim
