#pragma once
// In-process determinism support: the pool sizes every determinism test
// runs on, and a guard that puts the Platform's devices on a test pool.

#include <algorithm>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/thread_pool.hpp"

namespace mcmm::testing {

/// Worker counts a determinism test compares: 1, 4 and one per hardware
/// thread (at least 2).
inline std::vector<unsigned> determinism_worker_counts() {
  return {1, 4, std::max(2u, std::thread::hardware_concurrency())};
}

/// For its lifetime, every vendor's Platform rail is one pristine device
/// on `pool`; devices grown or reset meanwhile keep that pool. The
/// destructor puts the rails back on the default pool, so no Platform
/// device outlives the pool it runs on.
class RailsOnPool {
 public:
  explicit RailsOnPool(gpusim::ThreadPool& pool) { reset_rails(pool); }
  ~RailsOnPool() { reset_rails(gpusim::ThreadPool::global()); }

  RailsOnPool(const RailsOnPool&) = delete;
  RailsOnPool& operator=(const RailsOnPool&) = delete;

 private:
  static void reset_rails(gpusim::ThreadPool& pool) {
    gpusim::Platform& platform = gpusim::Platform::instance();
    for (const Vendor v : kAllVendors) {
      platform.trim_devices(v, 1);
      (void)platform.reset_device(v, gpusim::descriptor_for(v), 0, &pool);
    }
  }
};

}  // namespace mcmm::testing
