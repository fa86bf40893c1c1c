#pragma once
// pstlx: device-executed parallel algorithms over the simulated GPU —
// the pSTL column of Figure 1 made runnable. Every algorithm takes a
// stdparx::execution_policy (NVHPC / oneDPL / roc-stdpar / Open SYCL
// per-vendor gate) and dispatches through gpusim::Queue launches, so
// the gpusan shadow log and the gpuprof roofline summaries observe
// every access and every launch with no pstlx-specific plumbing.
//
// Algorithm cores live in src/pstlx/detail.hpp:
//   reduce / transform_reduce  blocked 64-chunk reduce (bitwise equal
//                              to stdparx::detail::chunked_reduce)
//   inclusive/exclusive_scan   two-pass block scan
//   sort / stable_sort         blocked merge sort + merge-path rounds
//   merge                      co-rank segmented stable merge
//   for_each / transform       flat per-item kernels
//
// Gate semantics (satellite of ISSUE 8): policies re-validate at every
// algorithm entry via execution_policy::validate(). The roc-stdpar
// opt-in is a process-global switch that can be turned off *after* a
// policy was built; validating before the first launch means a newly
// unsupported combination throws without consuming any simulated queue
// time — no partially-executed algorithm is left on the timeline.

#include <concepts>
#include <functional>
#include <string_view>

#include "models/stdparx/stdparx.hpp"
#include "pstlx/detail.hpp"

namespace mcmm::pstlx {

/// Figure 1 Standard-column support tier for a (runtime, vendor) cell,
/// mirrored by the execution_policy gate (see tier_for in pstlx.cpp).
enum class SupportTier {
  VendorComplete,      ///< NVHPC on NVIDIA: production, std:: namespace
  CustomNamespace,     ///< oneDPL on Intel: production, oneapi::dpl::
  OptInExperimental,   ///< roc-stdpar on AMD: requires explicit opt-in
  Experimental,        ///< Open SYCL everywhere, oneDPL plugin routes
  Unsupported,         ///< combination rejected by the gate
};

[[nodiscard]] std::string_view to_string(SupportTier tier) noexcept;

/// The tier the execution_policy gate enforces for (vendor, runtime).
/// Pure lookup: never throws, ignores the roc-stdpar opt-in switch
/// (OptInExperimental is the tier *because* the switch exists).
[[nodiscard]] SupportTier tier_for(Vendor vendor,
                                   stdparx::Runtime runtime) noexcept;

namespace detail {

/// Host-side schedule used by pstlx launches on this thread. Purely an
/// execution knob (like gpusim::LaunchPolicy itself): it never changes
/// results or simulated time, only how tiles are handed to workers.
inline thread_local gpusim::Schedule t_schedule = gpusim::Schedule::Dynamic;

/// RAII device scratch allocation (sort ping-pong buffer).
template <typename T>
class device_buffer {
 public:
  device_buffer(gpusim::Device& device, std::size_t count,
                std::string_view origin)
      : device_(&device),
        data_(static_cast<T*>(device.allocate(count * sizeof(T), origin))) {}
  ~device_buffer() {
    if (data_ != nullptr) device_->deallocate(data_);
  }
  device_buffer(const device_buffer&) = delete;
  device_buffer& operator=(const device_buffer&) = delete;

  [[nodiscard]] T* data() const noexcept { return data_; }

 private:
  gpusim::Device* device_;
  T* data_;
};

/// Task executor backed by a queue launch: one work item per task,
/// self-scheduled (dynamic, grain 1) like stdparx's chunked launches.
/// Each call is one launch carrying `costs`, so sim time and profiler
/// attribution follow the declared traffic, not the task count.
struct queue_exec {
  gpusim::Queue* queue;
  gpusim::KernelCosts costs;

  template <typename Body>
  void operator()(std::size_t tasks, const Body& body) const {
    queue->launch(gpusim::launch_1d(tasks, 1), costs,
                  [&](const gpusim::WorkItem& item) {
                    const std::size_t t = item.global_x();
                    if (t < tasks) body(t);
                  },
                  gpusim::LaunchPolicy{t_schedule, 1});
  }
};

[[nodiscard]] inline gpusim::KernelCosts streaming_costs(
    double bytes_read, double bytes_written, double flops = 0) {
  gpusim::KernelCosts costs;
  costs.bytes_read = bytes_read;
  costs.bytes_written = bytes_written;
  costs.flops = flops;
  return costs;
}

}  // namespace detail

/// RAII override of the host-side schedule pstlx launches use on this
/// thread (racecheck fixtures prove cleanliness under both schedules;
/// results and simulated time are schedule-independent by design).
class schedule_guard {
 public:
  explicit schedule_guard(gpusim::Schedule s) noexcept
      : prev_(detail::t_schedule) {
    detail::t_schedule = s;
  }
  ~schedule_guard() { detail::t_schedule = prev_; }
  schedule_guard(const schedule_guard&) = delete;
  schedule_guard& operator=(const schedule_guard&) = delete;

 private:
  gpusim::Schedule prev_;
};

// --- Flat per-item kernels ----------------------------------------------

template <typename T, typename F>
void for_each(const stdparx::execution_policy& pol, T* first, T* last,
              F&& f) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * sizeof(T)), static_cast<double>(n * sizeof(T)));
  pol.queue().launch(gpusim::launch_1d(n, 256), costs,
                     [&](const gpusim::WorkItem& item) {
                       const std::size_t i = item.global_x();
                       if (i >= n) return;
                       detail::NoteDevice::read(first + i, sizeof(T));
                       detail::NoteDevice::write(first + i, sizeof(T));
                       f(first[i]);
                     },
                     gpusim::LaunchPolicy{detail::t_schedule, 0});
}

template <typename T, typename U, typename F>
void transform(const stdparx::execution_policy& pol, const T* first,
               const T* last, U* out, F&& f) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * sizeof(T)), static_cast<double>(n * sizeof(U)));
  pol.queue().launch(gpusim::launch_1d(n, 256), costs,
                     [&](const gpusim::WorkItem& item) {
                       const std::size_t i = item.global_x();
                       if (i >= n) return;
                       detail::NoteDevice::read(first + i, sizeof(T));
                       detail::NoteDevice::write(out + i, sizeof(U));
                       out[i] = f(first[i]);
                     },
                     gpusim::LaunchPolicy{detail::t_schedule, 0});
}

template <typename T, typename U, typename V, typename F>
void transform(const stdparx::execution_policy& pol, const T* first1,
               const T* last1, const U* first2, V* out, F&& f) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last1 - first1);
  if (n == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * (sizeof(T) + sizeof(U))),
      static_cast<double>(n * sizeof(V)));
  pol.queue().launch(gpusim::launch_1d(n, 256), costs,
                     [&](const gpusim::WorkItem& item) {
                       const std::size_t i = item.global_x();
                       if (i >= n) return;
                       detail::NoteDevice::read(first1 + i, sizeof(T));
                       detail::NoteDevice::read(first2 + i, sizeof(U));
                       detail::NoteDevice::write(out + i, sizeof(V));
                       out[i] = f(first1[i], first2[i]);
                     },
                     gpusim::LaunchPolicy{detail::t_schedule, 0});
}

// --- Blocked reductions --------------------------------------------------

/// Device reduce. Same decomposition, combine order, and KernelCosts as
/// stdparx::reduce, so replacing one with the other changes neither the
/// simulated timeline nor the floating-point sum.
template <typename T, typename R, typename Combine>
[[nodiscard]] R reduce(const stdparx::execution_policy& pol, const T* first,
                       const T* last, R init, Combine&& combine) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  const auto costs =
      detail::streaming_costs(static_cast<double>(n * sizeof(T)), 0,
                              static_cast<double>(n));
  return detail::blocked_reduce(
      n, init, [&](std::size_t i) { return static_cast<R>(first[i]); },
      std::forward<Combine>(combine),
      [&](std::size_t begin, std::size_t end) {
        detail::NoteDevice::read(first + begin, (end - begin) * sizeof(T));
      },
      detail::queue_exec{&pol.queue(), costs});
}

template <typename T, typename R>
[[nodiscard]] R reduce(const stdparx::execution_policy& pol, const T* first,
                       const T* last, R init) {
  return reduce(pol, first, last, init,
                [](const R& a, const R& b) { return a + b; });
}

/// Device inner product (the BabelStream Dot shape): bitwise equal to
/// stdparx::transform_reduce with identical costs and one launch.
template <typename T, typename U, typename R>
[[nodiscard]] R transform_reduce(const stdparx::execution_policy& pol,
                                 const T* first1, const T* last1,
                                 const U* first2, R init) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last1 - first1);
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * (sizeof(T) + sizeof(U))), 0,
      static_cast<double>(2 * n));
  return detail::blocked_reduce(
      n, init,
      [&](std::size_t i) { return static_cast<R>(first1[i] * first2[i]); },
      [](const R& a, const R& b) { return a + b; },
      [&](std::size_t begin, std::size_t end) {
        detail::NoteDevice::read(first1 + begin, (end - begin) * sizeof(T));
        detail::NoteDevice::read(first2 + begin, (end - begin) * sizeof(U));
      },
      detail::queue_exec{&pol.queue(), costs});
}

/// Unary-transform reduce (sum of f(x) over the range).
template <typename T, typename R, typename Transform,
          typename Combine = std::plus<R>>
  requires std::invocable<Transform&, const T&>
[[nodiscard]] R transform_reduce(const stdparx::execution_policy& pol,
                                 const T* first, const T* last, R init,
                                 Transform transform, Combine combine = {}) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  const auto costs =
      detail::streaming_costs(static_cast<double>(n * sizeof(T)), 0,
                              static_cast<double>(2 * n));
  return detail::blocked_reduce(
      n, init,
      [&](std::size_t i) { return static_cast<R>(transform(first[i])); },
      combine,
      [&](std::size_t begin, std::size_t end) {
        detail::NoteDevice::read(first + begin, (end - begin) * sizeof(T));
      },
      detail::queue_exec{&pol.queue(), costs});
}

// --- Two-pass block scans ------------------------------------------------

template <typename T, typename U, typename Op = std::plus<>>
void inclusive_scan(const stdparx::execution_policy& pol, const T* first,
                    const T* last, U* out, Op op = {}) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * sizeof(T)), static_cast<double>(n * sizeof(U)),
      static_cast<double>(n));
  detail::two_pass_scan<true, T, U, Op>(
      first, out, n, U{}, op, detail::queue_exec{&pol.queue(), costs});
}

template <typename T, typename U, typename Op = std::plus<>>
void exclusive_scan(const stdparx::execution_policy& pol, const T* first,
                    const T* last, U* out, U init, Op op = {}) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>(n * sizeof(T)), static_cast<double>(n * sizeof(U)),
      static_cast<double>(n));
  detail::two_pass_scan<false, T, U, Op>(
      first, out, n, init, op, detail::queue_exec{&pol.queue(), costs});
}

// --- Blocked merge sort + merge ------------------------------------------

namespace detail {

template <bool Stable, typename T, typename Comp>
void device_sort(const stdparx::execution_policy& pol, T* first, T* last,
                 Comp comp) {
  pol.validate();
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n < 2) return;
  // Each pass (tile sort, every merge round, copy-back) streams the
  // full array once: read n, write n, ~n compare-flops.
  const auto costs = streaming_costs(static_cast<double>(n * sizeof(T)),
                                     static_cast<double>(n * sizeof(T)),
                                     static_cast<double>(n));
  device_buffer<T> tmp(pol.device(), n, "pstlx::sort scratch");
  blocked_merge_sort<Stable, T, Comp>(
      first, n, comp, tmp.data(), queue_exec{&pol.queue(), costs});
}

}  // namespace detail

template <typename T, typename Comp = std::less<T>>
void sort(const stdparx::execution_policy& pol, T* first, T* last,
          Comp comp = {}) {
  detail::device_sort<false>(pol, first, last, comp);
}

template <typename T, typename Comp = std::less<T>>
void stable_sort(const stdparx::execution_policy& pol, T* first, T* last,
                 Comp comp = {}) {
  detail::device_sort<true>(pol, first, last, comp);
}

/// Stable device merge of two sorted ranges into out (std::merge
/// semantics: ties take from the first range first).
template <typename T, typename Comp = std::less<T>>
void merge(const stdparx::execution_policy& pol, const T* first1,
           const T* last1, const T* first2, const T* last2, T* out,
           Comp comp = {}) {
  pol.validate();
  const std::size_t na = static_cast<std::size_t>(last1 - first1);
  const std::size_t nb = static_cast<std::size_t>(last2 - first2);
  if (na + nb == 0) return;
  const auto costs = detail::streaming_costs(
      static_cast<double>((na + nb) * sizeof(T)),
      static_cast<double>((na + nb) * sizeof(T)),
      static_cast<double>(na + nb));
  detail::parallel_merge<T, Comp>(
      first1, na, first2, nb, out, comp,
      detail::queue_exec{&pol.queue(), costs});
}

}  // namespace mcmm::pstlx
