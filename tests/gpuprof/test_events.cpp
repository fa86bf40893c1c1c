// Profiler completeness property tests: every Queue::launch / memcpy /
// memset that runs while gpuprof is enabled must produce exactly one
// completed trace event (one begin/end pair) with begin <= end on both the
// simulated and the host clock — including under concurrent multi-queue
// submission from several host threads, nested (kernel-launches-kernel)
// submission from a worker thread, and both launch schedules.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "gpuprof/gpuprof.hpp"
#include "gpusim/device.hpp"

namespace mcmm::gpuprof {
namespace {

using gpusim::Device;
using gpusim::KernelCosts;
using gpusim::LaunchPolicy;
using gpusim::Queue;
using gpusim::Schedule;
using gpusim::WorkItem;
using gpusim::launch_1d;
using gpusim::tiny_test_device;

class ProfilerEvents : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    enable();
  }
  void TearDown() override {
    (void)finalize();
    reset();
  }
};

/// Structural invariants every trace must satisfy: all ops paired
/// (nothing left open), unique correlation ids, begin <= end on both
/// clocks, and markers zero-length on the simulated clock.
void expect_well_formed(const Trace& trace) {
  EXPECT_EQ(trace.incomplete, 0u);
  std::set<std::uint64_t> ids;
  for (const TraceEvent& e : trace.events) {
    EXPECT_TRUE(ids.insert(e.id).second) << "duplicate correlation id "
                                         << e.id;
    EXPECT_GE(e.id, 1u);
    EXPECT_LE(e.sim_begin_us, e.sim_end_us);
    EXPECT_LE(e.host_begin_us, e.host_end_us);
    if (e.kind == OpKind::EventRecord || e.kind == OpKind::Sync) {
      EXPECT_EQ(e.sim_begin_us, e.sim_end_us);
    }
  }
}

std::size_t count_kind(const Trace& trace, OpKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& e : trace.events) n += (e.kind == kind) ? 1 : 0;
  return n;
}

TEST_F(ProfilerEvents, EveryOpKindProducesExactlyOnePair) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  constexpr std::uint64_t n = 1024;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  std::vector<std::uint32_t> h(n, 7);

  q.memcpy(d, h.data(), n * sizeof(std::uint32_t),
           gpusim::CopyKind::HostToDevice);
  q.launch(launch_1d(n, 128), KernelCosts{}, [d](const WorkItem& item) {
    d[item.global_x()] *= 2;
  });
  q.memset(d, 0, n * sizeof(std::uint32_t));
  q.memcpy(h.data(), d, n * sizeof(std::uint32_t),
           gpusim::CopyKind::DeviceToHost);
  (void)q.record();
  q.synchronize();
  dev.deallocate(d);

  const Trace trace = snapshot();
  expect_well_formed(trace);
  EXPECT_EQ(trace.dropped, 0u);
  EXPECT_EQ(trace.events.size(), 6u);
  EXPECT_EQ(count_kind(trace, OpKind::MemcpyH2D), 1u);
  EXPECT_EQ(count_kind(trace, OpKind::Kernel), 1u);
  EXPECT_EQ(count_kind(trace, OpKind::Memset), 1u);
  EXPECT_EQ(count_kind(trace, OpKind::MemcpyD2H), 1u);
  EXPECT_EQ(count_kind(trace, OpKind::EventRecord), 1u);
  EXPECT_EQ(count_kind(trace, OpKind::Sync), 1u);
}

TEST_F(ProfilerEvents, BothSchedulesTraceIdentically) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  constexpr std::uint64_t n = 4096;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  for (const Schedule s : {Schedule::Static, Schedule::Dynamic}) {
    q.launch(
        launch_1d(n, 256), KernelCosts{},
        [d](const WorkItem& item) { d[item.global_x()] = 1; },
        LaunchPolicy{s, 0});
  }
  dev.deallocate(d);

  const Trace trace = snapshot();
  expect_well_formed(trace);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_NE(trace.events[0].launch.find("static"), std::string::npos);
  EXPECT_NE(trace.events[1].launch.find("dynamic"), std::string::npos);
  // The schedule is a host-side execution knob only: identical simulated
  // spans for the identical launch.
  EXPECT_EQ(trace.events[0].sim_duration_us(), trace.events[1].sim_duration_us());
}

TEST_F(ProfilerEvents, ConcurrentMultiQueueSubmission) {
  // Several host threads, each with its own device and two queues, all
  // tracing into the shared timeline. Every submitted op must come back as
  // exactly one completed event on the right per-queue lane.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr std::uint64_t n = 2048;
  // Devices (and so queues) outlive every thread: queue identity is
  // stable for the whole test, no address reuse across lanes.
  std::vector<std::unique_ptr<Device>> devices;
  std::vector<std::unique_ptr<Queue>> second_queues;
  for (int t = 0; t < kThreads; ++t) {
    devices.push_back(std::make_unique<Device>(tiny_test_device(1 << 20)));
    second_queues.push_back(devices.back()->create_queue());
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Device& dev = *devices[static_cast<std::size_t>(t)];
      Queue& q0 = dev.default_queue();
      Queue& q1 = *second_queues[static_cast<std::size_t>(t)];
      auto* d =
          static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
      for (int round = 0; round < kRounds; ++round) {
        q0.launch(launch_1d(n, 128), KernelCosts{},
                  [d](const WorkItem& item) { d[item.global_x()] += 1; });
        q1.memset(d, 0, n * sizeof(std::uint32_t));
      }
      dev.deallocate(d);
    });
  }
  for (std::thread& t : threads) t.join();

  const Trace trace = snapshot();
  expect_well_formed(trace);
  EXPECT_EQ(count_kind(trace, OpKind::Kernel),
            static_cast<std::size_t>(kThreads) * kRounds);
  EXPECT_EQ(count_kind(trace, OpKind::Memset),
            static_cast<std::size_t>(kThreads) * kRounds);
  // Kernels and memsets came from distinct queues: their tid lanes differ.
  std::set<std::uint32_t> kernel_lanes;
  std::set<std::uint32_t> memset_lanes;
  for (const TraceEvent& e : trace.events) {
    (e.kind == OpKind::Kernel ? kernel_lanes : memset_lanes).insert(e.queue_id);
  }
  EXPECT_EQ(kernel_lanes.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(memset_lanes.size(), static_cast<std::size_t>(kThreads));
  for (const std::uint32_t lane : kernel_lanes) {
    EXPECT_EQ(memset_lanes.count(lane), 0u);
  }
}

TEST_F(ProfilerEvents, NestedKernelLaunchesKernel) {
  // A kernel body submits an inner launch onto a *different* queue from a
  // worker thread (the engine supports nested submission). Both the outer
  // and the inner launch must trace as complete, distinct events.
  Device dev(tiny_test_device(1 << 20));
  Queue& outer = dev.default_queue();
  const auto inner = dev.create_queue();
  constexpr std::uint64_t n = 512;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  std::atomic<int> inner_launches{0};

  outer.launch(launch_1d(n, 64), KernelCosts{},
               [&, d](const WorkItem& item) {
                 if (item.global_x() == 0) {
                   gpusim::KernelLabelScope label("inner");
                   inner->launch(launch_1d(n, 64), KernelCosts{},
                                 [d](const WorkItem& it) {
                                   d[it.global_x()] = 9;
                                 });
                   inner_launches.fetch_add(1);
                 }
               });
  dev.deallocate(d);

  ASSERT_EQ(inner_launches.load(), 1);
  const Trace trace = snapshot();
  expect_well_formed(trace);
  ASSERT_EQ(count_kind(trace, OpKind::Kernel), 2u);
  bool saw_inner = false;
  for (const TraceEvent& e : trace.events) {
    if (e.name == "inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_inner) << "worker-thread launch lost its label";
}

TEST_F(ProfilerEvents, DisableStopsRecordingAndKeepsTimeline) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  constexpr std::uint64_t n = 256;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  q.launch(launch_1d(n, 64), KernelCosts{},
           [d](const WorkItem& item) { d[item.global_x()] = 1; });
  disable();
  EXPECT_FALSE(enabled());
  q.launch(launch_1d(n, 64), KernelCosts{},
           [d](const WorkItem& item) { d[item.global_x()] = 2; });
  dev.deallocate(d);

  const Trace trace = snapshot();
  EXPECT_EQ(count_kind(trace, OpKind::Kernel), 1u);
}

TEST_F(ProfilerEvents, EventCapCountsDropsInsteadOfGrowing) {
  (void)finalize();
  reset();
  Config cfg;
  cfg.max_events = 3;
  enable(cfg);

  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  constexpr std::uint64_t n = 128;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  for (int i = 0; i < 5; ++i) {
    q.launch(launch_1d(n, 64), KernelCosts{},
             [d](const WorkItem& item) { d[item.global_x()] = 1; });
  }
  dev.deallocate(d);

  const Trace trace = snapshot();
  EXPECT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.dropped, 2u);
  expect_well_formed(trace);
}

TEST_F(ProfilerEvents, QueueBuiltWhereAFreedOneLivedGetsItsOwnId) {
  // Two queues at one address, one after the other: a timeline keyed by
  // address would merge them into one row.
  Device dev(tiny_test_device(1 << 20));
  constexpr std::uint64_t n = 64;
  auto* d = static_cast<std::uint32_t*>(dev.allocate(n * sizeof(std::uint32_t)));
  std::optional<Queue> q;
  const void* addresses[2] = {};
  for (const void*& address : addresses) {
    q.emplace(dev);
    address = &*q;
    q->launch(launch_1d(n, 64), KernelCosts{},
              [d](const WorkItem& item) { d[item.global_x()] = 1; });
    q.reset();
  }
  dev.deallocate(d);
  ASSERT_EQ(addresses[0], addresses[1]);

  const Trace trace = snapshot();
  ASSERT_EQ(trace.events.size(), 2u);
  // Dense ids in first-seen order.
  EXPECT_EQ(trace.events[0].queue_id, 1u);
  EXPECT_EQ(trace.events[1].queue_id, 2u);
}

}  // namespace
}  // namespace mcmm::gpuprof
