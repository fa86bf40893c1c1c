// Kernel-graph capture & replay battery: stream capture into a linear
// chain, replay bit-identity (results and simulated clock) against the
// eager path, fusion of single-item runs, explicit-DAG construction with
// wavefront scheduling, the one-shot instantiate-time validation pass
// (cycles, launch limits, buffer lifetime, races between unordered
// nodes), capture-mode misuse errors, the multi-device Platform rails
// and the pool they hand their devices, P2P copy timing properties, and
// the profiler's folded graph attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gpuprof/gpuprof.hpp"
#include "gpusim/device.hpp"
#include "gpusim/graph.hpp"

namespace mcmm::gpusim {
namespace {

using mcmm::Vendor;

/// The BabelStream-shaped workload both paths run: init + reps x
/// (copy / mul / add / triad) with declared costs, ending in a memset of
/// a scratch area and a marker. Everything is inside, so a capture from
/// a fresh queue replays the eager clock arithmetic from T0 = 0.
struct StreamArrays {
  double* a;
  double* b;
  double* c;
  double* scratch;
};

void submit_stream(Queue& q, const StreamArrays& m, std::uint64_t n,
                   int reps) {
  KernelCosts one;
  one.bytes_read = static_cast<double>(n) * sizeof(double);
  one.bytes_written = static_cast<double>(n) * sizeof(double);
  KernelCosts two = one;
  two.bytes_read *= 2;
  KernelCosts triad = two;
  triad.flops = 2.0 * static_cast<double>(n);
  const double s = 0.4;
  double* a = m.a;
  double* b = m.b;
  double* c = m.c;
  {
    KernelLabelScope label("Init");
    q.launch(launch_1d(n, 256), one, [a, b, c](const WorkItem& it) {
      const std::size_t i = it.global_x();
      a[i] = 0.1;
      b[i] = 0.2;
      c[i] = 0.0;
    });
  }
  for (int r = 0; r < reps; ++r) {
    {
      KernelLabelScope label("Copy");
      q.launch(launch_1d(n, 256), one, [a, c](const WorkItem& it) {
        c[it.global_x()] = a[it.global_x()];
      });
    }
    {
      KernelLabelScope label("Mul");
      q.launch(launch_1d(n, 256), one, [b, c, s](const WorkItem& it) {
        b[it.global_x()] = s * c[it.global_x()];
      });
    }
    {
      KernelLabelScope label("Add");
      q.launch(launch_1d(n, 256), two, [a, b, c](const WorkItem& it) {
        c[it.global_x()] = a[it.global_x()] + b[it.global_x()];
      });
    }
    {
      KernelLabelScope label("Triad");
      q.launch(launch_1d(n, 256), triad, [a, b, c, s](const WorkItem& it) {
        a[it.global_x()] = b[it.global_x()] + s * c[it.global_x()];
      });
    }
  }
  q.memset(m.scratch, 0, n * sizeof(double));
  (void)q.record();
}

struct StreamRun {
  std::vector<double> a, b, c;
  double sim_us{0};
};

/// Runs the workload on a fresh device, eagerly or captured+replayed, and
/// reads the arrays back. The simulated time is recorded before the D2H
/// verification copies move the clock.
StreamRun run_stream(std::uint64_t n, int reps, bool graphed,
                     std::size_t* nodes_out = nullptr) {
  Device dev(tiny_test_device(std::size_t{64} << 20));
  Queue& q = dev.default_queue();
  StreamArrays m{};
  m.a = static_cast<double*>(dev.allocate(n * sizeof(double), "a"));
  m.b = static_cast<double*>(dev.allocate(n * sizeof(double), "b"));
  m.c = static_cast<double*>(dev.allocate(n * sizeof(double), "c"));
  m.scratch =
      static_cast<double*>(dev.allocate(n * sizeof(double), "scratch"));
  if (graphed) {
    Graph graph;
    q.begin_capture(graph);
    submit_stream(q, m, n, reps);
    const std::size_t captured = q.end_capture();
    if (nodes_out != nullptr) *nodes_out = captured;
    ExecutableGraph exec(graph, q);
    (void)exec.replay(q);
  } else {
    submit_stream(q, m, n, reps);
  }
  StreamRun out;
  out.sim_us = q.simulated_time_us();
  out.a.resize(n);
  out.b.resize(n);
  out.c.resize(n);
  q.memcpy(out.a.data(), m.a, n * sizeof(double), CopyKind::DeviceToHost);
  q.memcpy(out.b.data(), m.b, n * sizeof(double), CopyKind::DeviceToHost);
  q.memcpy(out.c.data(), m.c, n * sizeof(double), CopyKind::DeviceToHost);
  dev.deallocate(m.scratch);
  dev.deallocate(m.c);
  dev.deallocate(m.b);
  dev.deallocate(m.a);
  return out;
}

TEST(GraphCapture, ReplayIsBitIdenticalToEager) {
  constexpr std::uint64_t n = 1 << 14;
  constexpr int reps = 3;
  std::size_t nodes = 0;
  const StreamRun eager = run_stream(n, reps, false);
  const StreamRun replay = run_stream(n, reps, true, &nodes);
  // init + reps*4 kernels + memset + record marker.
  EXPECT_EQ(nodes, 1u + 4u * reps + 2u);
  EXPECT_EQ(std::memcmp(eager.a.data(), replay.a.data(),
                        n * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(eager.b.data(), replay.b.data(),
                        n * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(eager.c.data(), replay.c.data(),
                        n * sizeof(double)),
            0);
  // Not approximately: the same FP additions in the same order.
  EXPECT_EQ(eager.sim_us, replay.sim_us);
}

TEST(GraphCapture, CaptureRecordsWithoutExecutingOrAdvancingClock) {
  constexpr std::uint64_t n = 1024;
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
  q.memset(d, 0, n * sizeof(double));
  const double before = q.simulated_time_us();
  // Replay runs the body on several pool threads.
  std::atomic<int> host_hits{0};
  Graph graph;
  q.begin_capture(graph);
  EXPECT_TRUE(q.capturing());
  EXPECT_TRUE(graph.capturing());
  q.launch(launch_1d(n, 128), KernelCosts{},
           [d, &host_hits](const WorkItem& it) {
             d[it.global_x()] = 1.0;
             ++host_hits;
           });
  EXPECT_EQ(q.end_capture(), 1u);
  EXPECT_FALSE(q.capturing());
  EXPECT_EQ(host_hits.load(), 0) << "capture mode must record, not execute";
  EXPECT_EQ(q.simulated_time_us(), before)
      << "capture mode must not advance the simulated clock";
  ExecutableGraph exec(graph, q);
  (void)exec.replay(q);
  EXPECT_EQ(host_hits.load(), static_cast<int>(n));
  std::vector<double> h(n);
  q.memcpy(h.data(), d, n * sizeof(double), CopyKind::DeviceToHost);
  EXPECT_EQ(h.front(), 1.0);
  EXPECT_EQ(h.back(), 1.0);
  dev.deallocate(d);
}

TEST(GraphCapture, SingleItemChainFusesIntoOneWavePerNode) {
  // 50 single-item kernels of one body type: capture chains them, the
  // executable fuses them, and replay still runs them in order (the
  // recurrence x_{k+1} = 2x_k + 1 is order-sensitive and exact in double
  // up to k = 52).
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<double*>(dev.allocate(sizeof(double)));
  q.memset(d, 0, sizeof(double));
  Graph graph;
  q.begin_capture(graph);
  for (int i = 0; i < 50; ++i) {
    q.launch(launch_1d(1, 1), KernelCosts{},
             [d](const WorkItem&) { *d = *d * 2.0 + 1.0; });
  }
  EXPECT_EQ(q.end_capture(), 50u);
  ExecutableGraph exec(graph, q);
  EXPECT_EQ(exec.node_count(), 50u);
  EXPECT_EQ(exec.wave_count(), 50u) << "a captured chain is linear";
  (void)exec.replay(q);
  double h = 0;
  q.memcpy(&h, d, sizeof(double), CopyKind::DeviceToHost);
  EXPECT_EQ(h, std::ldexp(1.0, 50) - 1.0);
  dev.deallocate(d);
}

TEST(GraphCapture, ReplayIsRepeatable) {
  // A graph writing a pure function of its inputs replays any number of
  // times with the same result; each replay advances the clock by the
  // same baked duration.
  constexpr std::uint64_t n = 4096;
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
  Graph graph;
  q.begin_capture(graph);
  q.launch(launch_1d(n, 256), KernelCosts{}, [d](const WorkItem& it) {
    d[it.global_x()] = static_cast<double>(it.global_x()) * 0.5;
  });
  (void)q.end_capture();
  ExecutableGraph exec(graph, q);
  const double t0 = q.simulated_time_us();
  const Event e1 = exec.replay(q);
  const Event e2 = exec.replay(q);
  EXPECT_EQ(e1.sim_end_us - e1.sim_begin_us, e2.sim_end_us - e2.sim_begin_us);
  EXPECT_EQ(q.simulated_time_us(), t0 + 2 * exec.duration_us());
  std::vector<double> h(n);
  q.memcpy(h.data(), d, n * sizeof(double), CopyKind::DeviceToHost);
  EXPECT_EQ(h[100], 50.0);
  dev.deallocate(d);
}

TEST(GraphExplicit, DiamondDagRunsInWavefronts) {
  // a -> {b, c} -> d: 3 waves, and d observes both branch writes.
  constexpr std::uint64_t n = 1024;
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* x = static_cast<double*>(dev.allocate(n * sizeof(double), "x"));
  auto* y = static_cast<double*>(dev.allocate(n * sizeof(double), "y"));
  auto* z = static_cast<double*>(dev.allocate(n * sizeof(double), "z"));
  const std::size_t bytes = n * sizeof(double);

  Graph graph;
  GraphAccess init_access;
  init_access.writes = {{x, bytes}};
  const NodeId a = graph.add_kernel(
      launch_1d(n, 128), KernelCosts{},
      [x](const WorkItem& it) { x[it.global_x()] = 1.0; }, init_access, {},
      {}, "seed");
  GraphAccess b_access;
  b_access.reads = {{x, bytes}};
  b_access.writes = {{y, bytes}};
  const NodeId b = graph.add_kernel(
      launch_1d(n, 128), KernelCosts{},
      [x, y](const WorkItem& it) { y[it.global_x()] = x[it.global_x()] + 1; },
      b_access, {a});
  GraphAccess c_access;
  c_access.reads = {{x, bytes}};
  c_access.writes = {{z, bytes}};
  const NodeId c = graph.add_kernel(
      launch_1d(n, 128), KernelCosts{},
      [x, z](const WorkItem& it) { z[it.global_x()] = x[it.global_x()] * 3; },
      c_access, {a});
  GraphAccess d_access;
  d_access.reads = {{y, bytes}, {z, bytes}};
  d_access.writes = {{x, bytes}};
  const NodeId d = graph.add_kernel(
      launch_1d(n, 128), KernelCosts{},
      [x, y, z](const WorkItem& it) {
        x[it.global_x()] = y[it.global_x()] + z[it.global_x()];
      },
      d_access, {b});
  graph.add_dependency(c, d);

  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.node_label(a), "seed");
  EXPECT_EQ(graph.node_deps(d), (std::vector<NodeId>{b, c}));

  const GraphValidation v = validate_graph(graph, dev);
  EXPECT_TRUE(v.clean());
  // b/c is the only unordered pair with declared accesses.
  EXPECT_EQ(v.pairs_checked, 1u);

  ExecutableGraph exec(graph, q);
  EXPECT_EQ(exec.wave_count(), 3u);
  (void)exec.replay(q);
  std::vector<double> h(n);
  q.memcpy(h.data(), x, bytes, CopyKind::DeviceToHost);
  EXPECT_EQ(h[0], 5.0);  // (1+1) + (1*3)
  dev.deallocate(z);
  dev.deallocate(y);
  dev.deallocate(x);
}

TEST(GraphExplicit, MemcpyMemsetAndMarkerNodes) {
  constexpr std::uint64_t n = 512;
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
  std::vector<double> src(n, 7.0);
  std::vector<double> dst(n, 0.0);
  const std::size_t bytes = n * sizeof(double);

  Graph graph;
  const NodeId clear = graph.add_memset(d, 0, bytes);
  const NodeId up =
      graph.add_memcpy(d, src.data(), bytes / 2, CopyKind::HostToDevice,
                       {clear});
  const NodeId mark = graph.add_marker({up}, "halfway");
  (void)graph.add_memcpy(dst.data(), d, bytes, CopyKind::DeviceToHost,
                         {mark});
  EXPECT_EQ(graph.node_kind(mark), GraphNodeKind::Marker);

  ExecutableGraph exec(graph, q);
  EXPECT_EQ(exec.node_count(), 4u);
  (void)exec.replay(q);
  EXPECT_EQ(dst[0], 7.0);
  EXPECT_EQ(dst[n / 2 - 1], 7.0);
  EXPECT_EQ(dst[n / 2], 0.0);
  dev.deallocate(d);
}

TEST(GraphErrors, PeerCopiesAreNotGraphable) {
  Graph graph;
  double a = 0;
  double b = 0;
  EXPECT_THROW(
      (void)graph.add_memcpy(&a, &b, sizeof(double), CopyKind::PeerToPeer),
      GraphError);
}

TEST(GraphErrors, CaptureMisuse) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();

  // Ending a capture that never began.
  EXPECT_THROW((void)q.end_capture(), CaptureError);

  // Capturing into a non-empty graph.
  Graph prebuilt;
  (void)prebuilt.add_marker();
  EXPECT_THROW(q.begin_capture(prebuilt), CaptureError);

  Graph graph;
  q.begin_capture(graph);

  // Capture-while-capturing: same queue, and a second queue into the
  // same graph.
  EXPECT_THROW(q.begin_capture(graph), CaptureError);
  const std::unique_ptr<Queue> q2 = dev.create_queue();
  EXPECT_THROW(q2->begin_capture(graph), CaptureError);

  // Explicit building while a capture session owns the graph.
  EXPECT_THROW((void)graph.add_marker(), CaptureError);

  // P2P submission while capturing.
  auto* d = static_cast<double*>(dev.allocate(sizeof(double)));
  EXPECT_THROW((void)q.memcpy_peer(d, dev, d, sizeof(double)),
               CaptureError);

  // Replaying through a capturing queue.
  Graph other;
  {
    const std::unique_ptr<Queue> q3 = dev.create_queue();
    q3->begin_capture(other);
    (void)q3->record();
    (void)q3->end_capture();
  }
  ExecutableGraph exec(other, *q2);
  EXPECT_THROW((void)exec.replay(q), CaptureError);

  EXPECT_EQ(q.end_capture(), 0u);
  (void)exec.replay(q);  // queue released from capture: replay is legal
  dev.deallocate(d);
}

TEST(GraphErrors, ReplayOnWrongDeviceThrows) {
  Device dev_a(tiny_test_device(1 << 20));
  Device dev_b(tiny_test_device(1 << 20));
  Graph graph;
  (void)graph.add_marker();
  ExecutableGraph exec(graph, dev_a.default_queue());
  EXPECT_THROW((void)exec.replay(dev_b.default_queue()), GraphError);
}

TEST(GraphValidationPass, CycleIsReported) {
  Device dev(tiny_test_device(1 << 20));
  Graph graph;
  const NodeId a = graph.add_marker();
  const NodeId b = graph.add_marker({a});
  graph.add_dependency(b, a);  // closes the loop
  const GraphValidation v = validate_graph(graph, dev);
  ASSERT_EQ(v.findings.size(), 1u);
  EXPECT_EQ(v.findings[0].kind, "cycle");
  EXPECT_THROW(ExecutableGraph(graph, dev.default_queue()),
               GraphValidationError);
}

TEST(GraphValidationPass, FreedBufferIsReported) {
  constexpr std::uint64_t n = 256;
  Device dev(tiny_test_device(1 << 20));
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double), "doomed"));
  Graph graph;
  (void)graph.add_memset(d, 0, n * sizeof(double));
  dev.deallocate(d);  // freed between build and instantiate
  const GraphValidation v = validate_graph(graph, dev);
  ASSERT_EQ(v.findings.size(), 1u);
  EXPECT_EQ(v.findings[0].kind, "freed-buffer");
  EXPECT_NE(v.findings[0].message.find("doomed"), std::string::npos);
  try {
    ExecutableGraph exec(graph, dev.default_queue());
    FAIL() << "instantiate must throw on a freed buffer";
  } catch (const GraphValidationError& e) {
    ASSERT_EQ(e.validation().findings.size(), 1u);
    EXPECT_EQ(e.validation().findings[0].kind, "freed-buffer");
  }
}

TEST(GraphValidationPass, InvalidLaunchAndDirectionMismatch) {
  constexpr std::uint64_t n = 256;
  Device dev(tiny_test_device(1 << 20));
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
  std::vector<double> h(n);

  Graph graph;
  LaunchConfig cfg = launch_1d(n, 128);
  cfg.block.x = 4096;  // over max_threads_per_block (1024 on the H100-like)
  (void)graph.add_kernel(cfg, KernelCosts{}, [](const WorkItem&) {});
  // H2D whose source is device memory.
  (void)graph.add_memcpy(h.data(), d, n * sizeof(double),
                         CopyKind::HostToDevice);
  const GraphValidation v = validate_graph(graph, dev);
  std::vector<std::string> kinds;
  for (const GraphFinding& f : v.findings) kinds.push_back(f.kind);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "invalid-launch"),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "direction-mismatch"),
            kinds.end());
  dev.deallocate(d);
}

TEST(GraphValidationPass, RaceBetweenUnorderedNodesIsCaught) {
  // Two kernels with no ordering edge whose declared writes overlap: the
  // one-shot validation pass must flag the pair (this is the per-launch
  // gpusan race check moved to instantiate time). Adding the missing
  // dependency makes the same graph clean.
  constexpr std::uint64_t n = 1024;
  Device dev(tiny_test_device(1 << 20));
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double), "shared"));
  const std::size_t bytes = n * sizeof(double);

  const auto build = [&](bool ordered) {
    Graph graph;
    GraphAccess w;
    w.writes = {{d, bytes}};
    const NodeId a = graph.add_kernel(
        launch_1d(n, 128), KernelCosts{},
        [d](const WorkItem& it) { d[it.global_x()] = 1.0; }, w, {}, {},
        "writer-a");
    (void)graph.add_kernel(
        launch_1d(n, 128), KernelCosts{},
        [d](const WorkItem& it) { d[it.global_x()] = 2.0; }, w,
        ordered ? std::vector<NodeId>{a} : std::vector<NodeId>{}, {},
        "writer-b");
    return graph;
  };

  const Graph racy = build(false);
  const GraphValidation v = validate_graph(racy, dev);
  ASSERT_EQ(v.findings.size(), 1u);
  EXPECT_EQ(v.findings[0].kind, "race");
  EXPECT_NE(v.findings[0].message.find("write-write"), std::string::npos);
  EXPECT_NE(v.findings[0].message.find("writer-a"), std::string::npos);
  EXPECT_EQ(v.pairs_checked, 1u);
  EXPECT_THROW(ExecutableGraph(racy, dev.default_queue()),
               GraphValidationError);

  const Graph fixed = build(true);
  const GraphValidation ok = validate_graph(fixed, dev);
  EXPECT_TRUE(ok.clean());
  EXPECT_EQ(ok.pairs_checked, 0u) << "ordered pairs are not race candidates";
  dev.deallocate(d);
}

TEST(GraphValidationPass, DisjointWritesAreNotARace) {
  constexpr std::uint64_t n = 1024;
  Device dev(tiny_test_device(1 << 20));
  auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
  const std::size_t half = n / 2 * sizeof(double);
  Graph graph;
  GraphAccess lo;
  lo.writes = {{d, half}};
  GraphAccess hi;
  hi.writes = {{d + n / 2, half}};
  (void)graph.add_kernel(launch_1d(n / 2, 128), KernelCosts{},
                         [](const WorkItem&) {}, lo);
  (void)graph.add_kernel(launch_1d(n / 2, 128), KernelCosts{},
                         [](const WorkItem&) {}, hi);
  const GraphValidation v = validate_graph(graph, dev);
  EXPECT_TRUE(v.clean());
  EXPECT_EQ(v.pairs_checked, 1u);
  dev.deallocate(d);
}

// ---------------------------------------------------------------------------
// Multi-device Platform rails and P2P copies.

TEST(MultiDevice, PlatformGrowsDenseOrdinalRails) {
  Platform& p = Platform::instance();
  p.trim_devices(Vendor::AMD, 0);
  EXPECT_EQ(p.device_count(Vendor::AMD), 0u);
  EXPECT_EQ(p.try_device(Vendor::AMD, 1), nullptr);

  Device& d2 = p.device(Vendor::AMD, 2);
  EXPECT_EQ(p.device_count(Vendor::AMD), 3u) << "lower ordinals materialize";
  EXPECT_EQ(d2.ordinal(), 2u);
  const std::vector<Device*> rail = p.devices_of(Vendor::AMD);
  ASSERT_EQ(rail.size(), 3u);
  const std::string base = rail[0]->descriptor().name;
  EXPECT_EQ(rail[0]->ordinal(), 0u);
  EXPECT_EQ(rail[1]->descriptor().name, base + " #1");
  EXPECT_EQ(rail[2]->descriptor().name, base + " #2");
  EXPECT_EQ(p.try_device(Vendor::AMD, 1), rail[1]);
  EXPECT_EQ(&p.device(Vendor::AMD, 1), rail[1]) << "repeat lookups are stable";

  p.trim_devices(Vendor::AMD, 1);
  EXPECT_EQ(p.device_count(Vendor::AMD), 1u);
  EXPECT_EQ(p.try_device(Vendor::AMD, 2), nullptr);
  p.trim_devices(Vendor::AMD, 0);
  (void)p.device(Vendor::AMD, 0);  // restore the default rail
}

TEST(MultiDevice, RailKeepsItsPoolAcrossResetsAndGrowth) {
  Platform& p = Platform::instance();
  ThreadPool pool(1);
  p.trim_devices(Vendor::AMD, 1);
  (void)p.reset_device(Vendor::AMD, descriptor_for(Vendor::AMD), 0, &pool);
  (void)p.reset_device(Vendor::AMD, descriptor_for(Vendor::AMD));
  EXPECT_EQ(&p.device(Vendor::AMD).pool(), &pool) << "a reset keeps the pool";
  EXPECT_EQ(&p.device(Vendor::AMD, 2).pool(), &pool) << "growth inherits it";
  EXPECT_EQ(&p.device(Vendor::AMD).default_queue().pool(), &pool);
  EXPECT_EQ(&p.device(Vendor::AMD).create_queue()->pool(), &pool);

  // Back on the default pool before `pool` dies.
  p.trim_devices(Vendor::AMD, 1);
  (void)p.reset_device(Vendor::AMD, descriptor_for(Vendor::AMD), 0,
                       &ThreadPool::global());
  EXPECT_EQ(&p.device(Vendor::AMD, 1).pool(), &ThreadPool::global());
  p.trim_devices(Vendor::AMD, 1);
}

TEST(MultiDevice, PeerCopyMovesBytesAndBillsTheLink) {
  constexpr std::uint64_t n = 1 << 16;
  const std::size_t bytes = n * sizeof(double);
  Device src(descriptor_for(Vendor::NVIDIA), 0);
  Device dst(DeviceDescriptor{descriptor_for(Vendor::NVIDIA)}, 1);
  auto* s = static_cast<double*>(src.allocate(bytes));
  auto* d = static_cast<double*>(dst.allocate(bytes));
  std::vector<double> h(n, 3.25);
  Queue& q = src.default_queue();
  q.memcpy(s, h.data(), bytes, CopyKind::HostToDevice);

  const double before = q.simulated_time_us();
  const Event e = q.memcpy_peer(d, dst, s, bytes);
  const double expected =
      p2p_time_us(src.descriptor(), dst.descriptor(),
                  static_cast<double>(bytes));
  EXPECT_EQ(e.sim_begin_us, before);
  // Compared as `before + expected` (the clock's own FP addition), not as
  // an end-minus-begin difference, which loses a ULP.
  EXPECT_EQ(e.sim_end_us, before + expected);
  EXPECT_EQ(q.simulated_time_us(), before + expected)
      << "the source queue's clock pays for the transfer";
  EXPECT_EQ(dst.default_queue().simulated_time_us(), 0.0)
      << "the destination queue is not billed";

  std::vector<double> back(n, 0.0);
  dst.default_queue().memcpy(back.data(), d, bytes, CopyKind::DeviceToHost);
  EXPECT_EQ(std::memcmp(back.data(), h.data(), bytes), 0);
  dst.deallocate(d);
  src.deallocate(s);
}

TEST(MultiDevice, PeerTimingProperties) {
  const DeviceDescriptor nv = descriptor_for(Vendor::NVIDIA);
  const DeviceDescriptor amd = descriptor_for(Vendor::AMD);
  // Monotone in bytes.
  EXPECT_LT(p2p_time_us(nv, nv, 1 << 10), p2p_time_us(nv, nv, 1 << 20));
  // Symmetric, and bounded by the slower endpoint's link.
  EXPECT_EQ(p2p_time_us(nv, amd, 1 << 20), p2p_time_us(amd, nv, 1 << 20));
  const double cross = p2p_time_us(nv, amd, 1 << 20);
  const double slow_link = p2p_time_us(amd, amd, 1 << 20);
  EXPECT_EQ(cross - std::max(nv.copy_latency_us, amd.copy_latency_us),
            slow_link - amd.copy_latency_us);
  // Device-initiated over the fabric beats staging through the host for
  // large transfers on every vendor (one latency hop, faster link).
  for (const Vendor v : {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA}) {
    const DeviceDescriptor d = descriptor_for(v);
    const double direct = p2p_time_us(d, d, double{1 << 24});
    const double staged = 2.0 * copy_time_us(d, double{1 << 24});
    EXPECT_LT(direct, staged) << to_string(v);
  }
}

TEST(MultiDevice, SameDevicePeerCopyDegradesToD2D) {
  constexpr std::size_t bytes = std::size_t{1} << 16;
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* a = static_cast<double*>(dev.allocate(bytes));
  auto* b = static_cast<double*>(dev.allocate(bytes));
  q.memset(a, 0, bytes);
  const double before = q.simulated_time_us();
  (void)q.memcpy_peer(b, dev, a, bytes);
  EXPECT_EQ(q.simulated_time_us(),
            before + d2d_time_us(dev.descriptor(),
                                 static_cast<double>(bytes)))
      << "no inter-device link to bill on one device";
  dev.deallocate(b);
  dev.deallocate(a);
}

// ---------------------------------------------------------------------------
// Profiler integration: one GraphReplay event per replay, folded per-node
// attribution matching the eager per-launch rows.

TEST(GraphProfiler, OneReplayEventWithFoldedAttribution) {
  constexpr std::uint64_t n = 1 << 12;
  constexpr int reps = 2;

  const auto run = [&](bool graphed) {
    return mcmm::gpuprof::capture_trace([&] {
      Device dev(tiny_test_device(std::size_t{16} << 20));
      Queue& q = dev.default_queue();
      StreamArrays m{};
      m.a = static_cast<double*>(dev.allocate(n * sizeof(double)));
      m.b = static_cast<double*>(dev.allocate(n * sizeof(double)));
      m.c = static_cast<double*>(dev.allocate(n * sizeof(double)));
      m.scratch = static_cast<double*>(dev.allocate(n * sizeof(double)));
      if (graphed) {
        Graph graph;
        q.begin_capture(graph);
        submit_stream(q, m, n, reps);
        (void)q.end_capture();
        ExecutableGraph exec(graph, q);
        (void)exec.replay(q);
      } else {
        submit_stream(q, m, n, reps);
      }
      dev.deallocate(m.scratch);
      dev.deallocate(m.c);
      dev.deallocate(m.b);
      dev.deallocate(m.a);
    });
  };

  const mcmm::gpuprof::Trace eager = run(false);
  const mcmm::gpuprof::Trace replay = run(true);

  std::size_t replay_events = 0;
  for (const mcmm::gpuprof::TraceEvent& e : replay.events) {
    EXPECT_NE(e.kind, mcmm::gpuprof::OpKind::Kernel)
        << "replay must not emit per-node kernel events";
    if (e.kind == mcmm::gpuprof::OpKind::GraphReplay) ++replay_events;
  }
  EXPECT_EQ(replay_events, 1u);
  EXPECT_FALSE(replay.folded.empty());

  // The folded rows aggregate to the same per-kernel attribution the
  // eager path reports row by row.
  const auto summarize = [](const mcmm::gpuprof::Trace& t) {
    std::vector<std::string> rows;
    for (const mcmm::gpuprof::KernelSummary& s : t.kernel_summaries()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s launches=%llu items=%llu bytes=%.0f",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.launches),
                    static_cast<unsigned long long>(s.items), s.bytes);
      rows.push_back(buf);
    }
    std::sort(rows.begin(), rows.end());  // grouping order is not contractual
    return rows;
  };
  EXPECT_EQ(summarize(eager), summarize(replay));

  // Simulated end-to-end span matches the eager timeline too.
  double eager_end = 0;
  double replay_end = 0;
  for (const auto& e : eager.events) {
    eager_end = std::max(eager_end, e.sim_end_us);
  }
  for (const auto& e : replay.events) {
    replay_end = std::max(replay_end, e.sim_end_us);
  }
  EXPECT_EQ(eager_end, replay_end);
}

}  // namespace
}  // namespace mcmm::gpusim
