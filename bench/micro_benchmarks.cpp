// google-benchmark microbenchmarks of the substrate itself: wall-clock
// cost of the simulator's primitives (allocator, launch machinery, queue
// ops, translators, renderers). These measure the *host* cost of the
// simulation — complementary to the simulated-time figures.
//
// The binary also carries the engine A/B harness: it re-runs the key
// launch paths against an in-process replica of the seed execution engine
// (bench/engine_baseline.hpp) and writes machine-readable speedup numbers
// to BENCH_gpusim.json. Flags (stripped before google-benchmark sees
// argv):
//
//   --engine-json=PATH       output path (default: BENCH_gpusim.json)
//   --engine-triad-log2n=K   Triad problem size 2^K (default: 24)
//   --engine-reps=R          repetitions per Triad measurement (default: 3)
//   --engine-only            run only the A/B harness, skip google-benchmark

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "gpusim/graph.hpp"

#include "bench_support/stream.hpp"
#include "bench_support/stream_kernels.hpp"
#include "data/dataset.hpp"
#include "engine_baseline.hpp"
#include "gpuprof/gpuprof.hpp"
#include "gpusim/device.hpp"
#include "render/render.hpp"
#include "translate/translate.hpp"
#include "yamlx/matrix_yaml.hpp"

namespace {

using namespace mcmm;

void BM_AllocatorAllocFree(benchmark::State& state) {
  gpusim::Device dev(gpusim::tiny_test_device(1 << 30));
  for (auto _ : state) {
    void* p = dev.allocate(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(p);
    dev.deallocate(p);
  }
}
BENCHMARK(BM_AllocatorAllocFree)->Range(64, 1 << 20);

void BM_KernelLaunchOverhead(benchmark::State& state) {
  gpusim::Device dev(gpusim::tiny_test_device(1 << 20));
  gpusim::Queue& q = dev.default_queue();
  for (auto _ : state) {
    q.launch(gpusim::launch_1d(1, 1), gpusim::KernelCosts{},
             [](const gpusim::WorkItem&) {});
  }
}
BENCHMARK(BM_KernelLaunchOverhead);

void BM_KernelElementThroughput(benchmark::State& state) {
  gpusim::Device dev(gpusim::tiny_test_device(1 << 28));
  gpusim::Queue& q = dev.default_queue();
  const auto n = static_cast<std::size_t>(state.range(0));
  auto* data = static_cast<double*>(dev.allocate(n * sizeof(double)));
  for (auto _ : state) {
    q.launch(gpusim::launch_1d(n, 256), gpusim::KernelCosts{},
             [data, n](const gpusim::WorkItem& item) {
               const std::size_t i = item.global_x();
               if (i < n) data[i] = data[i] * 1.000001 + 0.5;
             });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  dev.deallocate(data);
}
BENCHMARK(BM_KernelElementThroughput)->Range(1 << 10, 1 << 20);

void BM_QueueMemcpyH2D(benchmark::State& state) {
  gpusim::Device dev(gpusim::tiny_test_device(1 << 28));
  gpusim::Queue& q = dev.default_queue();
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<char> host(bytes);
  void* d = dev.allocate(bytes);
  for (auto _ : state) {
    q.memcpy(d, host.data(), bytes, gpusim::CopyKind::HostToDevice);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  dev.deallocate(d);
}
BENCHMARK(BM_QueueMemcpyH2D)->Range(1 << 10, 1 << 24);

void BM_DatasetBuild(benchmark::State& state) {
  for (auto _ : state) {
    const CompatibilityMatrix m = data::build_paper_matrix();
    benchmark::DoNotOptimize(m.entry_count());
  }
}
BENCHMARK(BM_DatasetBuild);

void BM_RenderFigure1Text(benchmark::State& state) {
  const CompatibilityMatrix& m = data::paper_matrix();
  for (auto _ : state) {
    const std::string s = render::figure1_text(m);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_RenderFigure1Text);

void BM_YamlRoundTrip(benchmark::State& state) {
  const CompatibilityMatrix& m = data::paper_matrix();
  for (auto _ : state) {
    const CompatibilityMatrix round =
        yamlx::matrix_from_yaml_text(yamlx::matrix_to_yaml_text(m));
    benchmark::DoNotOptimize(round.entry_count());
  }
}
BENCHMARK(BM_YamlRoundTrip);

void BM_Hipify(benchmark::State& state) {
  const std::string source =
      "cudaMalloc(&p, n); cudaMemcpy(d, h, n, cudaMemcpyHostToDevice); "
      "cudax::cudaLaunch(grid, block, kernel, a, b, c); "
      "cublasSaxpy(handle, n, &alpha, x, 1, y, 1); cudaFree(p);";
  for (auto _ : state) {
    const auto r = translate::hipify(source);
    benchmark::DoNotOptimize(r.code.size());
  }
}
BENCHMARK(BM_Hipify);

void BM_StreamTriadFullCycle(benchmark::State& state) {
  auto benches = bench::stream_benchmarks_for(Vendor::NVIDIA);
  bench::StreamBenchmark& native = *benches.front();
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto results = bench::run_stream(native, n, 1);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_StreamTriadFullCycle)->Range(1 << 12, 1 << 18);

// ---------------------------------------------------------------------------
// Engine A/B harness: rebuilt engine vs the seed replica, one process.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct EngineReport {
  // Per-launch host overhead, empty kernel, N=1 (nanoseconds).
  double launch_overhead_ns_engine{0};
  double launch_overhead_ns_seed{0};
  // BabelStream Triad host wall-clock per repetition (milliseconds).
  std::uint64_t triad_n{0};
  int triad_reps{0};
  double triad_ms_engine{0};
  double triad_ms_seed{0};
  // Dynamic vs static self-scheduling on 64 deliberately-uneven chunks.
  double uneven_ms_static{0};
  double uneven_ms_dynamic{0};
  bool sim_time_identical{false};
  bool results_identical{false};
  // gpuprof A/B: per-launch overhead with hooks never installed, with the
  // profiler tracing, and after disable() (the hooks-off path must cost
  // the same whether gpuprof was ever on or not).
  double profiler_off_ns{0};
  double profiler_on_ns{0};
  double profiler_after_disable_ns{0};
  // Graph replay A/B: per-node host overhead of replaying a pre-compiled
  // kernel chain vs eager launches of the same chain, plus the BabelStream
  // capture/replay identity check (results and simulated clock must match
  // the eager run bit-for-bit).
  std::uint64_t graph_nodes{0};
  double graph_eager_ns{0};   ///< eager ns per launch over the chain
  double graph_replay_ns{0};  ///< replay ns per node over the chain
  std::uint64_t graph_stream_n{0};
  bool graph_results_identical{false};
  bool graph_sim_time_identical{false};
  // Multi-device weak scaling: the Triad cycle on 1/2/4 devices at a fixed
  // n per device, with a P2P gather back to device 0.
  std::uint64_t md_n{0};
  double md_sim_us_1{0};
  double md_sim_us_2{0};
  double md_sim_us_4{0};
  double md_p2p_us{0};  ///< gather peer-link time of the 4-device run
  bool md_results_identical{false};
};

/// gpuprof A/B: the disabled-path guarantee (hooks off = one atomic load
/// + branch) and the price of tracing. Mutates only gpuprof state; runs
/// after the engine harness so its enable/disable cannot perturb those
/// numbers.
void run_profiler_harness(EngineReport& rep) {
  constexpr int kLaunches = 40000;
  constexpr int kTimingReps = 5;
  const gpusim::DeviceDescriptor descriptor =
      gpusim::tiny_test_device(std::size_t{1} << 20);
  gpusim::Device dev(descriptor);
  gpusim::Queue& q = dev.default_queue();
  const gpusim::LaunchConfig cfg = gpusim::launch_1d(1, 1);
  const gpusim::KernelCosts empty{};
  const auto body = [](const gpusim::WorkItem&) {};

  // Min-of-reps, the same estimator as the engine launch-overhead A/B.
  const auto measure = [&] {
    for (int i = 0; i < 1000; ++i) q.launch(cfg, empty, body);
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < kTimingReps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kLaunches; ++i) q.launch(cfg, empty, body);
      best = std::min(best, seconds_since(t0) * 1e9 / kLaunches);
    }
    return best;
  };

  rep.profiler_off_ns = measure();
  gpuprof::Config cfg_prof;
  // Room for every traced launch: drops would short-circuit the hooks
  // and understate the tracing price.
  cfg_prof.max_events =
      std::size_t{2} * kTimingReps * kLaunches + 4096;
  gpuprof::enable(cfg_prof);
  rep.profiler_on_ns = measure();
  (void)gpuprof::finalize();
  gpuprof::reset();
  rep.profiler_after_disable_ns = measure();
}

[[nodiscard]] EngineReport run_engine_harness(std::uint64_t triad_n,
                                              int triad_reps) {
  EngineReport rep;
  rep.triad_n = triad_n;
  rep.triad_reps = triad_reps;

  const gpusim::DeviceDescriptor descriptor =
      gpusim::tiny_test_device(std::size_t{1} << 20);

  // --- Launch overhead: empty kernel, N=1, per-launch nanoseconds.
  // Min over several repetitions: robust against scheduler interference
  // on small shared machines, and the same estimator the gpuprof A/B
  // uses, so its hooks-off number is directly comparable. ---
  constexpr int kLaunches = 40000;
  constexpr int kTimingReps = 5;
  {
    gpusim::Device dev(descriptor);
    gpusim::Queue& q = dev.default_queue();
    bench::baseline::SeedThreadPool seed_pool;
    bench::baseline::SeedQueue seed_q(descriptor, seed_pool);
    const gpusim::LaunchConfig cfg = gpusim::launch_1d(1, 1);
    const gpusim::KernelCosts empty{};
    const auto body = [](const gpusim::WorkItem&) {};
    // Warm-up, then measure; seed replica first so the rebuilt engine
    // cannot benefit from cache warm-up order.
    for (int i = 0; i < 1000; ++i) {
      seed_q.launch(cfg, empty, body);
      q.launch(cfg, empty, body);
    }
    rep.launch_overhead_ns_seed = std::numeric_limits<double>::max();
    for (int r = 0; r < kTimingReps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kLaunches; ++i) seed_q.launch(cfg, empty, body);
      rep.launch_overhead_ns_seed = std::min(
          rep.launch_overhead_ns_seed, seconds_since(t0) * 1e9 / kLaunches);
    }
    rep.launch_overhead_ns_engine = std::numeric_limits<double>::max();
    for (int r = 0; r < kTimingReps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kLaunches; ++i) q.launch(cfg, empty, body);
      rep.launch_overhead_ns_engine = std::min(
          rep.launch_overhead_ns_engine, seconds_since(t0) * 1e9 / kLaunches);
    }
    // Both engines must advance the simulated clock identically — the
    // rebuilt engine's fast paths are host-side only.
    rep.sim_time_identical =
        q.simulated_time_us() == seed_q.simulated_time_us();
  }

  // --- BabelStream Triad: a[i] = b[i] + scalar * c[i], host wall time. ---
  {
    const std::uint64_t n = triad_n;
    std::vector<double> a(n, 0.0), b(n, 1.5), c(n, 2.25);
    std::vector<double> a_seed(n, 0.0);
    gpusim::KernelCosts costs;
    costs.bytes_read = 2.0 * static_cast<double>(n) * sizeof(double);
    costs.bytes_written = static_cast<double>(n) * sizeof(double);
    costs.flops = 2.0 * static_cast<double>(n);
    const gpusim::LaunchConfig cfg = gpusim::launch_1d(n, 256);

    gpusim::Device dev(descriptor);
    gpusim::Queue& q = dev.default_queue();
    bench::baseline::SeedThreadPool seed_pool;
    bench::baseline::SeedQueue seed_q(descriptor, seed_pool);

    double* pa = a.data();
    double* pa_seed = a_seed.data();
    const bench::StreamArrays<double*> s{pa, b.data(), c.data()};
    const bench::StreamArrays<double*> s_seed{pa_seed, b.data(), c.data()};
    const auto triad = [=](const gpusim::WorkItem& item) {
      const std::uint64_t i = item.global_x();
      if (i < n) s.triad(i);
    };
    const auto triad_seed = [=](const gpusim::WorkItem& item) {
      const std::uint64_t i = item.global_x();
      if (i < n) s_seed.triad(i);
    };

    seed_q.launch(cfg, costs, triad_seed);  // warm-up + correctness input
    q.launch(cfg, costs, triad);
    rep.results_identical =
        std::memcmp(pa, pa_seed, n * sizeof(double)) == 0;

    auto t0 = Clock::now();
    for (int r = 0; r < triad_reps; ++r) seed_q.launch(cfg, costs, triad_seed);
    rep.triad_ms_seed = seconds_since(t0) * 1e3 / triad_reps;
    t0 = Clock::now();
    for (int r = 0; r < triad_reps; ++r) q.launch(cfg, costs, triad);
    rep.triad_ms_engine = seconds_since(t0) * 1e3 / triad_reps;
  }

  // --- Static vs dynamic self-scheduling on uneven chunks: the model
  // layers' reduction shape (few fat work items, one much fatter). ---
  {
    gpusim::Device dev(descriptor);
    gpusim::Queue& q = dev.default_queue();
    constexpr std::uint64_t kItems = 64;
    const gpusim::LaunchConfig cfg = gpusim::launch_1d(kItems, 1);
    volatile double sink = 0;
    const auto uneven = [&sink](const gpusim::WorkItem& item) {
      const std::uint64_t i = item.global_x();
      if (i >= kItems) return;
      const std::uint64_t reps = (i == 0) ? 1 << 20 : 1 << 12;
      double acc = 0;
      for (std::uint64_t r = 0; r < reps; ++r) acc += 1e-9 * r;
      sink = sink + acc;
    };
    constexpr int kRounds = 20;
    for (int i = 0; i < 2; ++i) q.launch(cfg, gpusim::KernelCosts{}, uneven);
    auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      q.launch(cfg, gpusim::KernelCosts{}, uneven,
               gpusim::LaunchPolicy{gpusim::Schedule::Static, 0});
    }
    rep.uneven_ms_static = seconds_since(t0) * 1e3 / kRounds;
    t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      q.launch(cfg, gpusim::KernelCosts{}, uneven,
               gpusim::LaunchPolicy{gpusim::Schedule::Dynamic, 1});
    }
    rep.uneven_ms_dynamic = seconds_since(t0) * 1e3 / kRounds;
  }

  return rep;
}

// ---------------------------------------------------------------------------
// Graph replay A/B and multi-device weak scaling (tentpole dogfood).
// ---------------------------------------------------------------------------

/// Per-node replay overhead vs eager launches, and the BabelStream
/// capture/replay identity check.
void run_graph_harness(EngineReport& rep) {
  constexpr int kTimingReps = 5;
  const gpusim::DeviceDescriptor descriptor =
      gpusim::tiny_test_device(std::size_t{1} << 26);

  // --- Host overhead: a chain of single-item empty kernels. The eager
  // path pays validation + hook probes + thunk setup per launch; replay
  // walks a pre-compiled op array (the chain fuses into one indirect
  // call). ---
  {
    constexpr std::uint64_t kNodes = 8192;
    rep.graph_nodes = kNodes;
    gpusim::Device dev(descriptor);
    gpusim::Queue& q = dev.default_queue();
    const gpusim::LaunchConfig cfg = gpusim::launch_1d(1, 1);
    const gpusim::KernelCosts empty{};
    const auto body = [](const gpusim::WorkItem&) {};

    for (std::uint64_t i = 0; i < 1000; ++i) q.launch(cfg, empty, body);
    rep.graph_eager_ns = std::numeric_limits<double>::max();
    for (int r = 0; r < kTimingReps; ++r) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kNodes; ++i) q.launch(cfg, empty, body);
      rep.graph_eager_ns = std::min(
          rep.graph_eager_ns, seconds_since(t0) * 1e9 / kNodes);
    }

    gpusim::Graph graph;
    q.begin_capture(graph);
    for (std::uint64_t i = 0; i < kNodes; ++i) q.launch(cfg, empty, body);
    (void)q.end_capture();
    gpusim::ExecutableGraph exec(graph, q);
    (void)exec.replay(q);  // warm-up
    rep.graph_replay_ns = std::numeric_limits<double>::max();
    for (int r = 0; r < kTimingReps; ++r) {
      const auto t0 = Clock::now();
      (void)exec.replay(q);
      rep.graph_replay_ns = std::min(
          rep.graph_replay_ns, seconds_since(t0) * 1e9 / kNodes);
    }
  }

  // --- Identity: the full BabelStream Triad cycle (init + reps x
  // copy/mul/add/triad) captured from a fresh queue and replayed once on
  // a fresh device must match the eager run bit-for-bit — array contents
  // and final simulated clock. ---
  {
    constexpr std::uint64_t n = std::uint64_t{1} << 20;
    constexpr int reps = 3;
    rep.graph_stream_n = n;
    const gpusim::LaunchConfig cfg = gpusim::launch_1d(n, 256);
    gpusim::KernelCosts stream_costs;
    stream_costs.bytes_read = 2.0 * static_cast<double>(n) * sizeof(double);
    stream_costs.bytes_written = static_cast<double>(n) * sizeof(double);
    stream_costs.flops = 2.0 * static_cast<double>(n);

    // The suite's bodies, all declaring Triad-sized traffic: this gate
    // is about the replay path, not the cost table.
    const auto submit = [&](gpusim::Queue& q, double* a, double* b,
                            double* c) {
      const bench::StreamArrays<double*> s{a, b, c};
      const auto launch = [&](auto body) {
        (void)q.launch(cfg, stream_costs, [=](const gpusim::WorkItem& it) {
          const std::uint64_t i = it.global_x();
          if (i < n) body(i);
        });
      };
      launch([s](std::size_t i) { s.init(i); });
      for (int r = 0; r < reps; ++r) {
        launch([s](std::size_t i) { s.copy(i); });
        launch([s](std::size_t i) { s.mul(i); });
        launch([s](std::size_t i) { s.add(i); });
        launch([s](std::size_t i) { s.triad(i); });
      }
    };

    gpusim::Device eager_dev(descriptor);
    auto* ea = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
    auto* eb = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
    auto* ec = static_cast<double*>(eager_dev.allocate(n * sizeof(double)));
    submit(eager_dev.default_queue(), ea, eb, ec);
    const double eager_sim = eager_dev.default_queue().simulated_time_us();

    gpusim::Device replay_dev(descriptor);
    auto* ra = static_cast<double*>(replay_dev.allocate(n * sizeof(double)));
    auto* rb = static_cast<double*>(replay_dev.allocate(n * sizeof(double)));
    auto* rc = static_cast<double*>(replay_dev.allocate(n * sizeof(double)));
    gpusim::Queue& rq = replay_dev.default_queue();
    gpusim::Graph graph;
    rq.begin_capture(graph);
    submit(rq, ra, rb, rc);
    (void)rq.end_capture();
    gpusim::ExecutableGraph exec(graph, rq);
    (void)exec.replay(rq);

    rep.graph_sim_time_identical = rq.simulated_time_us() == eager_sim;
    rep.graph_results_identical =
        std::memcmp(ea, ra, n * sizeof(double)) == 0 &&
        std::memcmp(eb, rb, n * sizeof(double)) == 0 &&
        std::memcmp(ec, rc, n * sizeof(double)) == 0;

    eager_dev.deallocate(ea);
    eager_dev.deallocate(eb);
    eager_dev.deallocate(ec);
    replay_dev.deallocate(ra);
    replay_dev.deallocate(rb);
    replay_dev.deallocate(rc);
  }
}

/// Triad weak scaling on 1/2/4 local devices (fixed n per device), with a
/// P2P gather of each device's array head back to device 0 for the
/// cross-device identity check.
void run_multi_device_harness(EngineReport& rep) {
  constexpr std::uint64_t n = std::uint64_t{1} << 20;
  constexpr int reps = 3;
  constexpr std::uint64_t kGatherDoubles = 1024;
  rep.md_n = n;
  const gpusim::DeviceDescriptor descriptor =
      gpusim::tiny_test_device(std::size_t{1} << 26);
  const gpusim::LaunchConfig cfg = gpusim::launch_1d(n, 256);
  gpusim::KernelCosts stream_costs;
  stream_costs.bytes_read = 2.0 * static_cast<double>(n) * sizeof(double);
  stream_costs.bytes_written = static_cast<double>(n) * sizeof(double);
  stream_costs.flops = 2.0 * static_cast<double>(n);

  rep.md_results_identical = true;
  for (const unsigned count : {1u, 2u, 4u}) {
    std::vector<std::unique_ptr<gpusim::Device>> devs;
    std::vector<double*> as(count), bs(count), cs(count);
    for (unsigned d = 0; d < count; ++d) {
      devs.push_back(std::make_unique<gpusim::Device>(descriptor, d));
      as[d] = static_cast<double*>(devs[d]->allocate(n * sizeof(double)));
      bs[d] = static_cast<double*>(devs[d]->allocate(n * sizeof(double)));
      cs[d] = static_cast<double*>(devs[d]->allocate(n * sizeof(double)));
    }
    auto* gather = static_cast<double*>(
        devs[0]->allocate(count * kGatherDoubles * sizeof(double)));

    for (unsigned d = 0; d < count; ++d) {
      gpusim::Queue& q = devs[d]->default_queue();
      const bench::StreamArrays<double*> s{as[d], bs[d], cs[d]};
      (void)q.launch(cfg, stream_costs, [=](const gpusim::WorkItem& it) {
        const std::uint64_t i = it.global_x();
        if (i < n) s.init(i);
      });
      for (int r = 0; r < reps; ++r) {
        (void)q.launch(cfg, stream_costs, [=](const gpusim::WorkItem& it) {
          const std::uint64_t i = it.global_x();
          if (i < n) s.triad(i);
        });
      }
    }
    // Gather each device's array head to device 0 over the peer link.
    double p2p_us = 0;
    for (unsigned d = 0; d < count; ++d) {
      const gpusim::Event e = devs[d]->default_queue().memcpy_peer(
          gather + d * kGatherDoubles, *devs[0], as[d],
          kGatherDoubles * sizeof(double));
      if (d > 0) p2p_us += e.duration_us();
    }
    double t_max = 0;
    for (unsigned d = 0; d < count; ++d) {
      t_max = std::max(t_max, devs[d]->default_queue().simulated_time_us());
    }
    if (count == 1) rep.md_sim_us_1 = t_max;
    if (count == 2) rep.md_sim_us_2 = t_max;
    if (count == 4) {
      rep.md_sim_us_4 = t_max;
      rep.md_p2p_us = p2p_us;
    }
    // Every device ran identical data: the gathered heads must be
    // bitwise equal to device 0's.
    for (unsigned d = 1; d < count; ++d) {
      rep.md_results_identical =
          rep.md_results_identical &&
          std::memcmp(gather, gather + d * kGatherDoubles,
                      kGatherDoubles * sizeof(double)) == 0;
    }
    devs[0]->deallocate(gather);
    for (unsigned d = 0; d < count; ++d) {
      devs[d]->deallocate(as[d]);
      devs[d]->deallocate(bs[d]);
      devs[d]->deallocate(cs[d]);
    }
  }
}

[[nodiscard]] bool write_engine_json(const EngineReport& r,
                                     const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const double launch_speedup =
      r.launch_overhead_ns_engine > 0
          ? r.launch_overhead_ns_seed / r.launch_overhead_ns_engine
          : 0.0;
  const double triad_speedup =
      r.triad_ms_engine > 0 ? r.triad_ms_seed / r.triad_ms_engine : 0.0;
  out << "{\n"
      << "  \"schema\": \"mcmm-engine-bench-v1\",\n"
      << "  \"workers\": " << gpusim::ThreadPool::global().worker_count()
      << ",\n"
      << "  \"launch_overhead\": {\n"
      << "    \"kernel\": \"empty, N=1\",\n"
      << "    \"engine_ns\": " << r.launch_overhead_ns_engine << ",\n"
      << "    \"seed_baseline_ns\": " << r.launch_overhead_ns_seed << ",\n"
      << "    \"speedup\": " << launch_speedup << "\n"
      << "  },\n"
      << "  \"triad\": {\n"
      << "    \"kernel\": \"a[i] = b[i] + scalar * c[i]\",\n"
      << "    \"n\": " << r.triad_n << ",\n"
      << "    \"reps\": " << r.triad_reps << ",\n"
      << "    \"engine_ms\": " << r.triad_ms_engine << ",\n"
      << "    \"seed_baseline_ms\": " << r.triad_ms_seed << ",\n"
      << "    \"speedup\": " << triad_speedup << "\n"
      << "  },\n"
      << "  \"uneven_chunks\": {\n"
      << "    \"kernel\": \"64 work items, item 0 is 256x heavier\",\n"
      << "    \"static_ms\": " << r.uneven_ms_static << ",\n"
      << "    \"dynamic_ms\": " << r.uneven_ms_dynamic << "\n"
      << "  },\n"
      << "  \"profiler\": {\n"
      << "    \"kernel\": \"empty, N=1\",\n"
      << "    \"hooks_off_ns\": " << r.profiler_off_ns << ",\n"
      << "    \"tracing_ns\": " << r.profiler_on_ns << ",\n"
      << "    \"after_disable_ns\": " << r.profiler_after_disable_ns << "\n"
      << "  },\n"
      << "  \"graph_replay\": {\n"
      << "    \"kernel\": \"chain of empty single-item kernels\",\n"
      << "    \"nodes\": " << r.graph_nodes << ",\n"
      << "    \"eager_ns_per_launch\": " << r.graph_eager_ns << ",\n"
      << "    \"replay_ns_per_node\": " << r.graph_replay_ns << ",\n"
      << "    \"speedup\": "
      << (r.graph_replay_ns > 0 ? r.graph_eager_ns / r.graph_replay_ns : 0.0)
      << ",\n"
      << "    \"budget_ns_per_node\": " << r.graph_eager_ns / 5.0 << ",\n"
      << "    \"within_budget\": "
      << (r.graph_replay_ns * 5.0 <= r.graph_eager_ns ? "true" : "false")
      << ",\n"
      << "    \"stream_n\": " << r.graph_stream_n << ",\n"
      << "    \"results_identical\": "
      << (r.graph_results_identical ? "true" : "false") << ",\n"
      << "    \"sim_time_identical\": "
      << (r.graph_sim_time_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"multi_device\": {\n"
      << "    \"kernel\": \"Triad weak scaling, n per device\",\n"
      << "    \"n_per_device\": " << r.md_n << ",\n"
      << "    \"sim_us_1\": " << r.md_sim_us_1 << ",\n"
      << "    \"sim_us_2\": " << r.md_sim_us_2 << ",\n"
      << "    \"sim_us_4\": " << r.md_sim_us_4 << ",\n"
      << "    \"gather_p2p_us\": " << r.md_p2p_us << ",\n"
      << "    \"weak_scaling_efficiency\": "
      << (r.md_sim_us_4 > 0 ? r.md_sim_us_1 / r.md_sim_us_4 : 0.0) << ",\n"
      << "    \"results_identical\": "
      << (r.md_results_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"sim_time_identical\": "
      << (r.sim_time_identical ? "true" : "false") << ",\n"
      << "  \"results_identical\": "
      << (r.results_identical ? "true" : "false") << "\n"
      << "}\n";
  std::printf(
      "engine A/B: launch %.2f ns vs seed %.2f ns (%.1fx); "
      "triad(n=%llu) %.2f ms vs seed %.2f ms (%.1fx); "
      "uneven static %.2f ms vs dynamic %.2f ms; sim_time_identical=%s\n",
      r.launch_overhead_ns_engine, r.launch_overhead_ns_seed, launch_speedup,
      static_cast<unsigned long long>(r.triad_n), r.triad_ms_engine,
      r.triad_ms_seed, triad_speedup, r.uneven_ms_static, r.uneven_ms_dynamic,
      r.sim_time_identical ? "true" : "false");
  std::printf(
      "graph A/B: eager %.2f ns/launch vs replay %.2f ns/node (%.1fx, "
      "%llu nodes); stream capture/replay identical: results=%s "
      "sim_time=%s\n",
      r.graph_eager_ns, r.graph_replay_ns,
      r.graph_replay_ns > 0 ? r.graph_eager_ns / r.graph_replay_ns : 0.0,
      static_cast<unsigned long long>(r.graph_nodes),
      r.graph_results_identical ? "true" : "false",
      r.graph_sim_time_identical ? "true" : "false");
  std::printf(
      "multi-device: Triad weak scaling T1 %.1f us, T2 %.1f us, T4 %.1f "
      "us (gather p2p %.2f us); results_identical=%s\n",
      r.md_sim_us_1, r.md_sim_us_2, r.md_sim_us_4, r.md_p2p_us,
      r.md_results_identical ? "true" : "false");
  std::printf("engine A/B report written to %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_gpusim.json";
  int triad_log2n = 24;
  int triad_reps = 3;
  bool engine_only = false;

  // Strip --engine-* flags; forward the rest to google-benchmark.
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--engine-json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--engine-json="));
    } else if (arg.rfind("--engine-triad-log2n=", 0) == 0) {
      triad_log2n = std::stoi(arg.substr(std::strlen("--engine-triad-log2n=")));
    } else if (arg.rfind("--engine-reps=", 0) == 0) {
      triad_reps = std::stoi(arg.substr(std::strlen("--engine-reps=")));
    } else if (arg == "--engine-only") {
      engine_only = true;
    } else {
      fwd.push_back(argv[i]);
    }
  }
  if (triad_log2n < 1 || triad_log2n > 28) {
    std::fprintf(stderr, "error: --engine-triad-log2n must be in [1, 28]\n");
    return 1;
  }
  if (triad_reps < 1) {
    std::fprintf(stderr, "error: --engine-reps must be >= 1\n");
    return 1;
  }

  if (!engine_only) {
    int fwd_argc = static_cast<int>(fwd.size());
    benchmark::Initialize(&fwd_argc, fwd.data());
    if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  EngineReport report =
      run_engine_harness(std::uint64_t{1} << triad_log2n, triad_reps);
  run_profiler_harness(report);
  std::printf(
      "gpuprof A/B: hooks-off %.2f ns, tracing %.2f ns, after disable "
      "%.2f ns per launch\n",
      report.profiler_off_ns, report.profiler_on_ns,
      report.profiler_after_disable_ns);
  run_graph_harness(report);
  run_multi_device_harness(report);
  if (!write_engine_json(report, json_path)) return 1;
  const bool all_identical = report.sim_time_identical &&
                             report.results_identical &&
                             report.graph_results_identical &&
                             report.graph_sim_time_identical &&
                             report.md_results_identical;
  return all_identical ? 0 : 2;
}
