// BabelStream on every programming-model embedding — the "representative
// selection of micro-benchmarks ported to the models" the paper says a
// fair performance comparison would require (Sec. 5). The kernel bodies
// live once in stream_kernels.hpp; ModelStream runs them through each
// model's API idiom (alloc, launch, reduce, copy-back), which is all an
// adapter below holds. stdpar keeps its iterator algorithms.

#include <array>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>

#include "bench_support/stream.hpp"
#include "bench_support/stream_kernels.hpp"
#include "models/accx/accx.hpp"
#include "models/alpakax/alpakax.hpp"
#include "models/cudax/cudax.hpp"
#include "models/hipx/hipx.hpp"
#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "models/syclx/syclx.hpp"
#include "pstlx/pstlx.hpp"

namespace mcmm::bench {
namespace {

using Out = std::array<double*, 3>;  ///< one pointer per array: a, b, c

/// The seven StreamBenchmark kernels over one model's API idiom. `Api`
/// provides label(), vendor(), alloc(n), arrays(), for_each(kind, n, body)
/// (one launch of body(i) over [0, n)), sum(kind, n, term) (the model's
/// reduction of term(i) over [0, n)), read(out, n), simulated_time_us(),
/// and a public `policy` member if it has a schedule knob.
template <typename Api>
class ModelStream final : public StreamBenchmark {
 public:
  template <typename... Args>
  explicit ModelStream(Args... args) : api_(args...) {}
  ModelStream(const ModelStream&) = delete;  // the Api owns device memory
  ModelStream& operator=(const ModelStream&) = delete;

  [[nodiscard]] std::string label() const override { return api_.label(); }
  [[nodiscard]] Vendor vendor() const override { return api_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    api_.alloc(n);
  }
  void init_arrays() override { each<&Arrays::init>(StreamKernel::Copy); }
  void copy() override { each<&Arrays::copy>(StreamKernel::Copy); }
  void mul() override { each<&Arrays::mul>(StreamKernel::Mul); }
  void add() override { each<&Arrays::add>(StreamKernel::Add); }
  void triad() override { each<&Arrays::triad>(StreamKernel::Triad); }
  [[nodiscard]] double dot() override {
    return sum<&Arrays::dot_term>(StreamKernel::Dot);
  }
  [[nodiscard]] double reduce() override {
    return sum<&Arrays::reduce_term>(StreamKernel::Reduce);
  }
  void uneven() override { each<&Arrays::uneven>(StreamKernel::Uneven); }

  void set_schedule(gpusim::Schedule schedule) override {
    if constexpr (requires { api_.policy; }) {
      api_.policy = gpusim::LaunchPolicy{schedule, 0};
    }
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    for (std::vector<double>* v : {&a, &b, &c}) v->resize(n_);
    api_.read(Out{a.data(), b.data(), c.data()}, n_);
  }

  [[nodiscard]] double simulated_time_us() const override {
    return api_.simulated_time_us();
  }

 private:
  using Arrays = decltype(std::declval<const Api&>().arrays());

  template <void (Arrays::*Body)(std::size_t) const>
  void each(StreamKernel kind) {
    api_.for_each(kind, n_,
                  [s = api_.arrays()](std::size_t i) { (s.*Body)(i); });
  }
  template <double (Arrays::*Term)(std::size_t) const>
  [[nodiscard]] double sum(StreamKernel kind) {
    return api_.sum(kind, n_, [s = api_.arrays()](std::size_t i) {
      return (s.*Term)(i);
    });
  }

  Api api_;
  std::size_t n_{};
};

/// The device pointers of a, b and c, for the APIs that hand out raw
/// device memory.
struct DevicePtrs {
  [[nodiscard]] StreamArrays<double*> arrays() const {
    return {p[0], p[1], p[2]};
  }
  Out p{};
};

// ---------------------------------------------------------------- cudax --

class CudaApi : public DevicePtrs {
 public:
  [[nodiscard]] std::string label() const { return "CUDA"; }
  [[nodiscard]] Vendor vendor() const { return Vendor::NVIDIA; }

  void alloc(std::size_t n) {
    for (double*& d : p) {
      check(cudax::cudaMalloc(reinterpret_cast<void**>(&d),
                              n * sizeof(double)));
    }
    check(cudax::cudaMalloc(reinterpret_cast<void**>(&partials_),
                            kChunks * sizeof(double)));
  }
  ~CudaApi() {
    for (double* d : {p[0], p[1], p[2], partials_}) (void)cudax::cudaFree(d);
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    launch({static_cast<std::uint32_t>((n + 255) / 256), 1, 1}, {256, 1, 1},
           kind, n, [body, n](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) body(i);
           });
  }
  /// CUDA-idiomatic two-phase reduction: per-block partials, host finish.
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    launch({kChunks, 1, 1}, {1, 1, 1}, kind, n,
           [term, d = partials_, n](const cudax::KernelCtx& ctx) {
             chunk_partial(ctx.global_x(), n, d, term);
           });
    std::array<double, kChunks> host{};
    check(cudax::cudaMemcpy(host.data(), partials_, kChunks * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  void read(const Out& out, std::size_t n) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      check(cudax::cudaMemcpy(out[k], p[k], n * sizeof(double),
                              cudax::cudaMemcpyDeviceToHost));
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return cudax::queue_of(nullptr).simulated_time_us();
  }

 private:
  static void check(cudax::cudaError_t err) {
    if (err != cudax::cudaError_t::cudaSuccess) {
      throw gpusim::SimError(std::string("CUDA stream benchmark: ") +
                             cudax::cudaGetErrorString(err));
    }
  }
  template <typename K>
  static void launch(cudax::dim3 grid, cudax::dim3 block, StreamKernel kind,
                     std::size_t n, const K& kernel) {
    check(cudax::cudaLaunch(grid, block, costs_for(kind, n),
                            static_cast<cudax::cudaStream_t>(nullptr),
                            kernel));
  }

  double* partials_{};
};

// ----------------------------------------------------------------- hipx --

class HipApi : public DevicePtrs {
 public:
  explicit HipApi(hipx::Platform platform) : platform_(platform) {}

  [[nodiscard]] std::string label() const {
    return platform_ == hipx::Platform::amd ? "HIP" : "HIP(CUDA backend)";
  }
  [[nodiscard]] Vendor vendor() const {
    return platform_ == hipx::Platform::amd ? Vendor::AMD : Vendor::NVIDIA;
  }

  void alloc(std::size_t n) {
    const PlatformScope scope(platform_);
    for (double*& d : p) {
      check(hipx::hipMalloc(reinterpret_cast<void**>(&d),
                            n * sizeof(double)));
    }
    check(hipx::hipMalloc(reinterpret_cast<void**>(&partials_),
                          kChunks * sizeof(double)));
    check(hipx::hipStreamCreate(&stream_));
  }
  ~HipApi() {
    const PlatformScope scope(platform_);
    for (double* d : {p[0], p[1], p[2], partials_}) (void)hipx::hipFree(d);
    if (stream_ != nullptr) (void)hipx::hipStreamDestroy(stream_);
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    launch({static_cast<std::uint32_t>((n + 255) / 256), 1, 1}, {256, 1, 1},
           kind, n, [body, n](const hipx::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) body(i);
           });
  }
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    const PlatformScope scope(platform_);
    launch({kChunks, 1, 1}, {1, 1, 1}, kind, n,
           [term, d = partials_, n](const hipx::KernelCtx& ctx) {
             chunk_partial(ctx.global_x(), n, d, term);
           });
    std::array<double, kChunks> host{};
    check(hipx::hipMemcpy(host.data(), partials_, kChunks * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  void read(const Out& out, std::size_t n) {
    const PlatformScope scope(platform_);
    for (std::size_t k = 0; k < out.size(); ++k) {
      check(hipx::hipMemcpy(out[k], p[k], n * sizeof(double),
                            hipx::hipMemcpyDeviceToHost));
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return stream_->simulated_time_us();
  }

 private:
  /// The HIP_PLATFORM switch is process-global; scope it per call.
  class PlatformScope {
   public:
    explicit PlatformScope(hipx::Platform platform)
        : saved_(hipx::platform()) {
      hipx::set_platform(platform);
    }
    ~PlatformScope() { hipx::set_platform(saved_); }

   private:
    hipx::Platform saved_;
  };

  static void check(hipx::hipError_t err) {
    if (err != hipx::hipError_t::hipSuccess) {
      throw gpusim::SimError(std::string("HIP stream benchmark: ") +
                             hipx::hipGetErrorString(err));
    }
  }
  template <typename K>
  void launch(hipx::dim3 grid, hipx::dim3 block, StreamKernel kind,
              std::size_t n, const K& kernel) {
    const PlatformScope scope(platform_);
    check(hipx::hipLaunchKernelGGL(kernel, grid, block, costs_for(kind, n),
                                   stream_));
  }

  hipx::Platform platform_;
  double* partials_{};
  hipx::hipStream_t stream_{};
};

// ---------------------------------------------------------------- syclx --

class SyclApi : public DevicePtrs {
 public:
  SyclApi(Vendor vendor, syclx::Implementation impl) : queue_(vendor, impl) {}

  [[nodiscard]] std::string label() const {
    return "SYCL(" + std::string(syclx::to_string(queue_.implementation())) +
           ")";
  }
  [[nodiscard]] Vendor vendor() const { return queue_.vendor(); }

  void alloc(std::size_t n) {
    for (double*& d : p) d = queue_.malloc_device<double>(n);
  }
  ~SyclApi() {
    for (double* d : p) queue_.free(d);
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    queue_.parallel_for(syclx::range{n}, costs_for(kind, n), policy,
                        [body](syclx::id i) { body(i); });
  }
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    return queue_.reduce(syclx::range{n}, 0.0, costs_for(kind, n), term,
                         std::plus<>{});
  }

  void read(const Out& out, std::size_t n) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      queue_.memcpy(out[k], p[k], n * sizeof(double));
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return queue_.simulated_time_us();
  }

  gpusim::LaunchPolicy policy{};

 private:
  syclx::queue queue_;
};

// ----------------------------------------------------------------- ompx --

class OmpApi : public DevicePtrs {
 public:
  OmpApi(Vendor vendor, ompx::Compiler compiler) : dev_(vendor, compiler) {}

  [[nodiscard]] std::string label() const {
    return "OpenMP(" + std::string(ompx::to_string(dev_.compiler())) + ")";
  }
  [[nodiscard]] Vendor vendor() const { return dev_.vendor(); }

  void alloc(std::size_t n) {
    for (std::vector<double>& h : host_) h.assign(n, 0.0);
    data_ = std::make_unique<ompx::target_data>(dev_);
    for (std::size_t k = 0; k < p.size(); ++k) {
      p[k] = data_->map_tofrom(host_[k].data(), n);
    }
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    ompx::target_teams_distribute_parallel_for(dev_, n, costs_for(kind, n),
                                               body);
  }
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    return ompx::target_teams_reduce(dev_, n, 0.0, costs_for(kind, n), term);
  }

  /// `#pragma omp target update from(...)`, then the host copies.
  void read(const Out& out, std::size_t /*n*/) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      data_->update_from(host_[k].data());
      std::copy(host_[k].begin(), host_[k].end(), out[k]);
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return dev_.simulated_time_us();
  }

 private:
  ompx::TargetDevice dev_;
  std::array<std::vector<double>, 3> host_;
  std::unique_ptr<ompx::target_data> data_;
};

// ----------------------------------------------------------------- accx --

class AccApi : public DevicePtrs {
 public:
  AccApi(Vendor vendor, accx::Compiler compiler) : acc_(vendor, compiler) {}

  [[nodiscard]] std::string label() const {
    return "OpenACC(" + std::string(accx::to_string(acc_.compiler())) + ")";
  }
  [[nodiscard]] Vendor vendor() const { return acc_.vendor(); }

  void alloc(std::size_t n) {
    for (std::vector<double>& h : host_) h.assign(n, 0.0);
    data_ = std::make_unique<accx::data_region>(acc_);
    for (std::size_t k = 0; k < p.size(); ++k) {
      p[k] = data_->copy(host_[k].data(), n);
    }
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    acc_.parallel_loop(n, costs_for(kind, n), body);
  }
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    return acc_.parallel_loop_reduce(n, 0.0, costs_for(kind, n), term);
  }

  /// `#pragma acc update self(...)`, then the host copies.
  void read(const Out& out, std::size_t n) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      acc_.queue().memcpy(host_[k].data(), p[k], n * sizeof(double),
                          gpusim::CopyKind::DeviceToHost);
      std::copy(host_[k].begin(), host_[k].end(), out[k]);
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return acc_.simulated_time_us();
  }

 private:
  mutable accx::Accelerator acc_;
  std::array<std::vector<double>, 3> host_;
  std::unique_ptr<accx::data_region> data_;
};

// -------------------------------------------------------------- kokkosx --

class KokkosApi {
 public:
  KokkosApi(kokkosx::ExecSpace space, Vendor vendor) : exec_(space, vendor) {}

  [[nodiscard]] std::string label() const {
    return "Kokkos(" + std::string(kokkosx::to_string(exec_.space())) + ")";
  }
  [[nodiscard]] Vendor vendor() const { return exec_.vendor(); }

  void alloc(std::size_t n) {
    using V = kokkosx::View<double>;
    s_.emplace(StreamArrays<V>{V(exec_, "a", n), V(exec_, "b", n),
                               V(exec_, "c", n)});
  }
  /// Views, not raw pointers: every element access goes through
  /// View::operator(), which the sanitizer observes.
  [[nodiscard]] StreamArrays<kokkosx::View<double>> arrays() const {
    return *s_;
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    kokkosx::parallel_for(exec_, kokkosx::RangePolicy{0, n},
                          costs_for(kind, n), policy, body);
  }
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    double result = 0.0;
    kokkosx::parallel_reduce(
        exec_, kokkosx::RangePolicy{0, n}, costs_for(kind, n),
        [term](std::size_t i, double& update) { update += term(i); },
        result);
    return result;
  }

  void read(const Out& out, std::size_t /*n*/) {
    kokkosx::deep_copy_to_host(out[0], s_->a);
    kokkosx::deep_copy_to_host(out[1], s_->b);
    kokkosx::deep_copy_to_host(out[2], s_->c);
  }
  [[nodiscard]] double simulated_time_us() const {
    return exec_.simulated_time_us();
  }

  gpusim::LaunchPolicy policy{};

 private:
  kokkosx::Execution exec_;
  std::optional<StreamArrays<kokkosx::View<double>>> s_;
};

// -------------------------------------------------------------- alpakax --

template <typename TAcc>
class AlpakaApi : public DevicePtrs {
 public:
  [[nodiscard]] std::string label() const {
    return "Alpaka(" + std::string(TAcc::name) + ")";
  }
  [[nodiscard]] Vendor vendor() const { return TAcc::vendor; }

  void alloc(std::size_t n) {
    for (std::size_t k = 0; k < p.size(); ++k) {
      p[k] = bufs_[k].emplace(alpakax::alloc_buf<double>(queue_, n)).data();
    }
  }

  template <typename Body>
  void for_each(StreamKernel kind, std::size_t n, const Body& body) {
    alpakax::exec(queue_, alpakax::work_div_for(n), costs_for(kind, n),
                  [body, n](const alpakax::AccCtx& ctx) {
                    const std::size_t i = ctx.global_thread_idx;
                    if (i < n) body(i);
                  });
  }
  /// Chunk partials written straight into a host array, host finish.
  template <typename Term>
  double sum(StreamKernel kind, std::size_t n, const Term& term) {
    std::array<double, kChunks> partials{};
    alpakax::exec(queue_, alpakax::WorkDiv{kChunks, 1}, costs_for(kind, n),
                  [term, d = partials.data(), n](const alpakax::AccCtx& ctx) {
                    chunk_partial(ctx.global_thread_idx, n, d, term);
                  });
    return std::accumulate(partials.begin(), partials.end(), 0.0);
  }

  void read(const Out& out, std::size_t n) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      alpakax::memcpy_to_host(queue_, out[k], *bufs_[k], n);
    }
  }
  [[nodiscard]] double simulated_time_us() const {
    return queue_.simulated_time_us();
  }

 private:
  alpakax::Queue<TAcc> queue_;
  std::array<std::optional<alpakax::Buf<double, TAcc>>, 3> bufs_;
};

// -------------------------------------------------------------- stdparx --

/// stdpar keeps the ISO C++ iterator algorithms (three fills, std::copy,
/// std::transform, transform_reduce): they are its idiom, and its launch
/// count differs from the index-space models'.
class StdparStream final : public StreamBenchmark {
 public:
  StdparStream(Vendor vendor, stdparx::Runtime runtime)
      : pol_(vendor, runtime) {}

  [[nodiscard]] std::string label() const override {
    return "stdpar(" + std::string(stdparx::to_string(pol_.runtime())) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return pol_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    a_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
    b_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
    c_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
  }

  void init_arrays() override {
    stdparx::fill(pol_, a_->begin(), a_->end(), kInitA);
    stdparx::fill(pol_, b_->begin(), b_->end(), kInitB);
    stdparx::fill(pol_, c_->begin(), c_->end(), kInitC);
  }

  void copy() override {
    // BabelStream's copy via std::copy(par, ...).
    stdparx::copy(pol_, a_->begin(), a_->end(), c_->begin());
  }
  void mul() override {
    stdparx::transform(pol_, c_->begin(), c_->end(), b_->begin(),
                       [](double x) { return kScalar * x; });
  }
  void add() override {
    stdparx::transform(pol_, a_->begin(), a_->end(), b_->begin(),
                       c_->begin(),
                       [](double x, double y) { return x + y; });
  }
  void triad() override {
    stdparx::transform(pol_, b_->begin(), b_->end(), c_->begin(),
                       a_->begin(),
                       [](double x, double y) { return x + kScalar * y; });
  }

  [[nodiscard]] double dot() override {
    // Routed through the pstlx algorithm library; same chunk
    // decomposition, combine order, and KernelCosts as
    // stdparx::transform_reduce, so the sum and simulated time are
    // bitwise unchanged (asserted by the differential battery).
    return pstlx::transform_reduce(pol_, a_->begin(), a_->end(),
                                   b_->begin(), 0.0);
  }

  [[nodiscard]] double reduce() override {
    // sum a[i]^2 as the self-inner-product, the stdpar idiom.
    return pstlx::transform_reduce(pol_, a_->begin(), a_->end(),
                                   a_->begin(), 0.0);
  }

  void uneven() override {
    // stdpar has no index-based loop; recover i from the element address,
    // the std::for_each(par_unseq) idiom for indexed access.
    stdparx::for_each(
        pol_, c_->begin(), c_->end(),
        [s = StreamArrays<double*>{a_->begin(), b_->begin(), c_->begin()}](
            double& x) { s.uneven(static_cast<std::size_t>(&x - s.c)); });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    a_->download(a.data(), n_);
    b_->download(b.data(), n_);
    c_->download(c.data(), n_);
  }

  [[nodiscard]] double simulated_time_us() const override {
    return pol_.simulated_time_us();
  }

 private:
  stdparx::execution_policy pol_;
  std::size_t n_{};
  std::unique_ptr<stdparx::device_vector<double>> a_, b_, c_;
};

template <typename Api, typename... Args>
[[nodiscard]] std::unique_ptr<StreamBenchmark> route(Args... args) {
  return std::make_unique<ModelStream<Api>>(args...);
}

}  // namespace

std::vector<std::unique_ptr<StreamBenchmark>> stream_benchmarks_for(
    Vendor vendor) {
  using syclx::Implementation;
  std::vector<std::unique_ptr<StreamBenchmark>> out;
  switch (vendor) {
    case Vendor::NVIDIA:
      out.push_back(route<CudaApi>());
      out.push_back(route<HipApi>(hipx::Platform::nvidia));
      out.push_back(route<SyclApi>(vendor, Implementation::DPCpp));
      out.push_back(route<SyclApi>(vendor, Implementation::OpenSYCL));
      out.push_back(route<OmpApi>(vendor, ompx::Compiler::NVHPC));
      out.push_back(route<AccApi>(vendor, accx::Compiler::NVHPC));
      out.push_back(
          std::make_unique<StdparStream>(vendor, stdparx::Runtime::NVHPC));
      out.push_back(route<KokkosApi>(kokkosx::ExecSpace::Cuda, vendor));
      out.push_back(route<AlpakaApi<alpakax::AccGpuCudaRt>>());
      break;
    case Vendor::AMD:
      out.push_back(route<HipApi>(hipx::Platform::amd));
      out.push_back(route<SyclApi>(vendor, Implementation::OpenSYCL));
      out.push_back(route<SyclApi>(vendor, Implementation::DPCpp));
      out.push_back(route<OmpApi>(vendor, ompx::Compiler::AOMP));
      out.push_back(route<AccApi>(vendor, accx::Compiler::GCC));
      if (stdparx::roc_stdpar_enabled()) {
        out.push_back(std::make_unique<StdparStream>(
            vendor, stdparx::Runtime::RocStdpar));
      }
      out.push_back(route<KokkosApi>(kokkosx::ExecSpace::HIP, vendor));
      out.push_back(route<AlpakaApi<alpakax::AccGpuHipRt>>());
      break;
    case Vendor::Intel:
      out.push_back(route<SyclApi>(vendor, Implementation::DPCpp));
      out.push_back(route<SyclApi>(vendor, Implementation::OpenSYCL));
      out.push_back(route<OmpApi>(vendor, ompx::Compiler::ICPX));
      out.push_back(
          std::make_unique<StdparStream>(vendor, stdparx::Runtime::OneDPL));
      out.push_back(route<KokkosApi>(kokkosx::ExecSpace::SYCL, vendor));
      out.push_back(route<AlpakaApi<alpakax::AccGpuSyclIntel>>());
      break;
  }
  return out;
}

}  // namespace mcmm::bench
