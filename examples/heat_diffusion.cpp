// heat_diffusion: an application-level portability study in the shape of
// the physics-simulation comparisons the paper cites (Lin et al. [52]:
// "comparing performance of a physics simulation between Kokkos, SYCL,
// and OpenMP"). One 2-D Jacobi heat-diffusion stencil, written three
// times — Kokkos-style, SYCL-style, OpenMP-style — run on the platform
// each model reaches, with bitwise-identical physics.

#include <cmath>
#include <iomanip>
#include <iostream>
#include <vector>

#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/syclx/syclx.hpp"

namespace {

constexpr std::size_t kNx = 128;
constexpr std::size_t kNy = 128;
constexpr int kSteps = 200;
constexpr double kAlpha = 0.2;

/// Initial condition: a hot square in the middle of a cold plate.
std::vector<double> initial_grid() {
  std::vector<double> grid(kNx * kNy, 0.0);
  for (std::size_t i = kNx / 4; i < 3 * kNx / 4; ++i) {
    for (std::size_t j = kNy / 4; j < 3 * kNy / 4; ++j) {
      grid[i * kNy + j] = 100.0;
    }
  }
  return grid;
}

mcmm::gpusim::KernelCosts stencil_costs() {
  mcmm::gpusim::KernelCosts costs;
  costs.bytes_read = 5.0 * kNx * kNy * sizeof(double);
  costs.bytes_written = 1.0 * kNx * kNy * sizeof(double);
  costs.flops = 6.0 * kNx * kNy;
  return costs;
}

/// The stencil body shared verbatim by all three implementations.
inline double stencil(const double* t, std::size_t i, std::size_t j) {
  const double center = t[i * kNy + j];
  return center + kAlpha * (t[(i - 1) * kNy + j] + t[(i + 1) * kNy + j] +
                            t[i * kNy + j - 1] + t[i * kNy + j + 1] -
                            4.0 * center);
}

// --- Kokkos version (runs on the simulated NVIDIA device) ---
std::vector<double> run_kokkos(double& sim_us) {
  using namespace mcmm;
  kokkosx::Execution exec(kokkosx::ExecSpace::Cuda, Vendor::NVIDIA);
  kokkosx::View<double> t_old(exec, "t_old", kNx * kNy);
  kokkosx::View<double> t_new(exec, "t_new", kNx * kNy);
  const std::vector<double> init = initial_grid();
  kokkosx::deep_copy_to_device(t_old, init.data());
  kokkosx::deep_copy_to_device(t_new, init.data());

  const double t0 = exec.simulated_time_us();
  for (int step = 0; step < kSteps; ++step) {
    kokkosx::parallel_for(
        exec, kokkosx::MDRangePolicy2D{1, kNx - 1, 1, kNy - 1},
        stencil_costs(), [t_old, t_new](std::size_t i, std::size_t j) {
          t_new(i * kNy + j) = stencil(t_old.data(), i, j);
        });
    kokkosx::deep_copy(t_old, t_new);
  }
  sim_us = exec.simulated_time_us() - t0;

  std::vector<double> out(kNx * kNy);
  kokkosx::deep_copy_to_host(out.data(), t_old);
  return out;
}

// --- SYCL version (runs on the simulated Intel device) ---
std::vector<double> run_sycl(double& sim_us) {
  using namespace mcmm;
  syclx::queue q(Vendor::Intel, syclx::Implementation::DPCpp);
  double* t_old = q.malloc_device<double>(kNx * kNy);
  double* t_new = q.malloc_device<double>(kNx * kNy);
  const std::vector<double> init = initial_grid();
  q.memcpy(t_old, init.data(), init.size() * sizeof(double));
  // The stencil never writes the borders of t_new, and the swap copies
  // all of it over t_old: its borders must hold the initial grid too.
  q.memcpy(t_new, init.data(), init.size() * sizeof(double));

  const double t0 = q.simulated_time_us();
  for (int step = 0; step < kSteps; ++step) {
    q.parallel_for(syclx::range{(kNx - 2) * (kNy - 2)}, stencil_costs(),
                   [t_old, t_new](syclx::id flat) {
                     const std::size_t i = 1 + flat / (kNy - 2);
                     const std::size_t j = 1 + flat % (kNy - 2);
                     t_new[i * kNy + j] = stencil(t_old, i, j);
                   });
    // Interior swap: copy new interior over old (borders never change).
    q.memcpy(t_old, t_new, kNx * kNy * sizeof(double));
  }
  sim_us = q.simulated_time_us() - t0;

  std::vector<double> out(kNx * kNy, 0.0);
  q.memcpy(out.data(), t_old, out.size() * sizeof(double));
  // The SYCL variant never wrote the borders of t_new before the first
  // copy; restore the initial borders (all zero in this setup).
  q.free(t_old);
  q.free(t_new);
  return out;
}

// --- OpenMP version (runs on the simulated AMD device via AOMP) ---
std::vector<double> run_openmp(double& sim_us) {
  using namespace mcmm;
  ompx::TargetDevice dev(Vendor::AMD, ompx::Compiler::AOMP);
  std::vector<double> host = initial_grid();
  std::vector<double> host_new = host;
  ompx::target_data data(dev);
  double* t_old = data.map_tofrom(host.data(), host.size());
  double* t_new = data.map_to(host_new.data(), host_new.size());

  const double t0 = dev.simulated_time_us();
  for (int step = 0; step < kSteps; ++step) {
    ompx::target_teams_distribute_parallel_for_collapse2(
        dev, kNx - 2, kNy - 2, stencil_costs(),
        [t_old, t_new](std::size_t ii, std::size_t jj) {
          const std::size_t i = ii + 1;
          const std::size_t j = jj + 1;
          t_new[i * kNy + j] = stencil(t_old, i, j);
        });
    const int rc = ompx::omp_target_memcpy(
        dev, t_old, t_new, kNx * kNy * sizeof(double), true, true);
    if (rc != 0) throw gpusim::SimError("device copy failed");
  }
  sim_us = dev.simulated_time_us() - t0;

  data.update_from(host.data());
  return host;
}

double total_heat(const std::vector<double>& grid) {
  double sum = 0.0;
  for (const double v : grid) sum += v;
  return sum;
}

}  // namespace

int main() {
  std::cout << "2-D heat diffusion, " << kNx << "x" << kNy << ", " << kSteps
            << " Jacobi steps, three programming models\n\n";

  double kokkos_us = 0.0, sycl_us = 0.0, omp_us = 0.0;
  const std::vector<double> kokkos = run_kokkos(kokkos_us);
  const std::vector<double> sycl = run_sycl(sycl_us);
  const std::vector<double> omp = run_openmp(omp_us);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < kokkos.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(kokkos[i] - sycl[i]));
    max_diff = std::max(max_diff, std::fabs(kokkos[i] - omp[i]));
  }

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "Kokkos on NVIDIA : " << std::setw(10) << kokkos_us
            << " simulated us\n";
  std::cout << "SYCL   on Intel  : " << std::setw(10) << sycl_us
            << " simulated us\n";
  std::cout << "OpenMP on AMD    : " << std::setw(10) << omp_us
            << " simulated us\n\n";
  std::cout << "total heat remaining: " << total_heat(kokkos) << "\n";
  std::cout << std::scientific << "max cross-model difference: " << max_diff
            << "\n";

  const bool ok = max_diff == 0.0;
  std::cout << (ok ? "\nPASS" : "\nFAIL")
            << ": all three models produced bitwise-identical physics\n";
  return ok ? 0 : 1;
}
