#pragma once
// Simulated device-memory allocator. Device memory is host memory, but every
// allocation is tracked so the runtime can validate pointer provenance,
// detect leaks, account capacity, and inject failures — the properties real
// GPU runtimes enforce and tests want to exercise.
//
// Sanitizer support (gpusan memcheck/leakcheck): when guard bytes are
// configured, each allocation is surrounded by canary-filled red zones that
// are verified at queue sync points, on deallocate, and at device teardown,
// and its payload starts canary-filled as well (and is re-filled at free);
// every block additionally carries an origin tag and a monotonically
// increasing allocation id so findings can name the offending allocation.
// A bounded quarantine of recently freed blocks lets range checks attribute
// use-after-free accesses to the allocation they once belonged to.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/error.hpp"

namespace mcmm::gpusim {

/// Deterministic fault injection: after `fail_allocation_after` further
/// *successful* allocations, the next allocation fails (one-shot).
/// Allocations that fail for other reasons (capacity) do not advance the
/// countdown, so the injected fault always lands on the same logical
/// allocation regardless of how capacity pressure interleaves — and, since
/// the countdown is advanced under the allocator mutex, exactly one fault
/// fires even when many threads allocate concurrently.
struct FaultPlan {
  /// -1 = no injected faults; 0 = next allocation fails, N = fail after N
  /// more successful allocations.
  long long fail_allocation_after{-1};
};

/// A live allocation, as reported to leakcheck.
struct LiveBlock {
  const void* base{};
  std::size_t bytes{};
  std::uint64_t id{};     ///< allocation sequence number (1-based)
  std::string origin;     ///< tag supplied at allocation ("" = untagged)
};

/// A corrupted red zone, as reported to memcheck.
struct CanaryViolation {
  const void* base{};         ///< user base pointer of the allocation
  std::size_t bytes{};        ///< user-visible size
  std::uint64_t id{};
  std::string origin;
  bool front{};               ///< corrupted zone precedes the allocation
  std::ptrdiff_t offset{};    ///< first corrupted byte, relative to base
};

/// Non-throwing classification of a [p, p+bytes) range (gpusan strict
/// accessor checks run in noexcept kernel bodies, so they cannot use the
/// throwing check_range).
enum class RangeStatus : std::uint8_t {
  Ok,            ///< inside one live allocation
  OutOfBounds,   ///< overlaps a live allocation but escapes it
  UseAfterFree,  ///< inside a quarantined (recently freed) allocation
  Unknown,       ///< not this allocator's memory at all
};

struct RangeQuery {
  RangeStatus status{RangeStatus::Unknown};
  std::uint64_t id{};         ///< owning/former allocation, when known
  std::string origin;
  std::size_t bytes{};        ///< that allocation's user size
  std::ptrdiff_t offset{};    ///< p relative to the allocation base
};

class DeviceAllocator {
 public:
  explicit DeviceAllocator(std::size_t capacity_bytes);
  ~DeviceAllocator();

  DeviceAllocator(const DeviceAllocator&) = delete;
  DeviceAllocator& operator=(const DeviceAllocator&) = delete;

  /// Byte value the red zones are filled with.
  static constexpr std::uint8_t kCanaryByte = 0xCB;

  /// Allocates `bytes` of simulated device memory. Throws OutOfMemory when
  /// capacity would be exceeded or an injected fault triggers. Zero-byte
  /// allocations return a unique non-null pointer (like cudaMalloc).
  /// `origin` tags the allocation for sanitizer reports (a Kokkos view
  /// label, "syclx::buffer", ...).
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::string_view origin = {});

  /// Frees a pointer previously returned by allocate. Throws InvalidPointer
  /// for unknown or double-freed pointers. Verifies the block's red zones
  /// first; corruption found here is queued for the next verify_canaries().
  void deallocate(void* p);

  /// True when p points into a live allocation (interior pointers count).
  [[nodiscard]] bool owns(const void* p) const;

  /// Validates that [p, p + bytes) lies within one live allocation; throws
  /// InvalidPointer otherwise, naming the nearest allocation (including
  /// quarantined ones for use-after-free).
  void check_range(const void* p, std::size_t bytes) const;

  /// Non-throwing form of check_range with attribution (sanitizer path).
  [[nodiscard]] RangeQuery query_range(const void* p,
                                       std::size_t bytes) const;

  /// Red-zone size applied to subsequent allocations (0 disables guards).
  void set_guard_bytes(std::size_t guard);
  [[nodiscard]] std::size_t guard_bytes() const;

  /// Process-wide default guard size for newly constructed allocators
  /// (gpusan sets this before lazily constructed Platform devices exist).
  static void set_default_guard_bytes(std::size_t guard) noexcept;

  /// Scans every live block's red zones and returns all corrupted ones,
  /// including corruption detected earlier at deallocate time. Violations
  /// are reported once per scan; the consumer deduplicates across scans by
  /// allocation id and side.
  [[nodiscard]] std::vector<CanaryViolation> verify_canaries() const;

  /// Snapshot of all live allocations (leakcheck input).
  [[nodiscard]] std::vector<LiveBlock> live_blocks() const;

  [[nodiscard]] std::size_t used_bytes() const;
  [[nodiscard]] std::size_t peak_bytes() const;
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::size_t live_allocations() const;

  void set_fault_plan(const FaultPlan& plan);

 private:
  struct Block {
    std::size_t bytes{};    ///< user-visible size
    std::size_t guard{};    ///< red-zone size on each side at allocation
    std::uint64_t id{};
    std::string origin;
  };

  /// Quarantine entry for use-after-free attribution. Guarded blocks
  /// (sanitizer mode) keep their backing memory alive while quarantined —
  /// `raw` owns it and is freed on eviction — so an instrumented
  /// use-after-free access reads poisoned-but-valid host memory instead of
  /// genuinely freed heap (ASan's quarantine does the same). Unguarded
  /// blocks free immediately and keep raw null.
  struct FreedBlock {
    const void* base{};
    std::size_t bytes{};
    std::uint64_t id{};
    std::string origin;
    void* raw{};  ///< deferred-freed backing store, null if freed already
  };

  static constexpr std::size_t kQuarantineEntries = 64;

  void check_block_canaries(const void* base, const Block& block,
                            std::vector<CanaryViolation>& out) const;

  mutable std::mutex mutex_;
  std::map<const void*, Block> blocks_;  ///< keyed by user base pointer
  std::deque<FreedBlock> quarantine_;    ///< most recent frees, bounded
  mutable std::vector<CanaryViolation> pending_violations_;
  std::size_t capacity_;
  std::size_t used_{0};
  std::size_t peak_{0};
  std::size_t guard_{0};
  std::uint64_t next_id_{1};
  FaultPlan fault_plan_{};
};

}  // namespace mcmm::gpusim
