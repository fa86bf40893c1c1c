#include "gpusim/allocator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace mcmm::gpusim {
namespace {

std::atomic<std::size_t> g_default_guard_bytes{0};

[[nodiscard]] std::size_t padded_size(std::size_t bytes) noexcept {
  // Zero-byte allocations still occupy one byte so they get a unique
  // address.
  return bytes == 0 ? 1 : bytes;
}

[[nodiscard]] std::string describe(std::uint64_t id,
                                   const std::string& origin,
                                   std::size_t bytes) {
  std::string s = "allocation #" + std::to_string(id) + " ('" +
                  (origin.empty() ? std::string("untagged") : origin) +
                  "', " + std::to_string(bytes) + " bytes)";
  return s;
}

}  // namespace

DeviceAllocator::DeviceAllocator(std::size_t capacity_bytes)
    : capacity_(capacity_bytes),
      guard_(g_default_guard_bytes.load(std::memory_order_relaxed)) {}

DeviceAllocator::~DeviceAllocator() {
  // Free any leaked blocks; leak *detection* is the caller's job via
  // live_blocks()/live_allocations().
  for (const auto& [base, block] : blocks_) {
    std::free(static_cast<std::byte*>(const_cast<void*>(base)) -
              block.guard);
  }
  for (const FreedBlock& f : quarantine_) {
    if (f.raw != nullptr) std::free(f.raw);
  }
}

void DeviceAllocator::set_default_guard_bytes(std::size_t guard) noexcept {
  g_default_guard_bytes.store(guard, std::memory_order_relaxed);
}

void* DeviceAllocator::allocate(std::size_t bytes, std::string_view origin) {
  const std::lock_guard lock(mutex_);
  if (fault_plan_.fail_allocation_after == 0) {
    fault_plan_.fail_allocation_after = -1;  // one-shot
    throw OutOfMemory(bytes, capacity_ - used_);
  }
  if (bytes > capacity_ || used_ > capacity_ - bytes) {
    throw OutOfMemory(bytes, capacity_ - used_);
  }
  const std::size_t guard = guard_;
  auto* raw =
      static_cast<std::byte*>(std::malloc(padded_size(bytes) + 2 * guard));
  if (raw == nullptr) throw std::bad_alloc();
  if (guard != 0) {
    // The payload starts as canary bytes too: a read of memory nobody
    // wrote sees the canary, never a previous owner's values.
    std::memset(raw, kCanaryByte, padded_size(bytes) + 2 * guard);
  }
  std::byte* p = raw + guard;
  blocks_.emplace(p, Block{bytes, guard, next_id_++, std::string(origin)});
  used_ += bytes;
  peak_ = std::max(peak_, used_);
  // The countdown advances only on success, and only here, under the same
  // mutex hold that made the allocation — so concurrent allocators observe
  // exactly one injected fault after exactly N successes.
  if (fault_plan_.fail_allocation_after > 0) {
    --fault_plan_.fail_allocation_after;
  }
  return p;
}

void DeviceAllocator::deallocate(void* p) {
  const std::lock_guard lock(mutex_);
  const auto it = blocks_.find(p);
  if (it == blocks_.end()) {
    for (const FreedBlock& f : quarantine_) {
      if (f.base == p) {
        throw InvalidPointer(
            "deallocate: double free of " +
            describe(f.id, f.origin, f.bytes));
      }
    }
    throw InvalidPointer("deallocate: pointer is not a live device "
                         "allocation (double free or foreign pointer)");
  }
  check_block_canaries(it->first, it->second, pending_violations_);
  used_ -= it->second.bytes;
  std::byte* raw = static_cast<std::byte*>(p) - it->second.guard;
  FreedBlock freed{p, it->second.bytes, it->second.id, it->second.origin,
                   nullptr};
  if (it->second.guard != 0) {
    // Sanitizer mode: keep the backing store alive while quarantined so an
    // instrumented use-after-free access stays a *simulated* defect.
    std::memset(raw, kCanaryByte,
                padded_size(it->second.bytes) + 2 * it->second.guard);
    freed.raw = raw;
  } else {
    std::free(raw);
  }
  quarantine_.push_back(std::move(freed));
  if (quarantine_.size() > kQuarantineEntries) {
    if (quarantine_.front().raw != nullptr) {
      std::free(quarantine_.front().raw);
    }
    quarantine_.pop_front();
  }
  blocks_.erase(it);
}

bool DeviceAllocator::owns(const void* p) const {
  const std::lock_guard lock(mutex_);
  if (blocks_.empty()) return false;
  auto it = blocks_.upper_bound(p);
  if (it == blocks_.begin()) return false;
  --it;
  const auto* base = static_cast<const std::byte*>(it->first);
  const auto* probe = static_cast<const std::byte*>(p);
  return probe < base + padded_size(it->second.bytes);
}

RangeQuery DeviceAllocator::query_range(const void* p,
                                        std::size_t bytes) const {
  const std::lock_guard lock(mutex_);
  const auto* probe = static_cast<const std::byte*>(p);

  // Candidate live block: the last block whose *red-zone-extended* range
  // could contain p. Check the preceding block first (covers interior and
  // back red zone), then the following one (front red zone).
  auto consider = [&](std::map<const void*, Block>::const_iterator it)
      -> RangeQuery {
    const auto* base = static_cast<const std::byte*>(it->first);
    const Block& b = it->second;
    const std::byte* lo = base - b.guard;
    const std::byte* hi = base + padded_size(b.bytes) + b.guard;
    if (probe < lo || probe >= hi) return RangeQuery{};
    RangeQuery q;
    q.id = b.id;
    q.origin = b.origin;
    q.bytes = b.bytes;
    q.offset = probe - base;
    const bool inside = probe >= base && bytes <= b.bytes &&
                        static_cast<std::size_t>(probe - base) <=
                            b.bytes - bytes;
    q.status = inside ? RangeStatus::Ok : RangeStatus::OutOfBounds;
    return q;
  };

  if (!blocks_.empty()) {
    auto it = blocks_.upper_bound(p);
    if (it != blocks_.begin()) {
      auto prev = it;
      --prev;
      RangeQuery q = consider(prev);
      if (q.status != RangeStatus::Unknown) return q;
    }
    if (it != blocks_.end()) {
      RangeQuery q = consider(it);
      if (q.status != RangeStatus::Unknown) return q;
    }
  }
  // Not live: was it freed recently? (Newest match wins: the address may
  // have been recycled through several quarantined blocks.)
  for (auto it = quarantine_.rbegin(); it != quarantine_.rend(); ++it) {
    const auto* base = static_cast<const std::byte*>(it->base);
    if (probe >= base && probe < base + padded_size(it->bytes)) {
      RangeQuery q;
      q.status = RangeStatus::UseAfterFree;
      q.id = it->id;
      q.origin = it->origin;
      q.bytes = it->bytes;
      q.offset = probe - base;
      return q;
    }
  }
  return RangeQuery{};
}

void DeviceAllocator::check_range(const void* p, std::size_t bytes) const {
  const RangeQuery q = query_range(p, bytes);
  switch (q.status) {
    case RangeStatus::Ok:
      return;
    case RangeStatus::OutOfBounds:
      throw InvalidPointer(
          "range check: access of " + std::to_string(bytes) +
          " bytes at offset " + std::to_string(q.offset) + " runs past " +
          describe(q.id, q.origin, q.bytes));
    case RangeStatus::UseAfterFree:
      throw InvalidPointer("range check: use-after-free of " +
                           describe(q.id, q.origin, q.bytes) +
                           " at offset " + std::to_string(q.offset));
    case RangeStatus::Unknown:
      break;
  }
  throw InvalidPointer("range check: pointer is not device memory");
}

void DeviceAllocator::set_guard_bytes(std::size_t guard) {
  const std::lock_guard lock(mutex_);
  guard_ = guard;
}

std::size_t DeviceAllocator::guard_bytes() const {
  const std::lock_guard lock(mutex_);
  return guard_;
}

void DeviceAllocator::check_block_canaries(
    const void* base, const Block& block,
    std::vector<CanaryViolation>& out) const {
  if (block.guard == 0) return;
  const auto* user = static_cast<const std::byte*>(base);
  const auto canary = static_cast<std::byte>(kCanaryByte);
  auto report = [&](bool front, const std::byte* zone) {
    for (std::size_t i = 0; i < block.guard; ++i) {
      if (zone[i] != canary) {
        CanaryViolation v;
        v.base = base;
        v.bytes = block.bytes;
        v.id = block.id;
        v.origin = block.origin;
        v.front = front;
        v.offset = (zone + i) - user;
        out.push_back(std::move(v));
        return;  // first corrupted byte per zone is enough
      }
    }
  };
  report(/*front=*/true, user - block.guard);
  report(/*front=*/false, user + block.bytes);
}

std::vector<CanaryViolation> DeviceAllocator::verify_canaries() const {
  const std::lock_guard lock(mutex_);
  std::vector<CanaryViolation> out = std::move(pending_violations_);
  pending_violations_.clear();
  for (const auto& [base, block] : blocks_) {
    check_block_canaries(base, block, out);
  }
  return out;
}

std::vector<LiveBlock> DeviceAllocator::live_blocks() const {
  const std::lock_guard lock(mutex_);
  std::vector<LiveBlock> out;
  out.reserve(blocks_.size());
  for (const auto& [base, block] : blocks_) {
    out.push_back(LiveBlock{base, block.bytes, block.id, block.origin});
  }
  return out;
}

std::size_t DeviceAllocator::used_bytes() const {
  const std::lock_guard lock(mutex_);
  return used_;
}

std::size_t DeviceAllocator::peak_bytes() const {
  const std::lock_guard lock(mutex_);
  return peak_;
}

std::size_t DeviceAllocator::live_allocations() const {
  const std::lock_guard lock(mutex_);
  return blocks_.size();
}

void DeviceAllocator::set_fault_plan(const FaultPlan& plan) {
  const std::lock_guard lock(mutex_);
  fault_plan_ = plan;
}

}  // namespace mcmm::gpusim
