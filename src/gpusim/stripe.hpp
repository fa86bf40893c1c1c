#pragma once
// Shared host-side execution of bulk memory operations: copies and fills at
// or above kParallelBytesThreshold are striped over the fork-join pool (the
// BabelStream init/read paths move hundreds of MiB through them); smaller
// ones stay serial — the fork-join round trip would dominate. Used by the
// eager queue (queue.cpp) and by graph replay (graph.cpp), which must move
// bytes exactly the way the eager path does so replayed results stay
// bit-identical.

#include <cstring>
#include <thread>

#include "gpusim/thread_pool.hpp"

namespace mcmm::gpusim::stripe {

inline constexpr std::size_t kParallelBytesThreshold = std::size_t{1} << 22;

struct CopyCtx {
  unsigned char* dst;
  const unsigned char* src;
};

inline void copy_chunk(void* ctx, std::uint64_t begin, std::uint64_t end) {
  auto* c = static_cast<CopyCtx*>(ctx);
  std::memcpy(c->dst + begin, c->src + begin, end - begin);
}

struct FillCtx {
  unsigned char* dst;
  int value;
};

inline void fill_chunk(void* ctx, std::uint64_t begin, std::uint64_t end) {
  auto* f = static_cast<FillCtx*>(ctx);
  std::memset(f->dst + begin, f->value, end - begin);
}

/// Striping a memory-bound loop pays only when distinct cores sit behind
/// the workers; on an oversubscribed single-core host it just adds context
/// switches, so the copy stays serial there.
inline bool parallel_profitable(const ThreadPool& pool) {
  static const bool multi_core = std::thread::hardware_concurrency() > 1;
  return multi_core && pool.worker_count() > 1;
}

/// A zero-length copy or fill touches nothing; it returns before the
/// libc call, whose pointer arguments must be non-null even then (an
/// empty host vector hands in a null source).
inline void run_copy(ThreadPool& pool, void* dst, const void* src,
                     std::size_t bytes) {
  if (bytes == 0) return;
  if (bytes >= kParallelBytesThreshold && parallel_profitable(pool)) {
    CopyCtx ctx{static_cast<unsigned char*>(dst),
                static_cast<const unsigned char*>(src)};
    pool.run_batch(bytes, &copy_chunk, &ctx);
  } else {
    std::memcpy(dst, src, bytes);
  }
}

inline void run_fill(ThreadPool& pool, void* dst, int value,
                     std::size_t bytes) {
  if (bytes == 0) return;
  if (bytes >= kParallelBytesThreshold && parallel_profitable(pool)) {
    FillCtx ctx{static_cast<unsigned char*>(dst), value};
    pool.run_batch(bytes, &fill_chunk, &ctx);
  } else {
    std::memset(dst, value, bytes);
  }
}

}  // namespace mcmm::gpusim::stripe
