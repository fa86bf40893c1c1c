#pragma once
// Algorithm cores for pstlx (src/pstlx/pstlx.hpp is the device-executed
// surface over them).
//
// Everything here is deterministic by construction: tile geometry is a
// pure function of the problem size (never of the worker count), tiles
// are combined in index order, and the merge path is resolved by binary
// search on the data — so results are bitwise identical across pool
// sizes and Schedule::Static/Dynamic.
//
// The three idioms (ROADMAP attributes them to the oneDPL pattern
// headers; implemented from scratch here):
//   * blocked reduce/sort: fixed tile grid, per-tile serial work,
//     deterministic combine;
//   * two-pass scan: per-tile sums -> host prefix over tile sums ->
//     per-tile re-scan with offsets;
//   * parallel_merge: co-rank (merge-path) binary search splits the
//     output range into independent segments.
//
// Execution is abstracted behind `Exec`: a callable
// `exec(num_tasks, body)` that runs body(t) for every t in
// [0, num_tasks), in any order, on any number of threads. The device
// surface backs it with a gpusim::Queue launch (so gpusan and gpuprof
// observe the work). NoteDevice forwards each task's range accesses to
// the sanitizer seam.

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>

#include "gpusim/sanitizer.hpp"

namespace mcmm::pstlx::detail {

/// Reduce/scan use the same 64-way decomposition as stdparx's
/// chunked_reduce so pstlx results are bitwise identical to the stdparx
/// primitives they replace in the perfport campaign.
inline constexpr std::size_t kReduceTiles = 64;
inline constexpr std::size_t kScanTiles = 64;

/// Sort/merge tile geometry: enough tiles to spread, but tiles never
/// drop below kSortMinTile elements (per-tile std::sort amortizes).
inline constexpr std::size_t kSortMaxTiles = 64;
inline constexpr std::size_t kSortMinTile = 1024;

[[nodiscard]] constexpr std::size_t ceil_div(std::size_t n,
                                             std::size_t d) noexcept {
  return d == 0 ? 0 : (n + d - 1) / d;
}

/// Number of sort/merge tiles for n elements (0 when n == 0). Depends
/// only on n: the tiling — and therefore the result — is independent of
/// the worker count.
[[nodiscard]] constexpr std::size_t sort_tiles(std::size_t n) noexcept {
  if (n == 0) return 0;
  const std::size_t by_grain = ceil_div(n, kSortMinTile);
  return by_grain < kSortMaxTiles ? by_grain : kSortMaxTiles;
}

/// Device access policy: forwards each task's input/output ranges to the
/// sanitizer seam, so gpusan's memcheck bounds-checks them and racecheck
/// sees which work item touched which range.
struct NoteDevice {
  static void read(const void* p, std::size_t bytes) noexcept {
    if (bytes != 0) {
      gpusim::note_device_access(p, bytes, gpusim::AccessKind::Read);
    }
  }
  static void write(const void* p, std::size_t bytes) noexcept {
    if (bytes != 0) {
      gpusim::note_device_access(p, bytes, gpusim::AccessKind::Write);
    }
  }
};

/// Merge-path co-rank: the number of elements taken from `a` by the
/// first `d` outputs of a stable merge of (a, na) and (b, nb). Stability
/// means ties take from `a` first (std::merge semantics). O(log min(na,
/// nb, d)) comparisons, no side effects — every task can compute its own
/// split independently.
template <typename ItA, typename ItB, typename Comp>
[[nodiscard]] std::size_t co_rank(std::size_t d, ItA a, std::size_t na,
                                  ItB b, std::size_t nb, Comp comp) {
  std::size_t lo = d > nb ? d - nb : 0;
  std::size_t hi = d < na ? d : na;
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;  // candidate take-from-a
    const std::size_t j = d - i - 1;           // last taken b index
    if (comp(b[j], a[i])) {
      hi = i;  // b[j] precedes a[i]: taking i from a is feasible
    } else {
      lo = i + 1;  // a[i] precedes (or ties) b[j]: must take a[i] too
    }
  }
  return lo;
}

/// Serial stable merge of a[ia, ia_end) and b[ib, ib_end) into
/// out[io, ...). Ties take from `a` first.
template <typename ItA, typename ItB, typename ItOut, typename Comp>
void merge_serial(ItA a, std::size_t ia, std::size_t ia_end, ItB b,
                  std::size_t ib, std::size_t ib_end, ItOut out,
                  std::size_t io, Comp comp) {
  while (ia < ia_end && ib < ib_end) {
    if (comp(b[ib], a[ia])) {
      out[io++] = b[ib++];
    } else {
      out[io++] = a[ia++];
    }
  }
  while (ia < ia_end) out[io++] = a[ia++];
  while (ib < ib_end) out[io++] = b[ib++];
}

/// Stable parallel merge of (a, na) and (b, nb) into out: the output
/// range is cut into sort_tiles(na + nb) equal segments; each task
/// co-ranks its segment's endpoints and merges its slice serially.
/// Segments partition the inputs and the output, so tasks are disjoint.
template <typename T, typename Comp, typename Exec>
void parallel_merge(const T* a, std::size_t na, const T* b, std::size_t nb,
                    T* out, Comp comp, Exec&& exec) {
  const std::size_t total = na + nb;
  const std::size_t segs = sort_tiles(total);
  if (segs == 0) return;
  const std::size_t seg = ceil_div(total, segs);
  exec(segs, [&](std::size_t s) {
    const std::size_t d0 = std::min(total, s * seg);
    const std::size_t d1 = std::min(total, d0 + seg);
    if (d0 >= d1) return;
    const std::size_t i0 = co_rank(d0, a, na, b, nb, comp);
    const std::size_t i1 = co_rank(d1, a, na, b, nb, comp);
    const std::size_t j0 = d0 - i0;
    const std::size_t j1 = d1 - i1;
    NoteDevice::read(a + i0, (i1 - i0) * sizeof(T));
    NoteDevice::read(b + j0, (j1 - j0) * sizeof(T));
    NoteDevice::write(out + d0, (d1 - d0) * sizeof(T));
    merge_serial(a, i0, i1, b, j0, j1, out, d0, comp);
  });
}

/// Blocked merge sort over data[0, n): per-tile std::sort (or
/// std::stable_sort when Stable), then log2(tiles) rounds of
/// width-doubling pair merges, each round's output segments split by
/// co-rank into independent tasks. `tmp` must hold n elements; rounds
/// ping-pong between data and tmp with a tiled copy-back if the final
/// round lands in tmp.
template <bool Stable, typename T, typename Comp, typename Exec>
void blocked_merge_sort(T* data, std::size_t n, Comp comp, T* tmp,
                        Exec&& exec) {
  const std::size_t tiles = sort_tiles(n);
  if (tiles == 0) return;
  const std::size_t tile = ceil_div(n, tiles);

  // Pass 0: independent in-place tile sorts.
  exec(tiles, [&](std::size_t t) {
    const std::size_t b = std::min(n, t * tile);
    const std::size_t e = std::min(n, b + tile);
    if (b >= e) return;
    NoteDevice::read(data + b, (e - b) * sizeof(T));
    NoteDevice::write(data + b, (e - b) * sizeof(T));
    if constexpr (Stable) {
      std::stable_sort(data + b, data + e, comp);
    } else {
      std::sort(data + b, data + e, comp);
    }
  });

  // Merge rounds: pairs of width-sized sorted runs merge into 2*width
  // runs. Each pair's output is further split into co-rank segments so
  // one huge final merge still spreads over the pool. The flattened
  // (pair, segment) grid keeps every round a single task batch.
  T* src = data;
  T* dst = tmp;
  for (std::size_t width = tile; width < n; width *= 2) {
    const std::size_t pairs = ceil_div(n, 2 * width);
    const std::size_t segs = sort_tiles(std::min(n, 2 * width));
    exec(pairs * segs, [&](std::size_t task) {
      const std::size_t p = task / segs;
      const std::size_t s = task % segs;
      const std::size_t base = p * 2 * width;
      if (base >= n) return;
      const T* a = src + base;
      const std::size_t na = std::min(width, n - base);
      const T* b = src + base + na;
      const std::size_t nb = base + na < n
                                 ? std::min(width, n - base - na)
                                 : std::size_t{0};
      const std::size_t total = na + nb;
      const std::size_t seg = ceil_div(total, segs);
      const std::size_t d0 = std::min(total, s * seg);
      const std::size_t d1 = std::min(total, d0 + seg);
      if (d0 >= d1) return;
      const std::size_t i0 = co_rank(d0, a, na, b, nb, comp);
      const std::size_t i1 = co_rank(d1, a, na, b, nb, comp);
      const std::size_t j0 = d0 - i0;
      const std::size_t j1 = d1 - i1;
      NoteDevice::read(a + i0, (i1 - i0) * sizeof(T));
      NoteDevice::read(b + j0, (j1 - j0) * sizeof(T));
      NoteDevice::write(dst + base + d0, (d1 - d0) * sizeof(T));
      merge_serial(a, i0, i1, b, j0, j1, dst + base, d0, comp);
    });
    std::swap(src, dst);
  }

  if (src != data) {
    exec(tiles, [&](std::size_t t) {
      const std::size_t b = std::min(n, t * tile);
      const std::size_t e = std::min(n, b + tile);
      if (b >= e) return;
      NoteDevice::read(src + b, (e - b) * sizeof(T));
      NoteDevice::write(data + b, (e - b) * sizeof(T));
      std::copy(src + b, src + e, data + b);
    });
  }
}

/// Blocked reduce: the exact stdparx::detail::chunked_reduce
/// decomposition (64 ceil-split chunks, partials combined in chunk
/// order, init first) so routing the perfport campaign's Dot/Reduce
/// through pstlx reproduces the stdparx sums bit for bit.
template <typename R, typename Transform, typename Combine,
          typename NoteChunk, typename Exec>
[[nodiscard]] R blocked_reduce(std::size_t n, R init, Transform&& transform,
                               Combine&& combine, NoteChunk&& note_chunk,
                               Exec&& exec) {
  constexpr std::size_t kTiles = kReduceTiles;
  std::array<R, kTiles> partials;
  std::array<bool, kTiles> used{};
  const std::size_t chunk = ceil_div(n, kTiles);
  exec(kTiles, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) return;
    note_chunk(begin, end);
    R acc = transform(begin);
    for (std::size_t i = begin + 1; i < end; ++i) {
      acc = combine(acc, transform(i));
    }
    partials[c] = acc;
    used[c] = true;
  });
  R result = init;
  for (std::size_t c = 0; c < kTiles; ++c) {
    if (used[c]) result = combine(result, partials[c]);
  }
  return result;
}

/// Two-pass blocked scan. Pass 1 computes per-tile sums; the submitter
/// folds them into per-tile offsets (64 combines, trivially serial);
/// pass 2 re-scans each tile seeded with its offset. `Inclusive` picks
/// out[i] = prefix-including-i, else the exclusive form seeded by
/// `init`. Generic over the combine op, so no identity element is
/// assumed: tile 0 of an inclusive scan starts from in[0] itself.
template <bool Inclusive, typename T, typename U, typename Op,
          typename Exec>
void two_pass_scan(const T* in, U* out, std::size_t n, U init, Op op,
                   Exec&& exec) {
  if (n == 0) return;
  constexpr std::size_t kTiles = kScanTiles;
  const std::size_t tile = ceil_div(n, kTiles);
  std::array<U, kTiles> sums{};
  std::array<U, kTiles> offsets{};

  exec(kTiles, [&](std::size_t c) {
    const std::size_t b = c * tile;
    const std::size_t e = std::min(n, b + tile);
    if (b >= e) return;
    NoteDevice::read(in + b, (e - b) * sizeof(T));
    U acc = static_cast<U>(in[b]);
    for (std::size_t i = b + 1; i < e; ++i) {
      acc = op(acc, static_cast<U>(in[i]));
    }
    sums[c] = acc;
  });

  // Host prefix over tile sums. Empty tiles exist only past the data,
  // so for every non-empty tile c > 0 the running value is well-formed.
  if constexpr (Inclusive) {
    U running = sums[0];
    for (std::size_t c = 1; c < kTiles; ++c) {
      offsets[c] = running;
      if (c * tile < n) running = op(running, sums[c]);
    }
  } else {
    U running = init;
    for (std::size_t c = 0; c < kTiles; ++c) {
      offsets[c] = running;
      if (c * tile < n) running = op(running, sums[c]);
    }
  }

  exec(kTiles, [&](std::size_t c) {
    const std::size_t b = c * tile;
    const std::size_t e = std::min(n, b + tile);
    if (b >= e) return;
    NoteDevice::read(in + b, (e - b) * sizeof(T));
    NoteDevice::write(out + b, (e - b) * sizeof(U));
    if constexpr (Inclusive) {
      U acc = c == 0 ? static_cast<U>(in[b])
                     : op(offsets[c], static_cast<U>(in[b]));
      out[b] = acc;
      for (std::size_t i = b + 1; i < e; ++i) {
        acc = op(acc, static_cast<U>(in[i]));
        out[i] = acc;
      }
    } else {
      U acc = offsets[c];
      for (std::size_t i = b; i < e; ++i) {
        const U next = op(acc, static_cast<U>(in[i]));
        out[i] = acc;
        acc = next;
      }
    }
  });
}

}  // namespace mcmm::pstlx::detail
