// Reusable working storage for the bin-count computation.
//
// Every bin count (opt/bin_count.hpp) runs on a BinCountScratch: an FFD
// segment tree, a BFD residual index, and a monotonic arena for the L2
// prefix arrays and the exact solver's expansion and branch stack.
// Containers are clear()ed between snapshots (capacity retained) and the
// arena is reset() per call, so a caller that keeps one scratch across
// calls — an OPT_total evaluate worker (~10k snapshots per estimate), the
// engine's epoch oracle — performs zero heap allocations after the first
// few snapshots (core/arena.hpp documents the discipline; the arena
// counters are the regression-test hook). One-shot callers go through the
// adapters that build a call-local scratch.
//
// Not thread-safe — one scratch per worker.
#pragma once

#include <vector>

#include "algo/segment_tree.hpp"
#include "core/arena.hpp"

namespace dbp {

struct BinCountScratch {
  /// Transient per-call arrays (L2 prefix sums, exact-solver expansion and
  /// branch stack). reset() at the top of every optimal_bin_count_rle call.
  MonotonicArena arena;

  /// FFD residual tree; clear()ed per call, physical storage retained.
  MaxSegmentTree ffd_tree;

  /// BFD residual index: a flat ascending-sorted vector standing in for the
  /// textbook std::multiset<double> (opt/classical.hpp documents the
  /// value-equivalence). clear()ed per call, capacity retained.
  std::vector<double> bfd_residuals;
};

}  // namespace dbp
