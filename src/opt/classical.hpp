// Classical (static) bin packing heuristics.
//
// OPT(R, t) — the paper's per-time-point optimum (Section 3.2) — is a
// classical bin packing problem over the multiset of active item sizes.
// FFD/BFD provide upper bounds; opt/lower_bounds.hpp provides lower bounds;
// opt/exact.hpp closes the gap when affordable.
//
// Both heuristics take the run-length-encoded multiset (strictly decreasing
// run sizes, opt/rle.hpp) and a caller-owned residual structure that is
// cleared and reused, so a caller evaluating many multisets in a row (a
// BinCountScratch, opt/scratch.hpp) touches no heap in steady state.
// tests/reference_packing.hpp keeps the textbook per-item loops they are
// differentially tested against.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "opt/rle.hpp"

namespace dbp {

class MaxSegmentTree;

/// Number of bins First Fit Decreasing uses to pack the expanded multiset
/// into bins of capacity model.bin_capacity (tolerance-aware). Equal
/// consecutive items land in the same bin under FFD, so a run is placed
/// with one tree search per open bin it tops up while the per-item residual
/// subtractions are replayed unchanged. The rest of the run, once no open
/// bin fits, goes to fresh bins that all replay one sequence from W: one
/// replay, then one bulk append of the full bins' residuals
/// (MaxSegmentTree::append). O((d + u) log b + m + f) for d runs, u
/// open-bin top-ups, m items topped up into open bins and f fresh bins,
/// instead of O(n log b) for n items. `residuals` is clear()ed first; its
/// storage is retained.
[[nodiscard]] std::size_t first_fit_decreasing_rle(std::span<const SizeRun> runs,
                                                   const CostModel& model,
                                                   MaxSegmentTree& residuals);

/// Number of bins Best Fit Decreasing uses, on a flat ascending-sorted
/// residual vector (clear()ed first, capacity retained). lower_bound on it
/// selects the same residual *value* the textbook std::multiset walk does,
/// and erase/insert keep the same sorted value sequence (ties are
/// interchangeable — only values are ever read), so the per-item
/// subtraction sequence and the bin count match the per-item loop exactly.
[[nodiscard]] std::size_t best_fit_decreasing_rle(std::span<const SizeRun> runs,
                                                  const CostModel& model,
                                                  std::vector<double>& residuals);

}  // namespace dbp
