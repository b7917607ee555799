// Exact bin packing: dual-feasible bounds plus a budgeted bin-completion
// search.
#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"

namespace dbp {

/// Outcome of an exact solve.
struct ExactPackingResult {
  std::size_t lower = 0;   ///< proven lower bound on the optimum
  std::size_t upper = 0;   ///< bin count of the best packing found
  bool proven = false;     ///< lower == upper
  std::uint64_t nodes = 0; ///< completion candidates examined
};

struct ExactPackingOptions {
  /// Stop searching (keeping the bounds proven so far) once this many
  /// completion candidates have been examined; a spent budget reports
  /// nodes == node_budget + 1. Measured on 1000-item continuous-size
  /// instances (~80 items active, sizes 0.05-0.5 of a bin), the default
  /// closes 91% of the snapshots whose L2 and FFD/BFD bounds differ, at
  /// ~0.4 ms per such snapshot on one core; a spent budget costs ~2 ms.
  /// Dyadic snapshots usually close on the dual-feasible bound alone.
  std::uint64_t node_budget = 100'000;
};

/// Certified optimum (or bounds) of a static multiset. The lower bound is
/// raised with the Fekete-Schepers bound (dff_lower_bound_rle); then a
/// bin-completion search asks "does it fit in upper - 1 bins?" until the
/// answer is no (lower = upper) or the budget runs out. Each "yes" comes with
/// a packing that is replayed through CostModel::fits before it lowers the
/// upper bound. Feasibility is the library-wide one: a bin's items, in
/// non-increasing order, pass fits() one by one from residual W.
[[nodiscard]] ExactPackingResult exact_bin_count(std::span<const double> sizes,
                                                 const CostModel& model,
                                                 const ExactPackingOptions& options = {});

class MonotonicArena;

/// Search-only entry point for callers that already hold valid bounds:
/// `sorted_desc` must be non-increasing, `lower` must come from
/// l2_lower_bound_rle and `upper` from min(FFD, BFD) over the same multiset.
/// Under that contract the result is bit-identical to exact_bin_count (which
/// recomputes exactly those bounds before calling this); every working array
/// comes out of `scratch`, so a caller that resets the arena between
/// snapshots (opt/scratch.hpp) runs the solver without heap allocations.
[[nodiscard]] ExactPackingResult exact_bin_count_bounded(
    std::span<const double> sorted_desc, const CostModel& model, std::size_t lower,
    std::size_t upper, const ExactPackingOptions& options, MonotonicArena& scratch);

}  // namespace dbp
