// Lower bounds on the optimal bin count of a static packing instance.
//
// Soundness under floating-point: the packing feasibility test everywhere in
// this library is `sum of sizes <= W + fit_tolerance`, so all bounds here
// are computed against the *effective* capacity W' = W + fit_tolerance (plus
// a relative ceil guard). A bound that is valid for W' is valid for every
// packing the BinManager would accept.
#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "opt/rle.hpp"

namespace dbp {

class MonotonicArena;

/// L2 (Martello-Toth) on the run-length-encoded multiset (strictly
/// decreasing run sizes): partitions items around a threshold alpha and
/// counts bins that large items force open, maximized over all candidate
/// alphas and floored at L1 (ceil of the total volume), so it dominates L1.
/// Every index the per-item algorithm touches (threshold
/// partitions, candidate alphas) is a run boundary, so only boundary prefix
/// sums are materialized — O(d log d) bookkeeping for d runs on top of the
/// O(n) compensated summation. The boundary arrays come out of `scratch`, so
/// a caller that resets the arena between snapshots (opt/scratch.hpp) pays
/// zero allocations in steady state. 0 for the empty set.
[[nodiscard]] std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs,
                                             const CostModel& model,
                                             MonotonicArena& scratch);

/// Upper bound on the real-number volume of any bin that CostModel::fits
/// accepts item by item from residual W, for bins of at most `item_count`
/// items: (W + tolerance) widened by the rounding the residual subtractions
/// can hide, rounded up. The dual-feasible bound below and the exact
/// solver's waste budget (opt/exact.cpp) measure volume against it.
[[nodiscard]] double bin_volume_bound(const CostModel& model, std::uint64_t item_count);

/// Largest k of the Fekete-Schepers family dff_lower_bound_rle maximizes over.
inline constexpr std::size_t kDffMaxK = 12;

/// Weight of one item of size `size` under u^(k), in units of
/// 1 / (k (k + 1)): u^(k)(x) = x when (k + 1) x is an integer and
/// floor((k + 1) x) / k otherwise, with x = size / `volume_bound`. Integer
/// weights make every sum of them exact.
[[nodiscard]] std::uint64_t dff_weight(double size, double volume_bound, std::size_t k);

/// Fekete-Schepers dual-feasible-function bound ("New classes of fast lower
/// bounds for bin packing problems", Math. Prog. 2001): the maximum over
/// k = 1..kDffMaxK of ceil(sum of u^(k)(s / V)), V = bin_volume_bound. Each
/// u^(k) maps the sizes of any feasible bin to values summing to at most 1,
/// so every term is a lower bound. It beats L2 on multisets with many items
/// just above 1/(k + 1) of a bin (e.g. 3/8 with 1/2: u^(2) counts both as
/// 1/2). 0 for the empty set.
[[nodiscard]] std::size_t dff_lower_bound_rle(std::span<const SizeRun> runs,
                                              const CostModel& model);

}  // namespace dbp
