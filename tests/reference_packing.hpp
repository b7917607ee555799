// Textbook per-item FFD, BFD, L1 and L2 over a flat non-increasing size
// list: the oracles the run-length-encoded kernels of opt/classical.hpp and
// opt/lower_bounds.hpp are differentially tested against. Each loop places
// or sums one item at a time, so the kernels' run-at-a-time shortcuts must
// reproduce these floating-point sequences (and therefore these counts)
// exactly. The bottom of the file adapts flat size lists to the kernels.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "algo/segment_tree.hpp"
#include "core/arena.hpp"
#include "core/compensated_sum.hpp"
#include "core/types.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"
#include "opt/rle.hpp"

namespace dbp::reference {

/// First Fit Decreasing: each item goes to the leftmost open bin it fits.
inline std::size_t first_fit_decreasing(std::span<const double> sorted_desc,
                                        const CostModel& model) {
  std::vector<double> residuals;
  for (double size : sorted_desc) {
    const auto bin = std::find_if(residuals.begin(), residuals.end(), [&](double residual) {
      return model.fits(size, residual);
    });
    if (bin == residuals.end()) {
      residuals.push_back(model.bin_capacity - size);
    } else {
      *bin -= size;
    }
  }
  return residuals.size();
}

/// Best Fit Decreasing: each item goes to the open bin with the smallest
/// residual it fits, kept in a std::multiset.
inline std::size_t best_fit_decreasing(std::span<const double> sorted_desc,
                                       const CostModel& model) {
  std::multiset<double> residuals;
  std::size_t bins = 0;
  for (double size : sorted_desc) {
    const auto it = residuals.lower_bound(size - model.fit_tolerance);
    if (it == residuals.end()) {
      ++bins;
      residuals.insert(model.bin_capacity - size);
    } else {
      const double residual = *it;
      residuals.erase(it);
      residuals.insert(residual - size);
    }
  }
  return bins;
}

/// ceil(x) with the same rounding guards opt/lower_bounds.cpp applies.
inline std::size_t guarded_ceil(double x, std::uint64_t items) {
  const double guarded = x * (1.0 - 1e-12) - static_cast<double>(items) * 0x1p-50;
  if (guarded <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(guarded));
}

/// L1: ceil(sum of sizes / (W + tolerance)), at least 1 for a non-empty set.
inline std::size_t l1_lower_bound(std::span<const double> sizes, const CostModel& model) {
  if (sizes.empty()) return 0;
  CompensatedSum sum;
  for (double s : sizes) sum.add(s);
  const double capacity = model.bin_capacity + model.fit_tolerance;
  return std::max<std::size_t>(1, guarded_ceil(sum.value() / capacity, sizes.size()));
}

/// L2 (Martello-Toth) over per-item prefix sums. For threshold alpha:
///   S1 = { s : s > capacity - alpha }   -- no other item >= alpha fits
///   S2 = { s : capacity - alpha >= s > capacity/2 }
///   S3 = { s : capacity/2 >= s >= alpha }
///   L2(alpha) = |S1| + |S2|
///             + max(0, ceil((sum(S3) - (|S2|*capacity - sum(S2))) / capacity))
/// over the distinct sizes <= capacity/2 and the trivial alpha = 0, floored
/// at L1.
inline std::size_t l2_lower_bound(std::span<const double> sorted_desc,
                                  const CostModel& model) {
  const std::size_t n = sorted_desc.size();
  if (n == 0) return 0;
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  std::vector<double> prefix(n + 1, 0.0);
  CompensatedSum sum;
  for (std::size_t i = 0; i < n; ++i) {
    sum.add(sorted_desc[i]);
    prefix[i + 1] = sum.value();
  }
  // Index of the first element <= bound (resp. < bound) in descending order.
  const auto first_le = [&](double bound) {
    return static_cast<std::size_t>(
        std::lower_bound(sorted_desc.begin(), sorted_desc.end(), bound, std::greater<>()) -
        sorted_desc.begin());
  };
  const auto first_lt = [&](double bound) {
    return static_cast<std::size_t>(
        std::lower_bound(sorted_desc.begin(), sorted_desc.end(), bound,
                         std::greater_equal<>()) -
        sorted_desc.begin());
  };

  const std::size_t n12 = first_le(half);  // |S1| + |S2|
  std::vector<double> alphas{0.0};
  for (std::size_t i = n12; i < n; ++i) {
    if (i == n12 || sorted_desc[i] != sorted_desc[i - 1]) alphas.push_back(sorted_desc[i]);
  }
  std::size_t best = 0;
  for (double alpha : alphas) {
    const std::size_t n1 = first_le(capacity - alpha);
    const std::size_t s3_end = alpha > 0.0 ? first_lt(alpha) : n;
    if (s3_end < n12) continue;
    const double sum_s2 = prefix[n12] - prefix[n1];
    const double sum_s3 = prefix[s3_end] - prefix[n12];
    const double spare_in_s2_bins = static_cast<double>(n12 - n1) * capacity - sum_s2;
    best = std::max(best, n12 + guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity, n));
  }
  return std::max(best, l1_lower_bound(sorted_desc, model));
}

// ---- flat adapters over the kernels ---------------------------------------

/// `sizes` (any order) as the kernels' input: sorted, run-length encoded.
inline std::vector<SizeRun> runs_of(std::vector<double> sizes) {
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return rle_from_sorted(sizes);
}

inline std::size_t ffd_of(const std::vector<double>& sizes, const CostModel& model) {
  MaxSegmentTree tree;
  return first_fit_decreasing_rle(runs_of(sizes), model, tree);
}

inline std::size_t bfd_of(const std::vector<double>& sizes, const CostModel& model) {
  std::vector<double> residuals;
  return best_fit_decreasing_rle(runs_of(sizes), model, residuals);
}

inline std::size_t l2_of(const std::vector<double>& sizes, const CostModel& model) {
  MonotonicArena arena;
  return l2_lower_bound_rle(runs_of(sizes), model, arena);
}

inline std::size_t dff_of(const std::vector<double>& sizes, const CostModel& model) {
  return dff_lower_bound_rle(runs_of(sizes), model);
}

}  // namespace dbp::reference
