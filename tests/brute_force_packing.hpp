// Exhaustive optimal bin packing for tiny multisets: the oracle the exact
// solver and the lower bounds are certified against.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "core/types.hpp"

namespace dbp::brute {

using Packing = std::vector<std::vector<double>>;

/// True when every bin's items, in the order listed, pass CostModel::fits
/// one by one from residual W — the library-wide feasibility rule.
inline bool packing_fits(const Packing& bins, const CostModel& model) {
  for (const std::vector<double>& bin : bins) {
    double residual = model.bin_capacity;
    for (double size : bin) {
      if (!model.fits(size, residual)) return false;
      residual -= size;
    }
  }
  return true;
}

/// A packing with the fewest bins, by trying every assignment (tiny n
/// only). Items are placed in non-increasing order, so each bin lists its
/// items in the order packing_fits checks them.
inline Packing optimal_packing(std::vector<double> sizes, const CostModel& model) {
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  Packing best;
  for (double size : sizes) best.push_back({size});  // one bin per item
  Packing bins;
  std::vector<double> residuals;
  const auto recurse = [&](auto&& self, std::size_t index) -> void {
    if (bins.size() >= best.size()) return;
    if (index == sizes.size()) {
      best = bins;
      return;
    }
    const double size = sizes[index];
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (!model.fits(size, residuals[b])) continue;
      // Bins with equal residuals accept the same futures.
      if (std::find(residuals.begin(), residuals.begin() + static_cast<std::ptrdiff_t>(b),
                    residuals[b]) != residuals.begin() + static_cast<std::ptrdiff_t>(b)) {
        continue;
      }
      const double before = residuals[b];
      residuals[b] -= size;
      bins[b].push_back(size);
      self(self, index + 1);
      bins[b].pop_back();
      residuals[b] = before;
    }
    bins.push_back({size});
    residuals.push_back(model.bin_capacity - size);
    self(self, index + 1);
    residuals.pop_back();
    bins.pop_back();
  };
  if (!sizes.empty()) recurse(recurse, 0);
  return sizes.empty() ? Packing{} : best;
}

}  // namespace dbp::brute
