#include "opt/bin_count.hpp"

#include <algorithm>
#include <cmath>

#include "core/arena.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"

namespace dbp {

namespace {

/// Largest m such that m items of size `size` fit one bin under the same
/// tolerance rule CostModel::fits applies per placement: m * size <= W + tol.
///
/// The quotient floor(capacity / size) is only a seed — division rounding
/// can land it one off in either direction, and the old ad-hoc fudge factor
/// (floor(capacity / size * (1 + 1e-12))) could *admit* an m with
/// m * size > W + tol. Concretely, with W = 1, tol = 0, and
/// size = nextafter(0.5, 1.0): the quotient is 1.9999999999999996, the
/// 1e-12 fudge pushes it past 2, yet 2 * size = 1.0000000000000002 > 1 —
/// two such items do not share a bin under fits(), so FFD opens one bin
/// per item while the "exact" equal-size fast path certified half that,
/// an invalid lower bound (tests/bin_count_test.cpp pins this case). The
/// corrective loops below re-anchor the seed to the multiplication the
/// feasibility rule really performs; they run at most one step in practice
/// (division is correctly rounded, so the seed is off by at most one).
std::size_t per_bin_count(double size, const CostModel& model) {
  const double capacity = model.bin_capacity + model.fit_tolerance;
  auto m = static_cast<std::size_t>(std::floor(capacity / size));
  while (m > 1 && static_cast<double>(m) * size > capacity) --m;
  while (static_cast<double>(m + 1) * size <= capacity) ++m;
  return std::max<std::size_t>(m, 1);
}

/// The one computation behind every entry point, on the compressed form.
/// Every step replays the per-item floating-point sequence (the kernels by
/// construction, pinned against the per-item loops of
/// tests/reference_packing.hpp; the exact solver runs on a transient
/// expansion), so the bounds equal those of the per-item chain on the
/// expanded multiset. All working storage comes out of `scratch`.
BinCountBounds compute_rle(std::span<const SizeRun> runs, const CostModel& model,
                           const BinCountOptions& options, BinCountScratch& scratch) {
  const std::uint64_t n = rle_item_count(runs);
  if (n == 0) return {0, 0};

  // Per-item compensated total, as over the expanded multiset.
  CompensatedSum sum;
  for (const SizeRun& run : runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) sum.add(run.size);
  }

  // Fast path: everything fits one bin.
  if (model.fits(sum.value(), model.bin_capacity)) return {1, 1};

  // Fast path: all sizes equal (within relative tolerance) => exact count.
  const double largest = runs.front().size;
  const double smallest = runs.back().size;
  if (largest - smallest <= options.equal_size_rel_tolerance * largest) {
    const std::size_t m = per_bin_count(largest, model);
    const auto bins = static_cast<std::size_t>((n + m - 1) / m);
    return {bins, bins};
  }

  scratch.arena.reset();
  const std::size_t lower = l2_lower_bound_rle(runs, model, scratch.arena);
  const std::size_t ffd = first_fit_decreasing_rle(runs, model, scratch.ffd_tree);
  // FFD meeting L2 certifies OPT, and BFD >= OPT = L2 could not lower
  // min(FFD, BFD): the result is the full chain's without running BFD.
  if (ffd == lower) return {lower, lower};
  const std::size_t upper =
      std::min(ffd, best_fit_decreasing_rle(runs, model, scratch.bfd_residuals));
  DBP_CHECK(lower <= upper, "L2 exceeds the FFD/BFD bin count");
  if (lower == upper || !options.use_exact_solver) return {lower, upper};

  // Arena-backed expansion (runs are strictly decreasing, so the expanded
  // multiset is born sorted), then the solver entry that takes the bounds
  // just computed — bit-identical to the ones exact_bin_count would
  // recompute from the expansion — instead of re-deriving them.
  const std::span<double> expanded =
      scratch.arena.allocate_array<double>(static_cast<std::size_t>(n));
  std::size_t at = 0;
  for (const SizeRun& run : runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) expanded[at++] = run.size;
  }
  const ExactPackingResult exact =
      exact_bin_count_bounded(expanded, model, lower, upper, options.exact, scratch.arena);
  return {std::max(lower, exact.lower), std::min(upper, exact.upper)};
}

}  // namespace

BinCountBounds optimal_bin_count(std::span<const double> sizes, const CostModel& model,
                                 const BinCountOptions& options) {
  model.validate();
  std::vector<double> sorted(sizes.begin(), sizes.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  for (double s : sorted) {
    DBP_REQUIRE(s > 0.0 && model.fits(s, model.bin_capacity),
                "size must be in (0, bin capacity]");
  }
  BinCountScratch scratch;
  return compute_rle(rle_from_sorted(sorted), model, options, scratch);
}

BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                     const CostModel& model,
                                     const BinCountOptions& options) {
  model.validate();
  rle_validate(runs, model);
  BinCountScratch scratch;
  return compute_rle(runs, model, options, scratch);
}

BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                     const CostModel& model,
                                     const BinCountOptions& options,
                                     BinCountScratch& scratch) {
  model.validate();
  rle_validate(runs, model);
  return compute_rle(runs, model, options, scratch);
}

BinCountOracle::BinCountOracle(CostModel model, BinCountOptions options,
                               std::size_t memo_limit)
    : model_(model), options_(options), memo_limit_(std::max<std::size_t>(memo_limit, 2)) {
  model_.validate();
}

BinCountBounds BinCountOracle::count_sorted(std::span<const double> sorted_desc) {
  return count_rle(rle_from_sorted(sorted_desc));
}

BinCountBounds BinCountOracle::count_rle(std::span<const SizeRun> runs) {
  // Transparent probe first: only a miss pays for the owning key copy
  // (inside store_rle).
  if (const auto cached = lookup_rle(runs)) return *cached;
  const BinCountBounds bounds = compute_rle(runs, model_, options_, scratch_);
  store_rle(runs, bounds);
  return bounds;
}

std::optional<BinCountBounds> BinCountOracle::lookup_rle(
    std::span<const SizeRun> runs) {
  if (const auto it = memo_.find(runs); it != memo_.end()) {
    ++hits_;
    return it->second.bounds;
  }
  ++misses_;
  return std::nullopt;
}

void BinCountOracle::store_rle(std::span<const SizeRun> runs,
                               BinCountBounds bounds) {
  const auto existing = memo_.find(runs);
  if (existing != memo_.end()) {
    existing->second = MemoEntry{bounds, next_seq_++};
    return;
  }
  if (memo_.size() >= memo_limit_) {
    // Bounded FIFO eviction: drop the older half (by insertion sequence) so
    // the amortized cost per insert stays O(1) and recent snapshots — the
    // ones cyclic workloads are about to revisit — survive.
    const std::uint64_t cutoff = next_seq_ - static_cast<std::uint64_t>(memo_limit_) / 2;
    for (auto it = memo_.begin(); it != memo_.end();) {
      if (it->second.seq < cutoff) {
        it = memo_.erase(it);
        ++evictions_;
      } else {
        ++it;
      }
    }
  }
  memo_.emplace(std::vector<SizeRun>(runs.begin(), runs.end()),
                MemoEntry{bounds, next_seq_++});
}

}  // namespace dbp
