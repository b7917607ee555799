#include "opt/lower_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/arena.hpp"
#include "core/compensated_sum.hpp"

namespace dbp {

namespace {

/// ceil(x) robust to x being a hair above an integer due to rounding. x is
/// a bin count derived from sums of `items` sizes, so besides the relative
/// guard it drops an absolute error of up to items * 2^-50 bins: L2's
/// S3-minus-spare term can round to a hair above 0 when the S2 bins' spare
/// room exactly absorbs S3 (0.6 + 0.4 at zero tolerance).
std::size_t guarded_ceil(double x, std::uint64_t items) {
  const double guarded = x * (1.0 - 1e-12) - static_cast<double>(items) * 0x1p-50;
  if (guarded <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(guarded));
}

}  // namespace

std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs, const CostModel& model,
                               MonotonicArena& scratch) {
  model.validate();
  rle_validate(runs, model);
  const std::size_t d = runs.size();
  if (d == 0) return 0;
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  // Boundary prefix sums: boundary[j] is the compensated sum after the first
  // j runs, produced by the same per-item add sequence the per-item
  // algorithm uses, so the values match its prefix[cum[j]] bitwise.
  const std::span<std::uint64_t> cum = scratch.allocate_array<std::uint64_t>(d + 1);
  const std::span<double> boundary = scratch.allocate_array<double>(d + 1);
  cum[0] = 0;
  boundary[0] = 0.0;
  {
    CompensatedSum sum;
    for (std::size_t j = 0; j < d; ++j) {
      for (std::uint64_t i = 0; i < runs[j].count; ++i) sum.add(runs[j].size);
      cum[j + 1] = cum[j] + runs[j].count;
      boundary[j + 1] = sum.value();
    }
  }
  const std::uint64_t n = cum[d];

  // Item count of elements strictly larger than `bound` = items of every run
  // before the first run with size <= bound. Returns the *run* index.
  const auto first_run_le = [&](double bound) {
    return static_cast<std::size_t>(
        std::lower_bound(runs.begin(), runs.end(), bound,
                         [](const SizeRun& run, double b) { return run.size > b; }) -
        runs.begin());
  };

  const std::size_t half_run = first_run_le(half);  // first run with size <= half
  const std::uint64_t n12 = cum[half_run];          // |S1| + |S2|
  std::size_t best = 0;

  // Candidate alphas: 0 plus every distinct size <= capacity/2 — exactly the
  // runs from half_run on (runs are strictly decreasing, hence distinct).
  for (std::size_t a = half_run; a <= d; ++a) {
    const bool trivial = a == d;  // the alpha = 0 candidate
    const double alpha = trivial ? 0.0 : runs[a].size;
    const std::size_t n1_run = first_run_le(capacity - alpha);
    const std::uint64_t n1 = cum[n1_run];
    const std::uint64_t n2 = n12 - n1;
    const double sum_s2 = boundary[half_run] - boundary[n1_run];
    // S3 = runs half_run..a (sizes in [alpha, capacity/2]); all of them
    // for alpha = 0.
    const double sum_s3 =
        (trivial ? boundary[d] : boundary[a + 1]) - boundary[half_run];
    const double spare_in_s2_bins = static_cast<double>(n2) * capacity - sum_s2;
    const std::size_t extra = guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity, n);
    best = std::max(best, static_cast<std::size_t>(n12) + extra);
  }

  // L1 fallback over all items; boundary[d] equals the per-item total bitwise.
  const std::size_t l1 =
      std::max<std::size_t>(1, guarded_ceil(boundary[d] / capacity, n));
  return std::max(best, l1);
}

double bin_volume_bound(const CostModel& model, std::uint64_t item_count) {
  // A bin of m items passes m fits() checks on residuals that each carry at
  // most one rounding of <= 2^-53 W, so its exact volume stays below
  // (W + tol)(1 + m 2^-52). Two more ulps cover dff_weight's own roundings;
  // nextafter rounds the product up.
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double widen = static_cast<double>(item_count + 2) * 0x1p-52;
  return std::nextafter(capacity * (1.0 + widen), std::numeric_limits<double>::infinity());
}

std::uint64_t dff_weight(double size, double volume_bound, std::size_t k) {
  // The weight is exactly u^(k)(y) with y = product / (k + 1), and the two
  // roundings make y exceed size / volume_bound by at most a factor
  // (1 + 2^-52) — which the bound's two extra ulps absorb, so the y of a
  // feasible bin still sum to at most 1.
  const auto k1 = static_cast<double>(k + 1);
  const double product = k1 * (size / volume_bound);
  const double floor = std::floor(product);
  const auto j = static_cast<std::uint64_t>(floor);
  return product == floor ? j * k : j * (k + 1);  // j/(k+1) or j/k, in 1/(k(k+1))
}

std::size_t dff_lower_bound_rle(std::span<const SizeRun> runs, const CostModel& model) {
  model.validate();
  rle_validate(runs, model);
  if (runs.empty()) return 0;
  const double bound = bin_volume_bound(model, rle_item_count(runs));
  std::size_t best = 0;
  for (std::size_t k = 1; k <= kDffMaxK; ++k) {
    std::uint64_t total = 0;
    for (const SizeRun& run : runs) total += run.count * dff_weight(run.size, bound, k);
    const std::uint64_t unit = k * (k + 1);
    best = std::max(best, static_cast<std::size_t>((total + unit - 1) / unit));
  }
  return best;
}

}  // namespace dbp
