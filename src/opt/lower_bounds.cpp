#include "opt/lower_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/arena.hpp"
#include "core/compensated_sum.hpp"
#include "core/error.hpp"

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

std::size_t l1_lower_bound(std::span<const double> sizes, const CostModel& model) {
  model.validate();
  if (sizes.empty()) return 0;
  CompensatedSum sum;
  for (double s : sizes) {
    DBP_REQUIRE(s > 0.0, "sizes must be positive");
    sum.add(s);
  }
  const double capacity = model.bin_capacity + model.fit_tolerance;
  return std::max<std::size_t>(1, guarded_ceil(sum.value() / capacity, sizes.size()));
}

std::size_t l2_lower_bound(std::span<const double> sizes, const CostModel& model) {
  std::vector<double> sorted(sizes.begin(), sizes.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return l2_lower_bound_sorted(sorted, model);
}

std::size_t l2_lower_bound_sorted(std::span<const double> sorted_desc,
                                  const CostModel& model) {
  model.validate();
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  const std::size_t n = sorted_desc.size();
  if (n == 0) return 0;
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  // Prefix sums over the descending order.
  std::vector<double> prefix(n + 1, 0.0);
  {
    CompensatedSum sum;
    for (std::size_t i = 0; i < n; ++i) {
      DBP_REQUIRE(sorted_desc[i] > 0.0, "sizes must be positive");
      sum.add(sorted_desc[i]);
      prefix[i + 1] = sum.value();
    }
  }

  // For threshold alpha (<= capacity/2):
  //   S1 = { s : s > capacity - alpha }   -- no other item >= alpha fits
  //   S2 = { s : capacity - alpha >= s > capacity/2 }
  //   S3 = { s : capacity/2 >= s >= alpha }
  //   L2(alpha) = |S1| + |S2|
  //             + max(0, ceil((sum(S3) - (|S2|*capacity - sum(S2))) / capacity))
  // Candidate alphas: the distinct sizes <= capacity/2, plus the trivial 0
  // (which reduces to L1 over all items).
  const auto first_le = [&](double bound) {
    // Index of first element <= bound in the descending array.
    return static_cast<std::size_t>(
        std::lower_bound(sorted_desc.begin(), sorted_desc.end(), bound,
                         [](double a, double b) { return a > b; }) -
        sorted_desc.begin());
  };

  const std::size_t first_half = first_le(half);  // start of sizes <= capacity/2
  std::size_t best = 0;

  std::size_t i = first_half;
  std::vector<double> alphas;
  alphas.push_back(0.0);
  while (i < n) {
    alphas.push_back(sorted_desc[i]);
    const double v = sorted_desc[i];
    while (i < n && sorted_desc[i] == v) ++i;
  }

  for (double alpha : alphas) {
    const std::size_t n1 = first_le(capacity - alpha);  // |S1|
    const std::size_t n12 = first_half;                 // |S1| + |S2|
    // S3 spans indices [first_half, end_of >= alpha).
    std::size_t s3_end = n;
    if (alpha > 0.0) {
      // First element < alpha in descending order.
      s3_end = static_cast<std::size_t>(
          std::lower_bound(sorted_desc.begin(), sorted_desc.end(), alpha,
                           [](double a, double b) { return a >= b; }) -
          sorted_desc.begin());
    }
    if (s3_end < n12) continue;  // alpha > capacity/2 candidates never occur
    const std::size_t n2 = n12 - n1;
    const double sum_s2 = prefix[n12] - prefix[n1];
    const double sum_s3 = prefix[s3_end] - prefix[n12];
    const double spare_in_s2_bins = static_cast<double>(n2) * capacity - sum_s2;
    const std::size_t extra = guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity, n);
    best = std::max(best, n12 + extra);
  }
  return std::max(best, l1_lower_bound(sorted_desc, model));
}

namespace {

/// Shared body of the two l2_lower_bound_rle overloads; `cum` and `boundary`
/// are caller-provided uninitialized arrays of d + 1 elements each.
std::size_t l2_rle_with_buffers(std::span<const SizeRun> runs, const CostModel& model,
                                std::span<std::uint64_t> cum,
                                std::span<double> boundary) {
  const std::size_t d = runs.size();
  const double capacity = model.bin_capacity + model.fit_tolerance;
  const double half = capacity / 2.0;

  // Boundary prefix sums: boundary[j] is the compensated sum after the first
  // j runs, produced by the same per-item add sequence the flat algorithm
  // uses, so the values match prefix[cum[j]] bitwise.
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
    // S3 ends at the last run with size >= alpha; for alpha = 0 that is n.
    const std::uint64_t s3_end = trivial ? n : cum[a + 1];
    if (s3_end < n12) continue;
    const std::uint64_t n2 = n12 - n1;
    const double sum_s2 = boundary[half_run] - boundary[n1_run];
    const double sum_s3 =
        (trivial ? boundary[d] : boundary[a + 1]) - boundary[half_run];
    const double spare_in_s2_bins = static_cast<double>(n2) * capacity - sum_s2;
    const std::size_t extra = guarded_ceil((sum_s3 - spare_in_s2_bins) / capacity, n);
    best = std::max(best, static_cast<std::size_t>(n12) + extra);
  }

  // L1 fallback over all items; boundary[d] equals the flat total bitwise.
  const std::size_t l1 =
      std::max<std::size_t>(1, guarded_ceil(boundary[d] / capacity, n));
  return std::max(best, l1);
}

}  // namespace

std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs, const CostModel& model) {
  model.validate();
  rle_validate(runs, model);
  const std::size_t d = runs.size();
  if (d == 0) return 0;
  std::vector<std::uint64_t> cum(d + 1);
  std::vector<double> boundary(d + 1);
  return l2_rle_with_buffers(runs, model, cum, boundary);
}

std::size_t l2_lower_bound_rle(std::span<const SizeRun> runs, const CostModel& model,
                               MonotonicArena& scratch) {
  model.validate();
  rle_validate(runs, model);
  const std::size_t d = runs.size();
  if (d == 0) return 0;
  return l2_rle_with_buffers(runs, model, scratch.allocate_array<std::uint64_t>(d + 1),
                             scratch.allocate_array<double>(d + 1));
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
