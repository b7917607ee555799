#include "opt/lower_bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "brute_force_packing.hpp"
#include "core/arena.hpp"
#include "core/error.hpp"
#include "reference_packing.hpp"

namespace dbp {
namespace {

using reference::dff_of;
using reference::ffd_of;
using reference::l2_of;

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

// L1 survives as the reference L2's floor (reference_packing.hpp) and as
// the alpha = 0 floor inside l2_lower_bound_rle; on these multisets no
// threshold beats the volume, so the kernel must return L1 exactly.
TEST(L1Test, EmptyIsZero) {
  EXPECT_EQ(reference::l1_lower_bound({}, unit_model()), 0u);
  EXPECT_EQ(l2_of({}, unit_model()), 0u);
}

TEST(L1Test, CeilOfTotalSize) {
  for (const auto& [sizes, bins] : std::vector<std::pair<std::vector<double>, std::size_t>>{
           {{0.5, 0.5, 0.1}, 2}, {{0.2}, 1}, {{1.0, 1.0}, 2}}) {
    EXPECT_EQ(reference::l1_lower_bound(sizes, unit_model()), bins);
    EXPECT_EQ(l2_of(sizes, unit_model()), bins);
  }
}

TEST(L1Test, ToleratesFloatNoise) {
  // 10 x 0.1 sums to 1 + ulp; L1 must say 1, not 2.
  for (const auto& [count, bins] :
       std::vector<std::pair<std::size_t, std::size_t>>{{10, 1}, {30, 3}}) {
    const std::vector<double> sizes(count, 0.1);
    EXPECT_EQ(reference::l1_lower_bound(sizes, unit_model()), bins);
    EXPECT_EQ(l2_of(sizes, unit_model()), bins);
  }
}

TEST(L2Test, DominatesL1OnLargeItems) {
  // Three items of 0.6: L1 = ceil(1.8) = 2, but no two fit together: L2 = 3.
  const std::vector<double> sizes{0.6, 0.6, 0.6};
  EXPECT_EQ(reference::l1_lower_bound(sizes, unit_model()), 2u);
  EXPECT_EQ(l2_of(sizes, unit_model()), 3u);
}

TEST(L2Test, MixedLargeAndSmall) {
  // 0.9-items pair with nothing >= 0.2; alpha = 0.2 separates them.
  const std::vector<double> sizes{0.9, 0.9, 0.2, 0.2, 0.2};
  EXPECT_EQ(l2_of(sizes, unit_model()), 3u);
}

TEST(L2Test, EqualsL1ForTinyItems) {
  const std::vector<double> sizes(35, 0.1);
  EXPECT_EQ(l2_of(sizes, unit_model()), 4u);
}

TEST(L2Test, NeverExceedsFfd) {
  // Soundness smoke on assorted size mixes.
  const std::vector<std::vector<double>> cases{
      {0.5, 0.5, 0.5, 0.5},
      {0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
      {0.51, 0.51, 0.49, 0.49},
      {0.34, 0.34, 0.34, 0.33, 0.33, 0.33},
      {0.99, 0.01, 0.5},
  };
  for (const auto& sizes : cases) {
    EXPECT_LE(l2_of(sizes, unit_model()), ffd_of(sizes, unit_model()));
    EXPECT_GE(l2_of(sizes, unit_model()), reference::l1_lower_bound(sizes, unit_model()));
  }
}

TEST(L2Test, HalfPlusEpsilonItems) {
  const std::vector<double> sizes{0.51, 0.51, 0.51, 0.51, 0.51};
  EXPECT_EQ(l2_of(sizes, unit_model()), 5u);
}

TEST(L2Test, SpareThatExactlyAbsorbsS3AddsNoBin) {
  // At zero tolerance 0.6 + 0.4 fills a bin exactly, and OPT is 3:
  // {0.7, 0.1} {0.6, 0.4} {0.6, 0.4}. With alpha = 0.4 the S3 volume minus
  // the S2 bins' spare room rounds to ~1e-16 instead of 0; ceil of that
  // used to add a fourth bin.
  const CostModel model{1.0, 1.0, 0.0};
  const std::vector<double> sizes{0.7, 0.6, 0.6, 0.4, 0.4, 0.1};
  EXPECT_EQ(reference::l2_lower_bound(sizes, model), 3u);
  EXPECT_EQ(l2_of(sizes, model), 3u);
  EXPECT_EQ(brute::optimal_packing(sizes, model).size(), 3u);
}

TEST(L2Test, RejectsNonDecreasingRuns) {
  const std::vector<SizeRun> unsorted{{0.1, 1}, {0.9, 1}};
  MonotonicArena arena;
  EXPECT_THROW((void)l2_lower_bound_rle(unsorted, unit_model(), arena), PreconditionError);
}

TEST(L2Test, RejectsNonPositiveSizes) {
  EXPECT_THROW((void)l2_of(std::vector<double>{0.0}, unit_model()), PreconditionError);
  EXPECT_THROW((void)l2_of(std::vector<double>{0.5, -0.1}, unit_model()),
               PreconditionError);
}

TEST(L2Test, CapacityAware) {
  const CostModel model{10.0, 1.0, 1e-9};
  const std::vector<double> sizes{6.0, 6.0, 6.0};
  EXPECT_EQ(l2_of(sizes, model), 3u);
}

TEST(DffTest, EmptyIsZero) {
  EXPECT_EQ(dff_lower_bound_rle({}, unit_model()), 0u);
}

TEST(DffTest, NeverExceedsBruteForceOptimum) {
  // Random multisets of up to 12 items, continuous and dyadic, against the
  // exhaustive optimum, with and without tolerance.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> continuous(0.05, 0.95);
  const std::vector<double> dyadic{0.5, 0.375, 0.25, 0.125};
  for (const double tol : {0.0, 1e-9}) {
    const CostModel model{1.0, 1.0, tol};
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> sizes;
      const std::size_t n = 1 + rng() % 12;
      for (std::size_t i = 0; i < n; ++i) {
        sizes.push_back(trial % 2 == 0 ? continuous(rng) : dyadic[rng() % dyadic.size()]);
      }
      EXPECT_LE(dff_of(sizes, model), brute::optimal_packing(sizes, model).size())
          << "tol " << tol << " trial " << trial;
    }
  }
}

TEST(DffTest, ToleranceEdgeSizesStaySound) {
  // One ulp either side of 1/2 and 1/3 of a bin: u^(k) jumps exactly there,
  // so a size rounded the wrong way would overcount.
  const double third = 1.0 / 3.0;
  for (const double tol : {0.0, 1e-9}) {
    const CostModel model{1.0, 1.0, tol};
    for (const double size : {std::nextafter(0.5, 1.0), std::nextafter(0.5, 0.0),
                              std::nextafter(third, 1.0), std::nextafter(third, 0.0)}) {
      for (std::size_t n = 1; n <= 7; ++n) {
        const std::vector<double> sizes(n, size);
        EXPECT_LE(dff_of(sizes, model), brute::optimal_packing(sizes, model).size())
            << "size " << size << " n " << n << " tol " << tol;
      }
    }
  }
}

TEST(DffTest, ChainRoundingCanOverfillABinSlightly) {
  // At zero tolerance ten items of 0.1 pass the fits() chain into one bin
  // although their exact volume is 1 + 5.6e-17 — (k + 1) x lands a hair
  // above an integer for k = 9, where u^(9) jumps from 1/10 to 1/9. The
  // bound measures volume against bin_volume_bound, not W, so it stays 1.
  const CostModel model{1.0, 1.0, 0.0};
  const std::vector<double> sizes(10, 0.1);
  ASSERT_EQ(brute::optimal_packing(sizes, model).size(), 1u);
  EXPECT_EQ(dff_of(sizes, model), 1u);
}

TEST(DffTest, CountsHalvesAndThreeEighthsAsHalfBins) {
  // The dyadic gaming catalog: u^(2) maps 1/2 and 3/8 to 1/2 and drops 1/4
  // and 1/8, so the bound is ceil((halves + three-eighths) / 2) — no bin
  // holds three of them — where L2 only sees the volume (194.25 here).
  // First Fit Decreasing meets it: pairs of 1/2, pairs of 3/8 (each with
  // room for a 1/4), and one 1/2 + 3/8.
  const CostModel model{1.0, 1.0, 1e-9};
  const std::vector<SizeRun> runs{{0.5, 227}, {0.375, 188}, {0.25, 40}, {0.125, 2}};
  MonotonicArena arena;
  MaxSegmentTree tree;
  EXPECT_LT(l2_lower_bound_rle(runs, model, arena), 208u);
  EXPECT_EQ(dff_lower_bound_rle(runs, model), 208u);
  EXPECT_EQ(first_fit_decreasing_rle(runs, model, tree), 208u);
}

}  // namespace
}  // namespace dbp
