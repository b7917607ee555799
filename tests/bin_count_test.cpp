#include "opt/bin_count.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "reference_packing.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

TEST(BinCountTest, EmptyMultiset) {
  const BinCountBounds bounds = optimal_bin_count({}, unit_model());
  EXPECT_EQ(bounds.lower, 0u);
  EXPECT_EQ(bounds.upper, 0u);
  EXPECT_TRUE(bounds.exact());
}

TEST(BinCountTest, EverythingFitsOneBin) {
  const std::vector<double> sizes{0.3, 0.3, 0.3};
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 1u);
}

TEST(BinCountTest, EqualSizesFastPathExact) {
  // 7 items of size 0.3: 3 per bin -> ceil(7/3) = 3.
  const std::vector<double> sizes(7, 0.3);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 3u);
}

TEST(BinCountTest, EqualSizesWithFpNoise) {
  // 2000 items of 1e-3: exactly 2 bins (1000 per bin with tolerance).
  const std::vector<double> sizes(2000, 1e-3);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 2u);
}

TEST(BinCountTest, EqualSizeHalfPacksPairs) {
  const std::vector<double> sizes(5, 0.5);
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 3u);
}

TEST(BinCountTest, EqualSizesMatchFitsRuleWithZeroTolerance) {
  // The fp counter-example behind the per_bin_count fix: with tol = 0 and
  // size = nextafter(0.5, 1.0), the quotient 1.0 / size is
  // 1.9999999999999996 but the old 1e-12 fudge factor floored it to 2 —
  // yet 2 * size = 1.0000000000000002 > 1.0, so two such items do NOT
  // share a unit bin under CostModel::fits. The old equal-size fast path
  // certified 2 bins for 4 items as "exact"; every real packing opens 4.
  const CostModel model{1.0, 1.0, 0.0};
  const double size = std::nextafter(0.5, 1.0);
  ASSERT_GT(2.0 * size, 1.0);
  const BinCountBounds bounds =
      optimal_bin_count(std::vector<double>(4, size), model);
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 4u);
}

TEST(BinCountTest, EqualSizesPerBinCountAgreesWithFits) {
  // Property pinning the equal-size fast path to the placement rule: the
  // per-bin count must be exactly the largest m with m * size fitting under
  // CostModel::fits — computed here by the multiplication itself.
  for (const double tol : {0.0, 1e-9}) {
    const CostModel model{1.0, 1.0, tol};
    for (const double size :
         {0.2, 0.1, 1.0 / 3.0, 0.07, 0.125, 0.25, 0.49, 0.9}) {
      std::size_t m = 1;
      while (model.fits(static_cast<double>(m + 1) * size, model.bin_capacity)) {
        ++m;
      }
      const std::size_t n = 3 * m + 1;  // forces ceil(n/m) = 4
      const BinCountBounds bounds =
          optimal_bin_count(std::vector<double>(n, size), model);
      EXPECT_TRUE(bounds.exact()) << "size " << size << " tol " << tol;
      EXPECT_EQ(bounds.upper, 4u) << "size " << size << " tol " << tol;
    }
  }
}

TEST(BinCountTest, GeneralMixSolvedExactly) {
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model());
  EXPECT_TRUE(bounds.exact());
  EXPECT_EQ(bounds.upper, 2u);
}

TEST(BinCountTest, SolverDisabledGivesHeuristicBounds) {
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  BinCountOptions options;
  options.use_exact_solver = false;
  const BinCountBounds bounds = optimal_bin_count(sizes, unit_model(), options);
  EXPECT_LE(bounds.lower, 2u);
  EXPECT_GE(bounds.upper, 2u);
}

TEST(BinCountTest, RejectsInvalidSizes) {
  EXPECT_THROW((void)optimal_bin_count(std::vector<double>{1.5}, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)optimal_bin_count(std::vector<double>{0.0}, unit_model()),
               PreconditionError);
}

TEST(BinCountOracleTest, MemoHitsOnRepeatedMultiset) {
  BinCountOracle oracle(unit_model());
  const std::vector<double> sorted{0.5, 0.4, 0.3};
  const BinCountBounds first = oracle.count_sorted(sorted);
  const BinCountBounds second = oracle.count_sorted(sorted);
  EXPECT_EQ(first.lower, second.lower);
  EXPECT_EQ(first.upper, second.upper);
  EXPECT_EQ(oracle.hits(), 1u);
  EXPECT_EQ(oracle.misses(), 1u);
  EXPECT_EQ(oracle.memo_size(), 1u);
}

TEST(BinCountOracleTest, DistinguishesDifferentMultisets) {
  BinCountOracle oracle(unit_model());
  (void)oracle.count_sorted(std::vector<double>{0.5, 0.5});
  (void)oracle.count_sorted(std::vector<double>{0.5, 0.5, 0.5});
  EXPECT_EQ(oracle.misses(), 2u);
}

TEST(BinCountOracleTest, AgreesWithDirectComputation) {
  BinCountOracle oracle(unit_model());
  const std::vector<double> sorted{0.9, 0.6, 0.6, 0.2, 0.2, 0.1};
  const BinCountBounds via_oracle = oracle.count_sorted(sorted);
  const BinCountBounds direct = optimal_bin_count(sorted, unit_model());
  EXPECT_EQ(via_oracle.lower, direct.lower);
  EXPECT_EQ(via_oracle.upper, direct.upper);
}

TEST(BinCountRleTest, MatchesFlatComputationOnRandomMultisets) {
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    std::vector<double> sizes;
    const std::size_t n = 5 + rng.uniform_int(0, 120);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix continuous and duplicated sizes so runs of every length occur.
      sizes.push_back(rng.bernoulli(0.5)
                          ? rng.uniform(0.05, 0.9)
                          : 0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const std::vector<SizeRun> runs = rle_from_sorted(sizes);
    const BinCountBounds flat = optimal_bin_count(sizes, unit_model());
    const BinCountBounds rle = optimal_bin_count_rle(runs, unit_model());
    EXPECT_EQ(flat.lower, rle.lower) << "round " << round;
    EXPECT_EQ(flat.upper, rle.upper) << "round " << round;
  }
}

/// Fractions of a bin for the differential tests, by family. The families
/// after 0 are the inputs whose floating-point edges the RLE kernels must
/// replay exactly.
std::vector<double> draw_fractions(Rng& rng, int family) {
  const double third = 1.0 / 3.0;
  const std::vector<double> edges{
      1.0,  std::nextafter(1.0, 0.0), 0.5,  std::nextafter(0.5, 1.0),
      std::nextafter(0.5, 0.0), third, std::nextafter(third, 1.0),
      std::nextafter(third, 0.0), 0.25, std::nextafter(0.25, 1.0),
      std::nextafter(0.25, 0.0), 0.2, 0.1};
  std::vector<double> fractions;
  switch (family) {
    case 0:  // continuous, mostly distinct sizes
      for (std::uint64_t i = rng.uniform_int(1, 150); i > 0; --i) {
        fractions.push_back(rng.uniform(0.02, 0.98));
      }
      break;
    case 1:  // duplicate-heavy: a few grid sizes, long runs
      for (std::uint64_t d = rng.uniform_int(1, 4); d > 0; --d) {
        const double size = 0.05 * static_cast<double>(rng.uniform_int(1, 19));
        fractions.insert(fractions.end(), rng.uniform_int(1, 200), size);
      }
      break;
    case 2:  // decimal and dyadic sizes whose sums hit a bin exactly
      for (std::uint64_t i = rng.uniform_int(1, 120); i > 0; --i) {
        fractions.push_back(rng.bernoulli(0.5)
                                ? 0.1 * static_cast<double>(rng.uniform_int(1, 9))
                                : 0.125 * static_cast<double>(rng.uniform_int(1, 4)));
      }
      break;
    case 3:  // large items beside medium ones: L2's thresholds beat volume
      for (std::uint64_t d = rng.uniform_int(2, 5); d > 0; --d) {
        const double size = rng.bernoulli(0.5)
                                ? 0.05 * static_cast<double>(rng.uniform_int(11, 16))
                                : 0.05 * static_cast<double>(rng.uniform_int(4, 9));
        fractions.insert(fractions.end(), rng.uniform_int(1, 15), size);
      }
      break;
    case 4:  // one ulp either side of 1/k of a bin
      for (std::uint64_t i = rng.uniform_int(1, 60); i > 0; --i) {
        fractions.push_back(edges[rng.uniform_int(0, edges.size() - 1)]);
      }
      break;
    case 5: {  // one long run over many fresh bins, ending in a partial one
      const std::vector<double> fill{std::nextafter(0.5, 1.0), std::nextafter(third, 1.0),
                                     std::nextafter(third, 0.0), 0.1};
      // Half the draws open bins with 0.4 to spare first, so the run tops
      // them up (0.1 and 1/3 do; 0.5 + 1 ulp does not) before it spills.
      if (rng.bernoulli(0.5)) fractions.insert(fractions.end(), rng.uniform_int(1, 10), 0.6);
      fractions.insert(fractions.end(), rng.uniform_int(20, 200),
                       fill[rng.uniform_int(0, fill.size() - 1)]);
      break;
    }
    default: {  // FFD and BFD disagree; 1/64 units keep sums exact at any W
      // Unshifted, FFD packs the first template into 2 bins where BFD needs
      // 3, and BFD packs the second into 2 where FFD needs 3. Small shifts
      // keep many draws on the same side.
      const auto i = static_cast<double>(rng.uniform_int(0, 2));
      const double j = static_cast<double>(rng.uniform_int(0, 2)) - 1.0;
      const std::vector<double> units =
          rng.bernoulli(0.5) ? std::vector<double>{45 + i, 26 + j, 22 - j, 13 - i, 10, 6, 6}
                             : std::vector<double>{43 + i, 24 + j, 22 - j, 14 - i, 13, 8};
      for (double unit : units) fractions.push_back(unit / 64.0);
      break;
    }
  }
  return fractions;
}

const std::vector<CostModel>& differential_models() {
  static const std::vector<CostModel> models{
      CostModel{1.0, 1.0, 0.0}, CostModel{1.0, 1.0, 1e-9}, CostModel{10.0, 1.0, 1e-9}};
  return models;
}

/// `fractions` scaled to `model`'s capacity, sorted non-increasing.
std::vector<double> sorted_sizes(const std::vector<double>& fractions,
                                 const CostModel& model) {
  std::vector<double> sizes;
  for (double f : fractions) sizes.push_back(f * model.bin_capacity);
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return sizes;
}

TEST(BinCountRleTest, KernelsMatchPerItemReference) {
  // optimal_bin_count is itself an adapter over the RLE core, so the
  // kernels' real oracle is the textbook per-item loops: every multiset
  // drawn here runs through FFD, BFD and L2 on both sides, at zero and
  // nonzero tolerance and two capacities. One scratch is reused across all
  // draws, as the OPT_total workers and the engine oracle reuse theirs.
  Rng rng(23);
  BinCountScratch scratch;
  std::size_t l2_above_l1 = 0;
  for (int round = 0; round < 350; ++round) {
    const std::vector<double> fractions = draw_fractions(rng, round % 7);
    for (const CostModel& model : differential_models()) {
      const std::vector<double> sizes = sorted_sizes(fractions, model);
      const std::vector<SizeRun> runs = rle_from_sorted(sizes);
      scratch.arena.reset();
      EXPECT_EQ(first_fit_decreasing_rle(runs, model, scratch.ffd_tree),
                reference::first_fit_decreasing(sizes, model))
          << "FFD round " << round << " W " << model.bin_capacity << " tol "
          << model.fit_tolerance;
      EXPECT_EQ(best_fit_decreasing_rle(runs, model, scratch.bfd_residuals),
                reference::best_fit_decreasing(sizes, model))
          << "BFD round " << round << " W " << model.bin_capacity << " tol "
          << model.fit_tolerance;
      const std::size_t l2 = reference::l2_lower_bound(sizes, model);
      EXPECT_EQ(l2_lower_bound_rle(runs, model, scratch.arena), l2)
          << "L2 round " << round << " W " << model.bin_capacity << " tol "
          << model.fit_tolerance;
      if (l2 > reference::l1_lower_bound(sizes, model)) ++l2_above_l1;
    }
  }
  // The draws must exercise L2's thresholds, not just its volume floor.
  EXPECT_GT(l2_above_l1, 50u);
}

TEST(BinCountRleTest, EarlyExitMatchesFullChain) {
  // Without the exact solver the oracle's general path must return
  // {L2, min(FFD, BFD)}, even though it skips BFD whenever FFD meets L2.
  // The expectation comes from the per-item references, so the skipped BFD
  // stays checked, and both sides of the exit must occur in the draws.
  BinCountOptions options;
  options.use_exact_solver = false;
  Rng rng(29);
  BinCountScratch scratch;
  std::size_t ffd_meets_l2_below_bfd = 0;
  std::size_t bfd_below_ffd = 0;
  std::size_t general = 0;
  for (int round = 0; round < 700; ++round) {
    const std::vector<double> fractions = draw_fractions(rng, round % 7);
    for (const CostModel& model : differential_models()) {
      const std::vector<double> sizes = sorted_sizes(fractions, model);
      // Skip the fast paths (one bin; all sizes equal within the relative
      // tolerance), whose results other tests pin; the margin absorbs
      // summation order.
      double total = 0.0;
      for (double size : sizes) total += size;
      if (total <= model.bin_capacity * (1.0 + 1e-6) ||
          sizes.front() - sizes.back() <=
              options.equal_size_rel_tolerance * sizes.front()) {
        continue;
      }
      ++general;
      const std::size_t l2 = reference::l2_lower_bound(sizes, model);
      const std::size_t ffd = reference::first_fit_decreasing(sizes, model);
      const std::size_t bfd = reference::best_fit_decreasing(sizes, model);
      const BinCountBounds bounds =
          optimal_bin_count_rle(rle_from_sorted(sizes), model, options, scratch);
      EXPECT_EQ(bounds.lower, l2) << "round " << round;
      EXPECT_EQ(bounds.upper, std::min(ffd, bfd)) << "round " << round;
      if (ffd == l2 && l2 < bfd) ++ffd_meets_l2_below_bfd;
      if (bfd < ffd) ++bfd_below_ffd;
    }
  }
  EXPECT_GT(general, 1500u);
  EXPECT_GT(ffd_meets_l2_below_bfd, 10u);
  EXPECT_GT(bfd_below_ffd, 10u);
}

TEST(BinCountRleTest, RejectsMalformedRuns) {
  // Non-decreasing sizes and zero counts violate the RLE invariant.
  EXPECT_THROW((void)optimal_bin_count_rle(
                   std::vector<SizeRun>{{0.3, 1}, {0.5, 1}}, unit_model()),
               PreconditionError);
  EXPECT_THROW((void)optimal_bin_count_rle(std::vector<SizeRun>{{0.3, 0}},
                                           unit_model()),
               PreconditionError);
}

TEST(BinCountOracleTest, BoundedEvictionKeepsMemoUnderLimit) {
  constexpr std::size_t kLimit = 16;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (int i = 1; i <= 200; ++i) {
    const std::vector<double> sorted(static_cast<std::size_t>(i), 0.25);
    (void)oracle.count_sorted(sorted);
    EXPECT_LE(oracle.memo_size(), kLimit);
  }
  EXPECT_GT(oracle.evictions(), 0u);
  // Eviction trims, it does not wipe: the memo keeps a working set.
  EXPECT_GT(oracle.memo_size(), kLimit / 4);
}

TEST(BinCountOracleTest, EvictionKeepsRecentEntriesHot) {
  constexpr std::size_t kLimit = 8;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (int i = 1; i <= 100; ++i) {
    const std::vector<double> sorted(static_cast<std::size_t>(i), 0.25);
    (void)oracle.count_sorted(sorted);
  }
  // The most recent key must have survived the FIFO trims.
  const std::uint64_t hits_before = oracle.hits();
  (void)oracle.count_sorted(std::vector<double>(100, 0.25));
  EXPECT_EQ(oracle.hits(), hits_before + 1);
}

TEST(BinCountOracleTest, FifoEvictionCountersPinned) {
  // Pins the exact hit/miss/eviction trajectory of the FIFO-halving memo at
  // limit 4. Stores 1..7 are distinct multisets (k items of 0.25):
  //   stores 1-4: inserts, no eviction              (size 4)
  //   store  5:   at limit -> cutoff drops seq 0,1  (size 3)
  //   store  6:   insert                            (size 4)
  //   store  7:   at limit -> cutoff drops seq 2,3  (size 3)
  // Any change to the eviction arithmetic moves these numbers.
  constexpr std::size_t kLimit = 4;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  for (std::size_t k = 1; k <= 7; ++k) {
    (void)oracle.count_sorted(std::vector<double>(k, 0.25));
  }
  EXPECT_EQ(oracle.misses(), 7u);
  EXPECT_EQ(oracle.hits(), 0u);
  EXPECT_EQ(oracle.evictions(), 4u);
  EXPECT_EQ(oracle.memo_size(), 3u);

  // Survivors are exactly the last three inserts (seq 4, 5, 6)...
  (void)oracle.count_sorted(std::vector<double>(5, 0.25));
  (void)oracle.count_sorted(std::vector<double>(6, 0.25));
  (void)oracle.count_sorted(std::vector<double>(7, 0.25));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 7u);
  // ...and the evicted oldest key misses and is re-stored.
  (void)oracle.count_sorted(std::vector<double>(1, 0.25));
  EXPECT_EQ(oracle.hits(), 3u);
  EXPECT_EQ(oracle.misses(), 8u);
}

TEST(BinCountOracleTest, EvictedEntriesAreRecomputedCorrectly) {
  constexpr std::size_t kLimit = 4;
  BinCountOracle oracle(unit_model(), {}, kLimit);
  const std::vector<double> probe{0.9, 0.6, 0.6, 0.2};
  const BinCountBounds first = oracle.count_sorted(probe);
  for (int i = 1; i <= 50; ++i) {
    (void)oracle.count_sorted(std::vector<double>(static_cast<std::size_t>(i), 0.3));
  }
  const BinCountBounds again = oracle.count_sorted(probe);
  EXPECT_EQ(again.lower, first.lower);
  EXPECT_EQ(again.upper, first.upper);
  EXPECT_GT(oracle.evictions(), 0u);
}

}  // namespace
}  // namespace dbp
