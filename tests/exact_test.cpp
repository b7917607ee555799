#include "opt/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "brute_force_packing.hpp"
#include "reference_packing.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

std::size_t brute_force_bins(const std::vector<double>& sizes, const CostModel& model) {
  return brute::optimal_packing(sizes, model).size();
}

/// Solves `sizes` exactly and certifies the answer against the exhaustive
/// oracle: the bounds must meet at the brute-force optimum, whose packing
/// must replay through CostModel::fits. Reports which proof directions the
/// search itself supplied — a lowered upper bound (a packing below
/// min(FFD, BFD)) and a raised lower bound (a "no" below max(L2, DFF)).
struct Certified {
  bool lowered_upper = false;
  bool raised_lower = false;
};

Certified certify(const std::vector<double>& sizes, const CostModel& model,
                  const std::string& label) {
  const std::size_t heuristic =
      std::min(reference::ffd_of(sizes, model), reference::bfd_of(sizes, model));
  const std::size_t bound =
      std::max(reference::l2_of(sizes, model), reference::dff_of(sizes, model));
  const ExactPackingResult result = exact_bin_count(sizes, model);
  const brute::Packing witness = brute::optimal_packing(sizes, model);
  EXPECT_TRUE(brute::packing_fits(witness, model)) << label;
  EXPECT_TRUE(result.proven) << label;
  EXPECT_EQ(result.lower, witness.size()) << label;
  EXPECT_EQ(result.upper, witness.size()) << label;
  EXPECT_LE(bound, witness.size()) << label;
  return {result.upper < heuristic, result.lower > bound};
}

TEST(ExactTest, TrivialCases) {
  EXPECT_EQ(exact_bin_count({}, unit_model()).upper, 0u);
  const std::vector<double> one{0.4};
  const ExactPackingResult result = exact_bin_count(one, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 1u);
}

TEST(ExactTest, BeatsFfdOnKnownHardInstance) {
  // FFD uses 3 bins; optimum is 2: {0.4, 0.35, 0.25} {0.45, 0.3, 0.25}.
  const std::vector<double> sizes{0.45, 0.4, 0.35, 0.3, 0.25, 0.25};
  const std::size_t ffd = reference::ffd_of(sizes, unit_model());
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 2u);
  EXPECT_LE(result.upper, ffd);
}

TEST(ExactTest, MatchesBruteForceOnRandomInstances) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> size_dist(0.05, 0.95);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> sizes;
    const std::size_t n = 3 + rng() % 8;  // up to 10 items
    for (std::size_t i = 0; i < n; ++i) sizes.push_back(size_dist(rng));
    const ExactPackingResult result = exact_bin_count(sizes, unit_model());
    ASSERT_TRUE(result.proven);
    EXPECT_EQ(result.upper, brute_force_bins(sizes, unit_model()))
        << "trial " << trial;
    EXPECT_EQ(result.lower, result.upper);
  }
}

TEST(ExactTest, NearFullMultisetsMatchBruteForceInBothDirections) {
  // Up to 12 items whose total sits just below an integer m: the waste
  // budget is nearly zero, so the optimum is m exactly when the items split
  // into m nearly full bins. Half the instances are built as such a split
  // (the search must find the packing), half as random sizes scaled to the
  // same total (the search must often prove that m bins cannot work).
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  bool lowered_upper = false;
  bool raised_lower = false;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t bins = 2 + static_cast<std::size_t>(trial % 3);
    const double shortfall = trial % 4 < 2 ? 1e-3 : 1e-7;
    std::vector<double> sizes;
    if (trial % 2 == 0) {
      for (std::size_t b = 0; b < bins; ++b) {
        std::vector<double> cuts{0.0, 1.0};
        const std::size_t pieces = std::min<std::size_t>(3 + rng() % 2, 12 / bins);
        for (std::size_t c = 1; c < pieces; ++c) {
          cuts.push_back(0.1 + 0.8 * unit(rng));
        }
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t c = 1; c < cuts.size(); ++c) sizes.push_back(cuts[c] - cuts[c - 1]);
      }
    } else {
      const std::size_t n = 2 * bins + rng() % (12 - 2 * bins + 1);
      for (std::size_t i = 0; i < n; ++i) sizes.push_back(0.1 + 0.6 * unit(rng));
    }
    double total = 0.0;
    for (double s : sizes) total += s;
    const double scale = (static_cast<double>(bins) - shortfall) / total;
    for (double& s : sizes) s = std::min(s * scale, 1.0);
    const Certified c = certify(sizes, unit_model(), "trial " + std::to_string(trial));
    lowered_upper = lowered_upper || c.lowered_upper;
    raised_lower = raised_lower || c.raised_lower;
  }
  // Both proof directions were exercised by the search itself.
  EXPECT_TRUE(lowered_upper);
  EXPECT_TRUE(raised_lower);
}

TEST(ExactTest, ToleranceEdgeSizesMatchBruteForce) {
  // Sizes one ulp either side of 1/2 and 1/3, where whether two or three
  // share a bin depends on the rounding of the residual subtractions and on
  // the tolerance, mixed with sizes that pair with them exactly.
  const double third = 1.0 / 3.0;
  const std::vector<double> palette{
      std::nextafter(0.5, 1.0), 0.5, std::nextafter(0.5, 0.0),
      std::nextafter(third, 1.0), third, std::nextafter(third, 0.0),
      2.0 * third, 0.25, 1.0 / 6.0};
  std::mt19937_64 rng(99);
  for (const double tol : {0.0, 1e-9}) {
    const CostModel model{1.0, 1.0, tol};
    for (int trial = 0; trial < 150; ++trial) {
      std::vector<double> sizes;
      const std::size_t n = 3 + rng() % 8;
      for (std::size_t i = 0; i < n; ++i) sizes.push_back(palette[rng() % palette.size()]);
      (void)certify(sizes, model, std::string(tol == 0.0 ? "tol 0" : "tol 1e-9") +
                                      " trial " + std::to_string(trial));
    }
    // Two items one ulp above 1/2 never share a bin without tolerance.
    const std::vector<double> above(4, std::nextafter(0.5, 1.0));
    EXPECT_EQ(exact_bin_count(above, model).upper, tol == 0.0 ? 4u : 2u);
  }
}

TEST(ExactTest, NarrowPassesAreNotProofs) {
  // The only 3-bin packing takes a completion outside the two fullest at
  // some node, so the first pass (width 2) fails; because it left
  // completions out, that failure must not be reported as "4 bins needed".
  const double third = 1.0 / 3.0;
  const CostModel model{1.0, 1.0, 0.0};
  const std::vector<double> sizes{
      0.4, std::nextafter(0.5, 1.0), std::nextafter(third, 1.0), std::nextafter(third, 0.0),
      0.1, 0.3, 0.5, std::nextafter(third, 1.0), 0.1};
  ASSERT_EQ(brute_force_bins(sizes, model), 3u);
  const ExactPackingResult result = exact_bin_count(sizes, model);
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.lower, 3u);
  EXPECT_EQ(result.upper, 3u);
}

TEST(ExactTest, BudgetAbortKeepsSoundBounds) {
  // A large awkward instance with a tiny node budget: neither the
  // dual-feasible bound nor the first candidates close it, so the search
  // aborts, and the bounds must still sandwich the FFD solution.
  std::vector<double> sizes;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> size_dist(0.2, 0.5);
  for (int i = 0; i < 40; ++i) sizes.push_back(size_dist(rng));
  ExactPackingOptions options;
  options.node_budget = 10;
  const ExactPackingResult result = exact_bin_count(sizes, unit_model(), options);
  EXPECT_LE(result.lower, result.upper);
  EXPECT_GE(result.lower, reference::l2_of(sizes, unit_model()));
  EXPECT_LE(result.upper, reference::ffd_of(sizes, unit_model()));
  ASSERT_FALSE(result.proven);
  EXPECT_EQ(result.nodes, options.node_budget + 1);
}

TEST(ExactTest, PerfectFitDominanceStillOptimal) {
  // Exact-fill chains exercise the dominance rule.
  const std::vector<double> sizes{0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25};
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 3u);
}

TEST(ExactTest, AllItemsHuge) {
  const std::vector<double> sizes(7, 0.8);
  const ExactPackingResult result = exact_bin_count(sizes, unit_model());
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.upper, 7u);
}

}  // namespace
}  // namespace dbp
