// Property tests: the paper's cost bounds hold on every run.
//
// For every (workload profile x mu x seed) cell and every algorithm:
//   * (b.1) A_total >= u(R) * C / W, (b.2) A_total >= span(R) * C,
//     (b.3) A_total <= sum len(I(r)) * C;
//   * A_total >= OPT_total lower bound;
//   * Theorem 5:  FF_total <= (2*mu + 13) * OPT_total;
//   * Theorem 4:  small items (< W/k): FF <= (k/(k-1)*mu + 6k/(k-1) + 1)*OPT;
//   * Theorem 3:  large items (>= W/k): FF <= k * OPT;
//   * Section 4.4: MFF <= (8/7*mu + 55/7) * OPT (k = 8), and
//                  MFF-known-mu <= (mu + 8) * OPT.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/ratio.hpp"
#include "core/metrics.hpp"
#include "workload/random_instance.hpp"

namespace dbp {
namespace {

CostModel unit_model() { return CostModel{1.0, 1.0, 1e-9}; }

enum class Profile { kMixed, kSmall, kLarge, kDyadic, kBursty };

std::string profile_name(Profile profile) {
  switch (profile) {
    case Profile::kMixed: return "mixed";
    case Profile::kSmall: return "small";
    case Profile::kLarge: return "large";
    case Profile::kDyadic: return "dyadic";
    case Profile::kBursty: return "bursty";
  }
  return "?";
}

RandomInstanceConfig make_config(Profile profile, double mu) {
  RandomInstanceConfig config;
  config.item_count = 400;
  config.arrival.rate = 8.0;
  config.duration.min_length = 1.0;
  config.duration.max_length = mu;
  switch (profile) {
    case Profile::kMixed:
      config.size.min_fraction = 0.02;
      config.size.max_fraction = 0.9;
      break;
    case Profile::kSmall:  // strictly below W/k for k = 4
      config.size.min_fraction = 0.01;
      config.size.max_fraction = 0.24;
      break;
    case Profile::kLarge:  // at or above W/k for k = 4
      config.size.min_fraction = 0.25;
      config.size.max_fraction = 0.95;
      break;
    case Profile::kDyadic:
      config.size.kind = SizeModel::Kind::kDyadic;
      config.size.min_exponent = 1;
      config.size.max_exponent = 5;
      break;
    case Profile::kBursty:
      config.arrival.kind = ArrivalModel::Kind::kBursts;
      config.arrival.burst_size = 16;
      config.arrival.burst_gap = 1.5;
      config.size.min_fraction = 0.05;
      config.size.max_fraction = 0.5;
      break;
  }
  return config;
}

using Cell = std::tuple<Profile, double, std::uint64_t>;  // profile, mu, seed

class BoundsPropertyTest : public ::testing::TestWithParam<Cell> {};

TEST_P(BoundsPropertyTest, PaperBoundsHoldForEveryAlgorithm) {
  const auto [profile, mu, seed] = GetParam();
  const RandomInstanceConfig config = make_config(profile, mu);
  const Instance instance = generate_random_instance(config, seed);
  const CostModel model = unit_model();
  const CostBounds closed_form = compute_cost_bounds(instance, model);
  const InstanceMetrics metrics = compute_metrics(instance);

  const InstanceEvaluation evaluation =
      evaluate_algorithms(instance, all_algorithm_names(), model);

  for (const AlgorithmEvaluation& eval : evaluation.algorithms) {
    SCOPED_TRACE(eval.algorithm);
    const double cost = eval.total_cost;
    // (b.1)-(b.3).
    EXPECT_GE(cost, closed_form.demand_lower * (1.0 - 1e-9));
    EXPECT_GE(cost, closed_form.span_lower * (1.0 - 1e-9));
    EXPECT_LE(cost, closed_form.one_per_item_upper * (1.0 + 1e-9));
    // Never cheaper than OPT.
    EXPECT_GE(cost, evaluation.opt.lower_cost * (1.0 - 1e-9));
    // Ratio interval is sane.
    EXPECT_LE(eval.ratio.lower, eval.ratio.upper + 1e-12);
  }

  const double m = metrics.mu;
  // Theorem 5 (general FF) against the certified OPT upper bound.
  EXPECT_LE(evaluation.row("first-fit").total_cost,
            (2.0 * m + 13.0) * evaluation.opt.upper_cost * (1.0 + 1e-9));
  // Section 4.4 (MFF with k = 8, mu unknown).
  EXPECT_LE(evaluation.row("modified-first-fit").total_cost,
            (8.0 / 7.0 * m + 55.0 / 7.0) * evaluation.opt.upper_cost * (1.0 + 1e-9));
  // Section 4.4 (MFF with known mu; k = mu + 7).
  EXPECT_LE(evaluation.row("modified-first-fit-known-mu").total_cost,
            (m + 8.0) * evaluation.opt.upper_cost * (1.0 + 1e-9));

  if (profile == Profile::kSmall) {
    // Theorem 4 with k = 4: all sizes < W/4.
    ASSERT_LT(metrics.max_size, 0.25);
    const double k = 4.0;
    const double bound = k / (k - 1.0) * m + 6.0 * k / (k - 1.0) + 1.0;
    EXPECT_LE(evaluation.row("first-fit").total_cost,
              bound * evaluation.opt.upper_cost * (1.0 + 1e-9));
  }
  if (profile == Profile::kLarge) {
    // Theorem 3 with k = 4: all sizes >= W/4.
    ASSERT_GE(metrics.min_size, 0.25);
    EXPECT_LE(evaluation.row("first-fit").total_cost,
              4.0 * evaluation.opt.upper_cost * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsPropertyTest,
    ::testing::Combine(::testing::Values(Profile::kMixed, Profile::kSmall,
                                         Profile::kLarge, Profile::kDyadic,
                                         Profile::kBursty),
                       ::testing::Values(1.0, 4.0, 16.0),
                       ::testing::Values(101u, 202u, 303u)),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return profile_name(std::get<0>(info.param)) + "_mu" +
             std::to_string(static_cast<int>(std::get<1>(info.param))) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace dbp
