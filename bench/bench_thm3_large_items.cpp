// E3 — Theorem 3: First Fit on large items (s(r) >= W/k) costs at most
// k * OPT_total.
//
// Sweeps k and mu over random large-item workloads and reports the measured
// worst ratio against the k bound (and the looser 2*mu+13 general bound for
// context).
#include <algorithm>
#include <iostream>

#include "analysis/ratio.hpp"
#include "analysis/stats.hpp"
#include "exec/parallel_map.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "workload/random_instance.hpp"

namespace {

struct Cell {
  double k;   // size class parameter: sizes in [W/k, W]
  double mu;
  std::uint64_t seed;
};

struct Row {
  double k;
  double mu;
  double worst_ratio;  // max over seeds of FF / OPT (upper estimate)
  double mean_ratio;
  double bound;
};

}  // namespace

int main() {
  using namespace dbp;
  bench::banner("E3", "First Fit on large items",
                "Theorem 3: FF_total <= k * OPT_total when all s(r) >= W/k");
  const CostModel model{1.0, 1.0, 1e-9};
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};

  std::vector<Cell> cells;
  for (const double k : {2.0, 4.0, 8.0}) {
    for (const double mu : {1.0, 4.0, 16.0}) {
      for (const std::uint64_t seed : seeds) cells.push_back({k, mu, seed});
    }
  }

  const auto ratios = parallel_map(cells, [&](const Cell& cell) {
    RandomInstanceConfig config;
    config.item_count = 800;
    config.arrival.rate = 6.0;
    config.duration.max_length = cell.mu;
    config.size.min_fraction = 1.0 / cell.k;  // all items "large"
    config.size.max_fraction = 1.0;
    const Instance instance = generate_random_instance(config, cell.seed);
    const InstanceEvaluation evaluation =
        evaluate_algorithms(instance, {"first-fit"}, model);
    return evaluation.algorithms[0].ratio.upper;  // conservative upper estimate
  });

  Table table({"k (sizes >= W/k)", "mu", "worst FF/OPT", "mean FF/OPT",
               "Thm 3 bound k", "general bound 2mu+13"});
  std::size_t index = 0;
  for (const double k : {2.0, 4.0, 8.0}) {
    for (const double mu : {1.0, 4.0, 16.0}) {
      std::vector<double> cell_ratios;
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        cell_ratios.push_back(ratios[index++]);
      }
      const SummaryStats stats = summarize(cell_ratios);
      table.add_row({Table::num(k, 0), Table::num(mu, 0),
                     Table::num(stats.max, 3), Table::num(stats.mean, 3),
                     Table::num(k, 0), Table::num(2.0 * mu + 13.0, 0)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: worst FF/OPT stays below the Theorem 3 bound\n"
               "k for every (k, mu) cell, independent of mu — large items make\n"
               "First Fit's cost a pure volume effect (proof via bound (b.3)).\n";
  return 0;
}
