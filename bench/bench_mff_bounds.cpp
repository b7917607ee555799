// E6 — Section 4.4: Modified First Fit's improved bounds.
//
//   mu unknown, k = 8:     MFF/OPT <= 8/7*mu + 55/7
//   mu known,  k = mu+7:   MFF/OPT <= mu + 8
//
// Also reports plain FF side by side, and an ablation over the MFF split
// parameter k (the paper sets k = 8 when mu is unknown; the sweep shows why).
#include <iostream>

#include "analysis/ratio.hpp"
#include "analysis/stats.hpp"
#include "exec/parallel_map.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "workload/random_instance.hpp"

namespace {

struct Cell {
  double mu;
  std::uint64_t seed;
};

dbp::Instance make_instance(double mu, std::uint64_t seed) {
  dbp::RandomInstanceConfig config;
  config.item_count = 900;
  config.arrival.rate = 10.0;
  config.duration.max_length = mu;
  config.size.min_fraction = 0.02;
  config.size.max_fraction = 1.0;
  return dbp::generate_random_instance(config, seed);
}

}  // namespace

int main() {
  using namespace dbp;
  bench::banner("E6", "Modified First Fit bounds",
                "Section 4.4: MFF <= 8/7*mu + 55/7 (mu unknown), <= mu+8 (known)");
  const CostModel model{1.0, 1.0, 1e-9};
  const std::vector<double> mus{1.0, 2.0, 4.0, 8.0, 16.0};
  const std::vector<std::uint64_t> seeds{10, 20, 30, 40, 50, 60};

  std::vector<Cell> cells;
  for (const double mu : mus) {
    for (const std::uint64_t seed : seeds) cells.push_back({mu, seed});
  }

  struct CellResult {
    double ff, mff, mff_known;
  };
  const auto results = parallel_map(cells, [&](const Cell& cell) {
    const Instance instance = make_instance(cell.mu, cell.seed);
    const InstanceEvaluation evaluation = evaluate_algorithms(
        instance,
        {"first-fit", "modified-first-fit", "modified-first-fit-known-mu"},
        model);
    return CellResult{evaluation.row("first-fit").ratio.upper,
                      evaluation.row("modified-first-fit").ratio.upper,
                      evaluation.row("modified-first-fit-known-mu").ratio.upper};
  });

  Table table({"mu", "FF worst", "MFF(k=8) worst", "MFF(known mu) worst",
               "bound 8mu/7+55/7", "bound mu+8", "bound FF 2mu+13"});
  std::size_t index = 0;
  for (const double mu : mus) {
    std::vector<double> ff, mff, known;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      ff.push_back(results[index].ff);
      mff.push_back(results[index].mff);
      known.push_back(results[index].mff_known);
      ++index;
    }
    table.add_row({Table::num(mu, 0), Table::num(summarize(ff).max, 3),
                   Table::num(summarize(mff).max, 3),
                   Table::num(summarize(known).max, 3),
                   Table::num(8.0 / 7.0 * mu + 55.0 / 7.0, 2),
                   Table::num(mu + 8.0, 0), Table::num(2.0 * mu + 13.0, 0)});
  }
  table.print(std::cout);

  // Ablation: the MFF split parameter k on a fixed workload. The paper's
  // analysis minimizes max{k, (mu+6)/(1-1/k)}; k = 8 balances the two terms
  // when mu is unknown.
  std::cout << "\nAblation: MFF split parameter k (mu = 8 workload)\n\n";
  const std::vector<double> ks{2.0, 4.0, 8.0, 15.0, 32.0};
  const auto ablation = parallel_map(ks, [&](double k) {
    std::vector<double> ratios;
    for (const std::uint64_t seed : seeds) {
      const Instance instance = make_instance(8.0, seed);
      EvaluateOptions options;
      options.packer.mff_k = k;
      const InstanceEvaluation evaluation =
          evaluate_algorithms(instance, {"modified-first-fit"}, model, options);
      ratios.push_back(evaluation.algorithms[0].ratio.upper);
    }
    return summarize(ratios);
  });
  Table ablation_table({"k", "worst MFF/OPT", "mean MFF/OPT",
                        "analysis bound max{k,(mu+6)/(1-1/k)}+1"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const double k = ks[i];
    const double bound =
        std::max(k, (8.0 + 6.0) / (1.0 - 1.0 / k)) + 1.0;
    ablation_table.add_row({Table::num(k, 0), Table::num(ablation[i].max, 3),
                            Table::num(ablation[i].mean, 3),
                            Table::num(bound, 2)});
  }
  ablation_table.print(std::cout);
  std::cout << "\nExpected shape: MFF bounds dominate FF's 2mu+13 for large mu;\n"
               "the known-mu variant has the best slope (exactly mu+8). The\n"
               "ablation shows measured cost is least sensitive near moderate k\n"
               "— consistent with the paper's k = 8 choice.\n";
  return 0;
}
