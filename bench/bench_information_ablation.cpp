// E12 — ablation: what does each capability buy? (extension, not in paper)
//
// Four information/capability regimes on identical workloads:
//   1. online, mu unknown            (first-fit, modified-first-fit k=8)
//   2. semi-online, mu known         (modified-first-fit k=mu+7, paper §4.4)
//   3. clairvoyant departures        (align-departures / min-extension fit)
//   4. migration allowed             (FFD repack at every event)
// against the certified OPT_total. Quantifies the paper's modelling choices:
// how much of the online gap comes from not knowing departures vs not being
// able to migrate.
#include <iostream>

#include "analysis/ratio.hpp"
#include "analysis/stats.hpp"
#include "exec/parallel_map.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "opt/repack_baseline.hpp"
#include "workload/random_instance.hpp"

namespace {

struct Cell {
  double mu;
  std::uint64_t seed;
};

struct CellResult {
  double ff, mff, mff_known, align, min_ext, repack;
  std::uint64_t migrations;
};

}  // namespace

int main() {
  using namespace dbp;
  bench::banner("E12", "Information & capability ablation",
                "extension: online vs known-mu vs clairvoyant vs migration");
  const CostModel model{1.0, 1.0, 1e-9};
  const std::vector<double> mus{1.0, 4.0, 16.0};
  const std::vector<std::uint64_t> seeds{2, 4, 6, 8, 10, 12};

  std::vector<Cell> cells;
  for (const double mu : mus) {
    for (const std::uint64_t seed : seeds) cells.push_back({mu, seed});
  }

  const auto results = parallel_map(cells, [&](const Cell& cell) {
    RandomInstanceConfig config;
    config.item_count = 800;
    config.arrival.rate = 10.0;
    config.duration.max_length = cell.mu;
    config.size.min_fraction = 0.05;
    config.size.max_fraction = 0.6;
    const Instance instance = generate_random_instance(config, cell.seed);
    const InstanceEvaluation evaluation = evaluate_algorithms(
        instance,
        {"first-fit", "modified-first-fit", "modified-first-fit-known-mu",
         "align-departures-fit", "min-extension-fit"},
        model);
    const RepackBaselineResult repack = run_repack_baseline(instance, model);
    CellResult r;
    r.ff = evaluation.row("first-fit").ratio.upper;
    r.mff = evaluation.row("modified-first-fit").ratio.upper;
    r.mff_known = evaluation.row("modified-first-fit-known-mu").ratio.upper;
    r.align = evaluation.row("align-departures-fit").ratio.upper;
    r.min_ext = evaluation.row("min-extension-fit").ratio.upper;
    r.repack = repack.total_cost / evaluation.opt.lower_cost;
    r.migrations = repack.migrations;
    return r;
  });

  Table table({"mu", "online FF", "online MFF", "semi-online MFF(mu)",
               "clairvoyant align", "clairvoyant min-ext",
               "migration (FFD repack)", "migrations/item"});
  std::size_t index = 0;
  for (const double mu : mus) {
    std::vector<double> ff, mff, known, align, min_ext, repack, migr;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const CellResult& r = results[index++];
      ff.push_back(r.ff);
      mff.push_back(r.mff);
      known.push_back(r.mff_known);
      align.push_back(r.align);
      min_ext.push_back(r.min_ext);
      repack.push_back(r.repack);
      migr.push_back(static_cast<double>(r.migrations) / 800.0);
    }
    table.add_row({Table::num(mu, 0), Table::num(summarize(ff).mean, 3),
                   Table::num(summarize(mff).mean, 3),
                   Table::num(summarize(known).mean, 3),
                   Table::num(summarize(align).mean, 3),
                   Table::num(summarize(min_ext).mean, 3),
                   Table::num(summarize(repack).mean, 3),
                   Table::num(summarize(migr).mean, 1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: mean cost ratio falls monotonically with\n"
               "capability (online -> clairvoyant -> migration), but the\n"
               "migration column needs ~10+ moves per item — the overhead the\n"
               "paper's no-migration model refuses to pay (Section 1).\n";
  return 0;
}
