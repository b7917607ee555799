// E14 — randomized bound-stress search (extension).
//
// Samples hundreds of random workload configurations (size regimes, arrival
// processes, duration shapes, mu) and tracks the worst measured ratio per
// algorithm. A cheap falsification harness: if any proven bound were
// implemented wrong — in the algorithms, the simulator, or the OPT
// estimator — a violation would surface here as "worst > bound".
#include <iostream>

#include "analysis/bounds.hpp"
#include "analysis/ratio.hpp"
#include "exec/parallel_map.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "core/strfmt.hpp"
#include "workload/random_instance.hpp"
#include "workload/rng.hpp"

namespace {

struct Probe {
  dbp::RandomInstanceConfig config;
  std::uint64_t seed;
  std::string label;
};

Probe sample_probe(dbp::Rng& rng, std::uint64_t index) {
  using namespace dbp;
  Probe probe;
  probe.seed = index * 7919 + 13;
  RandomInstanceConfig& config = probe.config;
  config.item_count = 400 + rng.uniform_int(0, 400);
  const double mu = std::exp(rng.uniform(0.0, std::log(32.0)));
  config.duration.max_length = mu;
  config.duration.kind = static_cast<DurationModel::Kind>(rng.uniform_int(0, 4));
  config.duration.log_mean = rng.uniform(-0.5, 1.0);
  config.duration.pareto_shape = rng.uniform(1.1, 2.5);
  if (rng.bernoulli(0.3)) {
    config.arrival.kind = ArrivalModel::Kind::kBursts;
    config.arrival.burst_size = 4 + rng.uniform_int(0, 28);
    config.arrival.burst_gap = rng.uniform(0.2, mu);
  } else {
    config.arrival.rate = rng.uniform(2.0, 40.0);
  }
  const double lo = rng.uniform(0.01, 0.3);
  config.size.min_fraction = lo;
  config.size.max_fraction = rng.uniform(lo, 1.0);
  probe.label = strfmt("mu=%.1f n=%zu", mu, config.item_count);
  return probe;
}

struct WorstCase {
  double ratio = 0.0;
  std::string label;
};

}  // namespace

int main() {
  using namespace dbp;
  bench::banner("E14", "Randomized bound-stress search",
                "extension: hunt for bound violations over random configs");
  const CostModel model{1.0, 1.0, 1e-9};
  constexpr std::size_t kProbes = 160;

  Rng rng(20140623);  // SPAA'14 conference date
  std::vector<Probe> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) probes.push_back(sample_probe(rng, i));

  const std::vector<std::string> algorithms = {
      "first-fit", "best-fit", "modified-first-fit",
      "modified-first-fit-known-mu", "next-fit", "harmonic-first-fit"};

  struct ProbeResult {
    std::vector<double> ratios;  // by algorithm index
    double mu;
    std::string label;
  };
  const auto results = parallel_map(probes, [&](const Probe& probe) {
    const Instance instance = generate_random_instance(probe.config, probe.seed);
    const InstanceEvaluation evaluation =
        evaluate_algorithms(instance, algorithms, model);
    ProbeResult result;
    result.mu = evaluation.metrics.mu;
    result.label = probe.label;
    for (const std::string& name : algorithms) {
      result.ratios.push_back(evaluation.row(name).ratio.upper);
    }
    return result;
  });

  Table table({"algorithm", "worst ratio found", "at workload",
               "bound at that mu", "violations"});
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    WorstCase worst;
    std::size_t violations = 0;
    double bound_at_worst = 0.0;
    for (const ProbeResult& result : results) {
      const auto bound = proven_bound_for(algorithms[a], result.mu);
      if (bound && result.ratios[a] > *bound + 1e-9) ++violations;
      if (result.ratios[a] > worst.ratio) {
        worst.ratio = result.ratios[a];
        worst.label = result.label;
        bound_at_worst = bound.value_or(0.0);
      }
    }
    table.add_row({algorithms[a], Table::num(worst.ratio, 3), worst.label,
                   bound_at_worst > 0.0 ? Table::num(bound_at_worst, 2) : "-",
                   Table::integer(static_cast<long long>(violations))});
  }
  table.print(std::cout);
  std::cout << strfmt("\n%zu random configurations probed; the violations\n"
                      "column must read 0 everywhere. Worst ratios cluster at\n"
                      "low mu + bursty arrivals — churn, not interval spread,\n"
                      "drives typical-case inefficiency.\n",
                      kProbes);
  return 0;
}
