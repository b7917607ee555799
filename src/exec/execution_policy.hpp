// How a library fan-out decides between its sequential and parallel code
// paths. Both paths are required to be bit-identical; the policy only picks
// the faster one, so callers can default to kAdaptive without thinking.
//
// The adaptive cutoffs exist because parallel_map is not free even when it
// ends up running on one thread: the OpenMP region, the dynamic scheduler,
// and the per-job std::optional result slots cost ~18% on the OPT_total
// uniform-5000 workload (BENCH_perf.json recorded 1748 ms parallel vs
// 1474 ms sequential with a 1-worker budget — the regression this layer
// fixes). Sequential is therefore the right answer when the budget is one
// worker, when there are too few independent jobs to amortize the region
// startup, or when the jobs are so small (heavily deduplicated snapshots,
// few RLE runs each) that slot overhead dominates the work itself.
#pragma once

#include <cstddef>
#include <string>

namespace dbp::exec {

enum class ExecutionPolicy {
  kSequential,  ///< never fan out (reference behavior, nested contexts)
  kParallel,    ///< always fan out when >1 job (differential-test coverage)
  kAdaptive,    ///< fan out only when the budget and job mix can amortize it
};

/// What the caller knows about the fan-out it is about to run. `work_units`
/// is a caller-chosen proxy for total work — estimate_opt_total passes the
/// total RLE-run count across pending snapshots, so a thousand trivially
/// small snapshots do not look like a thousand heavyweight jobs.
struct ParallelWorkEstimate {
  std::size_t jobs = 0;
  std::size_t work_units = 0;
};

/// Measured on the bench container with bench_perf_micro (BM_OptTotal* on
/// 5000-item instances; docs/performance.md "Adaptive execution policy"):
/// below ~16 jobs the OpenMP region startup is visible against the work.
/// The work-unit cutoff follows the cost of a snapshot, which the exact
/// solver dominates: since dual-feasible bounds close dyadic snapshots
/// without a search, a 300-item dyadic estimate (~2.5k runs) takes ~1 ms
/// sequentially, while a 4-thread region cost ~10 ms on a shared 4-vCPU
/// host (dbp_bench_report --items=300). Both are deliberately conservative
/// — the sequential path is never wrong, only occasionally a little slower
/// on hardware we could have used.
inline constexpr std::size_t kMinParallelJobs = 16;
inline constexpr std::size_t kMinParallelWorkUnits = 8192;

/// The decision: should this fan-out use parallel_map? Pure function of its
/// arguments so tests can pin the truth table.
[[nodiscard]] bool should_parallelize(ExecutionPolicy policy,
                                      const ParallelWorkEstimate& estimate,
                                      int workers) noexcept;

[[nodiscard]] const char* to_string(ExecutionPolicy policy) noexcept;

/// Parses "sequential" | "parallel" | "adaptive" (the CLI --policy values);
/// throws PreconditionError on anything else.
[[nodiscard]] ExecutionPolicy parse_execution_policy(const std::string& name);

}  // namespace dbp::exec
