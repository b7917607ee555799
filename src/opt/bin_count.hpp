// The bin-count oracle: certified [lower, upper] bounds (exact whenever
// affordable) on the optimal number of bins for a static size multiset.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "opt/exact.hpp"
#include "opt/rle.hpp"
#include "opt/scratch.hpp"

namespace dbp {

/// Certified bounds on the optimal bin count.
struct BinCountBounds {
  std::size_t lower = 0;
  std::size_t upper = 0;
  [[nodiscard]] bool exact() const noexcept { return lower == upper; }
};

struct BinCountOptions {
  /// Forwarded to the exact solver when heuristic bounds do not meet.
  ExactPackingOptions exact{};
  /// Disable the exact solver entirely (bounds then come from L2 and
  /// FFD/BFD only) — used by large sweeps where speed matters more.
  bool use_exact_solver = true;
  /// Sizes whose relative spread is below this are treated as equal,
  /// enabling the exact equal-size fast path.
  double equal_size_rel_tolerance = 1e-12;
};

/// Computes bounds for the given multiset (any order): sorts, compresses and
/// runs optimal_bin_count_rle on a call-local scratch. Fast paths (exact,
/// O(n)): empty, everything-fits-one-bin, all-equal sizes. General path:
/// L2 lower (which dominates L1), then FFD — when FFD meets L2 the count is
/// certified and BFD (>= OPT) is skipped — else min(FFD, BFD) upper, then
/// the exact solver (opt/exact.hpp: dual-feasible bound + bin-completion
/// search) to close.
[[nodiscard]] BinCountBounds optimal_bin_count(std::span<const double> sizes,
                                               const CostModel& model,
                                               const BinCountOptions& options = {});

/// Run-length-encoded entry point (strictly decreasing run sizes): the core
/// every other entry point adapts to. Every working structure (L2 prefix
/// arrays, FFD tree, BFD residual index, exact-solver expansion and stack)
/// is reused from `scratch` — see opt/scratch.hpp. The OPT_total evaluate
/// phase calls this once per distinct snapshot with a per-worker scratch,
/// making the phase allocation-free in steady state. Bit-identical to
/// optimal_bin_count on the expanded multiset: the kernels replay the
/// per-item floating-point sequence exactly and the exact solver, when
/// needed, runs on a transient expansion.
[[nodiscard]] BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                                   const CostModel& model,
                                                   const BinCountOptions& options,
                                                   BinCountScratch& scratch);

/// The same computation on a call-local scratch. Thread-safe: pure.
[[nodiscard]] BinCountBounds optimal_bin_count_rle(std::span<const SizeRun> runs,
                                                   const CostModel& model,
                                                   const BinCountOptions& options = {});

/// Memoizing wrapper around the bin-count computation, keyed on the exact
/// run-length-encoded multiset. The OPT_total estimator evaluates the active
/// multiset at every event boundary; adversarial and cyclic workloads
/// revisit the same multiset many times. Misses are computed on a scratch
/// the oracle owns, so a long-lived oracle (the engine's per-epoch one)
/// reuses its working storage across calls. Not thread-safe — the
/// estimator's parallel phase computes misses with per-worker scratches and
/// stores them sequentially.
class BinCountOracle {
 public:
  /// Evictions trim the memo back under `memo_limit` entries (FIFO halves,
  /// see store_rle) instead of wiping it wholesale.
  static constexpr std::size_t kMemoLimit = 1 << 18;

  explicit BinCountOracle(CostModel model, BinCountOptions options = {},
                          std::size_t memo_limit = kMemoLimit);

  /// `sorted_desc` must be non-increasing. Compresses to runs, then counts.
  [[nodiscard]] BinCountBounds count_sorted(std::span<const double> sorted_desc);

  /// Memoized bounds for a compressed multiset (lookup + compute + store).
  [[nodiscard]] BinCountBounds count_rle(std::span<const SizeRun> runs);

  /// Memo probe only; counts a hit or a miss. Lets callers batch the
  /// computation of misses (e.g. in parallel) before store_rle-ing them.
  /// The span form probes without copying the key (transparent lookup) —
  /// arena-backed snapshot spans pass through allocation-free.
  [[nodiscard]] std::optional<BinCountBounds> lookup_rle(std::span<const SizeRun> runs);
  [[nodiscard]] std::optional<BinCountBounds> lookup_rle(
      const std::vector<SizeRun>& runs) {
    return lookup_rle(std::span<const SizeRun>(runs));
  }

  /// Inserts a computed entry, evicting the oldest half of the memo first
  /// when `memo_limit` is reached (FIFO by insertion; bounded, never a
  /// wholesale wipe). Overwrites silently on duplicate keys. Only an actual
  /// insert copies the key into an owning vector.
  void store_rle(std::span<const SizeRun> runs, BinCountBounds bounds);
  void store_rle(const std::vector<SizeRun>& runs, BinCountBounds bounds) {
    store_rle(std::span<const SizeRun>(runs), bounds);
  }

  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Total entries evicted over the oracle's lifetime.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct MemoEntry {
    BinCountBounds bounds{};
    std::uint64_t seq = 0;  ///< insertion sequence number, for FIFO eviction
  };

  CostModel model_;
  BinCountOptions options_;
  std::size_t memo_limit_;
  BinCountScratch scratch_;  ///< working storage of count_rle misses
  // DBP_LINT_ALLOW(unordered-container): memo lookups by exact RLE key;
  // eviction keeps every entry with seq >= cutoff, so the surviving set is
  // determined by insertion sequence, not by iteration order.
  std::unordered_map<std::vector<SizeRun>, MemoEntry, SizeRunVectorHash,
                     SizeRunKeyEqual>
      memo_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dbp
