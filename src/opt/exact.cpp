#include "opt/exact.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "core/arena.hpp"
#include "core/error.hpp"
#include "opt/classical.hpp"
#include "opt/lower_bounds.hpp"
#include "opt/scratch.hpp"

namespace dbp {

namespace {

/// `count` items of run `run` placed in one bin.
struct Take {
  std::uint32_t run;
  std::uint32_t count;
};

/// One generated bin completion. Records live in the arena, linked newest
/// first while a node generates them, then sorted fullest first.
struct Completion {
  Completion* next;
  const Take* takes;
  double volume;            ///< left-to-right sum of the bin's sizes
  std::uint32_t take_count;
  std::uint32_t order;      ///< generation index: the sort's tie-break
};

/// Korf-style bin-completion search ("An improved algorithm for optimal bin
/// packing", IJCAI 2003) deciding whether the multiset fits in a given
/// number of bins. Each node takes the largest item left, opens its bin and
/// branches over the maximal completions of that bin, fullest first.
///
/// A bin is feasible when its items, in non-increasing size order, pass
/// CostModel::fits one by one from residual W — exactly how the witness is
/// replayed. Every pruning rule is sound for that rule, rounding included:
/// * maximality: a completion that could still take its smallest left-out
///   item is skipped (moving that item in from another bin keeps both
///   bins feasible, since fits() is monotone in the residual);
/// * waste: a completion is skipped when the volume it leaves behind
///   exceeds what the remaining bins can hold at bin_volume_bound each;
/// * dual-feasible bound: a node is cut when the Fekete-Schepers bound on
///   the items left exceeds the bins left.
class BinCompletion {
 public:
  enum class Outcome { kFits, kNoFit, kAborted };

  BinCompletion(std::span<const SizeRun> runs, const CostModel& model,
                std::uint64_t node_budget, MonotonicArena& arena)
      : runs_(runs),
        model_(model),
        arena_(arena),
        node_budget_(node_budget),
        left_(arena.allocate_array<std::uint64_t>(runs.size())),
        weights_(arena.allocate_array<std::uint64_t>(runs.size() * kDffMaxK)),
        open_runs_(arena.allocate_array<std::uint32_t>(runs.size())),
        suffix_(arena.allocate_array<double>(runs.size() + 1)),
        partial_(arena.allocate_array<Take>(runs.size())) {
    item_count_ = rle_item_count(runs);
    volume_bound_ = bin_volume_bound(model, item_count_);
    dff_total_.fill(0);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      left_[r] = runs[r].count;
      for (std::size_t k = 1; k <= kDffMaxK; ++k) {
        const std::uint64_t w = dff_weight(runs[r].size, volume_bound_, k);
        weights_[r * kDffMaxK + k - 1] = w;
        dff_total_[k - 1] += runs[r].count * w;
      }
      volume_ += static_cast<double>(runs[r].count) * runs[r].size;
    }
    items_left_ = item_count_;
  }

  /// Does the multiset fit in `bins` bins? On kFits, bins_used() is the
  /// bin count of the packing found (at most `bins`), already replayed.
  Outcome fits_in(std::size_t bins) {
    const MonotonicArena::Marker mark = arena_.marker();
    bins_ = bins;
    // Volumes here are rounded sums of at most item_count_ terms; comparing
    // them with this much slack keeps every volume prune conservative.
    slack_ = static_cast<double>(bins) * volume_bound_ *
             static_cast<double>(item_count_ + 2) * 0x1p-50;
    path_ = arena_.allocate_array<const Completion*>(bins);
    // Widening passes: a pass branches over only the `width` fullest
    // completions of each node, width = 2, 4, 8, ...; a pass that never had
    // to leave one out was exhaustive. Narrow passes reach deep alternatives
    // quickly, which is where packings that meet the lower bound are found.
    Outcome outcome = Outcome::kAborted;
    for (std::size_t width = kFirstWidth; !aborted_; width *= 2) {
      exhaustive_ = true;
      width_ = width;
      if (place(0, 0, volume_)) {
        outcome = Outcome::kFits;
        break;
      }
      if (!aborted_ && exhaustive_) {
        outcome = Outcome::kNoFit;
        break;
      }
    }
    arena_.rewind(mark);
    return outcome;
  }

  [[nodiscard]] std::size_t bins_used() const noexcept { return bins_used_; }
  [[nodiscard]] std::uint64_t nodes() const noexcept { return nodes_; }

 private:
  /// Counts one examined candidate; false once the budget is spent.
  bool charge() {
    if (++nodes_ > node_budget_) aborted_ = true;
    return !aborted_;
  }

  [[nodiscard]] double size(std::size_t run) const { return runs_[run].size; }

  /// Fekete-Schepers bound on the items left (exact integer sums).
  [[nodiscard]] std::uint64_t dff_bound() const {
    std::uint64_t best = 0;
    for (std::size_t k = 1; k <= kDffMaxK; ++k) {
      const std::uint64_t unit = k * (k + 1);
      best = std::max(best, (dff_total_[k - 1] + unit - 1) / unit);
    }
    return best;
  }

  void apply(const Completion& c, bool remove) {
    for (std::uint32_t t = 0; t < c.take_count; ++t) {
      const Take take = c.takes[t];
      const std::uint64_t* w = &weights_[std::size_t{take.run} * kDffMaxK];
      if (remove) {
        left_[take.run] -= take.count;
        items_left_ -= take.count;
        for (std::size_t k = 0; k < kDffMaxK; ++k) dff_total_[k] -= take.count * w[k];
      } else {
        left_[take.run] += take.count;
        items_left_ += take.count;
        for (std::size_t k = 0; k < kDffMaxK; ++k) dff_total_[k] += take.count * w[k];
      }
    }
  }

  /// Packs the items left into the bins after the first `used`, whose
  /// contents path_[0, used) holds; `volume` is the volume left.
  bool place(std::size_t used, std::size_t first, double volume) {
    if (items_left_ == 0) {
      replay_witness(used);
      bins_used_ = used;
      return true;
    }
    const std::size_t open = bins_ - used;
    if (open == 0) return false;
    if (volume > static_cast<double>(open) * volume_bound_ + slack_) return false;
    if (dff_bound() > open) return false;
    while (left_[first] == 0) ++first;

    const MonotonicArena::Marker mark = arena_.marker();
    const std::span<const Completion*> order =
        generate(first, volume - static_cast<double>(open - 1) * volume_bound_ - slack_);
    bool found = false;
    for (const Completion* c : order) {
      apply(*c, true);
      path_[used] = c;
      found = place(used + 1, first, volume - c->volume);
      apply(*c, false);
      if (found || aborted_) break;
    }
    arena_.rewind(mark);
    return found;
  }

  /// The width_ fullest maximal completions of the bin opened by an item
  /// of run `first` whose volume reaches `min_volume`, fullest first. Empty
  /// on abort.
  std::span<const Completion*> generate(std::size_t first, double min_volume) {
    open_count_ = 0;
    for (std::size_t r = first; r < runs_.size(); ++r) {
      if (left_[r] > 0) open_runs_[open_count_++] = static_cast<std::uint32_t>(r);
    }
    suffix_[open_count_] = 0.0;
    for (std::size_t i = open_count_; i-- > 0;) {
      const std::uint32_t r = open_runs_[i];
      suffix_[i] = suffix_[i + 1] + static_cast<double>(left_[r]) * size(r);
    }
    min_volume_ = min_volume;
    head_ = nullptr;
    generated_ = 0;
    sequence_ = 0;
    extend(0, model_.bin_capacity, 0.0, 0, kNone);
    if (aborted_) return {};

    const std::span<const Completion*> order =
        arena_.allocate_array<const Completion*>(generated_);
    std::size_t at = 0;
    for (const Completion* c = head_; c != nullptr; c = c->next) order[at++] = c;
    std::sort(order.begin(), order.end(), fuller);
    if (order.size() <= width_) return order;
    exhaustive_ = false;
    return order.first(width_);
  }

  static constexpr std::size_t kFirstWidth = 2;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Extends the partial bin partial_[0, depth) — chain residual `residual`,
  /// volume `volume` — with items of the open runs from index `at` on.
  /// `excluded` is the smallest run with an item left out so far (kNone if
  /// none). The completion is maximal iff that item cannot be added: by
  /// monotonicity, whenever any left-out item fits, the smallest one does.
  void extend(std::size_t at, double residual, double volume, std::size_t depth,
              std::size_t excluded) {
    if (!charge()) return;
    // Runs are in decreasing size order: skip those too large to fit.
    const std::size_t skipped_from = at;
    at = static_cast<std::size_t>(
        std::partition_point(open_runs_.begin() + static_cast<std::ptrdiff_t>(at),
                             open_runs_.begin() + static_cast<std::ptrdiff_t>(open_count_),
                             [&](std::uint32_t r) { return !model_.fits(size(r), residual); }) -
        open_runs_.begin());
    if (at == open_count_) {
      // A skipped run is left out and no smaller item fits the final
      // residual, so skipping one here makes the completion maximal.
      store(depth, volume, at > skipped_from ? kNone : excluded);
      return;
    }
    if (at > skipped_from) excluded = open_runs_[at - 1];
    // Even all the volume still reachable cannot make this bin full enough.
    if (volume + suffix_[at] < min_volume_) return;

    const std::uint32_t run = open_runs_[at];
    const double s = size(run);
    const std::uint64_t available = left_[run];
    const std::uint64_t lowest = depth == 0 ? 1 : 0;  // the opening item
    for (std::uint64_t m = 0;; ++m) {
      if (m >= lowest) {
        if (m > 0) partial_[depth] = Take{run, static_cast<std::uint32_t>(m)};
        extend(at + 1, residual, volume, m > 0 ? depth + 1 : depth,
               m < available ? run : excluded);
        if (aborted_) return;
      }
      if (m == available || !model_.fits(s, residual)) break;
      residual -= s;
      volume += s;
    }
  }

  /// Records partial_[0, depth) unless it is too empty or not maximal.
  void store(std::size_t depth, double volume, std::size_t excluded) {
    if (volume < min_volume_) return;
    if (excluded != kNone && fits_with(depth, excluded)) return;
    const std::span<Take> takes = arena_.allocate_array<Take>(depth);
    std::copy_n(partial_.begin(), depth, takes.begin());
    Completion* c = arena_.allocate_array<Completion>(1).data();
    *c = Completion{head_, takes.data(), volume, static_cast<std::uint32_t>(depth),
                    static_cast<std::uint32_t>(sequence_++)};
    head_ = c;
    if (++generated_ == 2 * width_) keep_fullest();
  }

  static bool fuller(const Completion* a, const Completion* b) {
    return a->volume != b->volume ? a->volume > b->volume : a->order < b->order;
  }

  /// Drops all but the width_ fullest completions stored so far and admits
  /// only fuller ones from now on, bounding a node's storage.
  void keep_fullest() {
    const MonotonicArena::Marker mark = arena_.marker();
    const std::span<Completion*> all = arena_.allocate_array<Completion*>(generated_);
    std::size_t at = 0;
    for (Completion* c = head_; c != nullptr; c = c->next) all[at++] = c;
    const auto last_kept = all.begin() + static_cast<std::ptrdiff_t>(width_ - 1);
    std::nth_element(all.begin(), last_kept, all.end(), fuller);
    min_volume_ = std::max(min_volume_, std::nextafter((*last_kept)->volume, kInfinity));
    head_ = nullptr;
    for (std::size_t i = 0; i < width_; ++i) {
      all[i]->next = head_;
      head_ = all[i];
    }
    generated_ = width_;
    exhaustive_ = false;
    arena_.rewind(mark);
  }

  /// Whether partial_[0, depth) plus one more item of run `extra` still
  /// passes the fits() chain in non-increasing size order.
  bool fits_with(std::size_t depth, std::size_t extra) const {
    double residual = model_.bin_capacity;
    bool pending = true;
    const auto add = [&](double s, std::uint64_t count) {
      for (std::uint64_t i = 0; i < count; ++i) {
        if (!model_.fits(s, residual)) return false;
        residual -= s;
      }
      return true;
    };
    for (std::size_t t = 0; t < depth; ++t) {
      const Take take = partial_[t];
      if (pending && take.run >= extra) {
        pending = false;
        if (take.run == extra) {
          if (!add(size(extra), std::uint64_t{take.count} + 1)) return false;
          continue;
        }
        if (!add(size(extra), 1)) return false;
      }
      if (!add(size(take.run), take.count)) return false;
    }
    return !pending || add(size(extra), 1);
  }

  /// Replays the packing path_[0, bins) through CostModel::fits and checks
  /// that it holds every item exactly once.
  void replay_witness(std::size_t bins) const {
    std::uint64_t placed = 0;
    for (std::size_t b = 0; b < bins; ++b) {
      double residual = model_.bin_capacity;
      for (std::uint32_t t = 0; t < path_[b]->take_count; ++t) {
        const Take take = path_[b]->takes[t];
        for (std::uint32_t i = 0; i < take.count; ++i) {
          DBP_CHECK(model_.fits(size(take.run), residual),
                    "bin-completion witness overfills a bin");
          residual -= size(take.run);
        }
        placed += take.count;
      }
    }
    DBP_CHECK(placed == item_count_, "bin-completion witness misses items");
  }

  std::span<const SizeRun> runs_;
  const CostModel& model_;
  MonotonicArena& arena_;
  std::uint64_t node_budget_;
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
  bool exhaustive_ = true;  ///< no completion of this pass was left out
  std::size_t width_ = 0;   ///< completions a node of this pass branches over

  std::span<std::uint64_t> left_;      ///< items of each run not yet packed
  std::span<std::uint64_t> weights_;   ///< dff_weight per run and k
  std::array<std::uint64_t, kDffMaxK> dff_total_{};  ///< over the items left
  std::uint64_t item_count_ = 0;
  std::uint64_t items_left_ = 0;
  double volume_ = 0.0;        ///< volume of the whole multiset
  double volume_bound_ = 0.0;  ///< bin_volume_bound
  double slack_ = 0.0;         ///< absolute slack for the current decision

  std::size_t bins_ = 0;
  std::size_t bins_used_ = 0;
  std::span<const Completion*> path_;

  // Generation state of the node currently generating.
  std::span<std::uint32_t> open_runs_;  ///< runs with items left, from `first`
  std::size_t open_count_ = 0;
  std::span<double> suffix_;            ///< volume left in open_runs_[i..]
  std::span<Take> partial_;
  double min_volume_ = 0.0;
  Completion* head_ = nullptr;
  std::size_t generated_ = 0;  ///< completions stored
  std::size_t sequence_ = 0;   ///< completions ever stored (the order key)
};

}  // namespace

ExactPackingResult exact_bin_count(std::span<const double> sizes,
                                   const CostModel& model,
                                   const ExactPackingOptions& options) {
  model.validate();
  std::vector<double> sorted(sizes.begin(), sizes.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::vector<SizeRun> runs = rle_from_sorted(sorted);
  BinCountScratch scratch;
  const std::size_t lower = l2_lower_bound_rle(runs, model, scratch.arena);
  const std::size_t upper =
      std::min(first_fit_decreasing_rle(runs, model, scratch.ffd_tree),
               best_fit_decreasing_rle(runs, model, scratch.bfd_residuals));
  return exact_bin_count_bounded(sorted, model, lower, upper, options, scratch.arena);
}

ExactPackingResult exact_bin_count_bounded(std::span<const double> sorted_desc,
                                           const CostModel& model, std::size_t lower,
                                           std::size_t upper,
                                           const ExactPackingOptions& options,
                                           MonotonicArena& scratch) {
  model.validate();
  DBP_REQUIRE(std::is_sorted(sorted_desc.rbegin(), sorted_desc.rend()),
              "sizes must be non-increasing");
  DBP_CHECK(lower <= upper, "lower bound exceeds heuristic upper bound");
  if (lower == upper) {
    return ExactPackingResult{lower, upper, true, 0};
  }

  // Run-length form of the expansion, in the arena.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < sorted_desc.size(); ++i) {
    if (i == 0 || sorted_desc[i] != sorted_desc[i - 1]) ++distinct;
  }
  const std::span<SizeRun> runs = scratch.allocate_array<SizeRun>(distinct);
  std::size_t at = 0;
  for (std::size_t i = 0; i < sorted_desc.size(); ++i) {
    if (i == 0 || sorted_desc[i] != sorted_desc[i - 1]) runs[at++] = SizeRun{sorted_desc[i], 0};
    ++runs[at - 1].count;
  }

  lower = std::max(lower, dff_lower_bound_rle(runs, model));
  DBP_CHECK(lower <= upper, "dual-feasible bound exceeds heuristic upper bound");

  // Decide "fits in upper - 1 bins?" until the answer is no (which proves
  // the optimum is upper) or lower is reached or the budget runs out.
  BinCompletion search(runs, model, options.node_budget, scratch);
  while (lower < upper) {
    const BinCompletion::Outcome outcome = search.fits_in(upper - 1);
    if (outcome == BinCompletion::Outcome::kFits) {
      upper = search.bins_used();
    } else {
      if (outcome == BinCompletion::Outcome::kNoFit) lower = upper;
      break;
    }
  }
  DBP_CHECK(lower <= upper, "exact search produced crossed bounds");
  return ExactPackingResult{lower, upper, lower == upper, search.nodes()};
}

}  // namespace dbp
