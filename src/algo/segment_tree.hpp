// Max segment tree over an append-only position space, with leftmost /
// rightmost fit descent.
//
// First Fit needs "the earliest-opened open bin whose residual capacity
// accommodates the item"; with residuals stored at bin-opening positions and
// max aggregation, that query is an O(log m) leftmost descent instead of the
// O(m) scan of a textbook implementation. Last Fit uses the symmetric
// rightmost descent.
//
// The hot-path queries are the non-template find_first_fit/find_last_fit
// threshold descents: each level chooses a child from one comparison against
// contiguous storage, with no per-node predicate callback. They inline the
// *exact* CostModel::fits expression `size <= residual + tolerance` — the
// algebraically equivalent `residual >= size - tolerance` rounds differently
// and would change fit decisions, so it must never be substituted. The
// template find_leftmost/find_rightmost predicate descents remain for
// arbitrary monotone queries (and as the reference implementation the
// differential tests compare against).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/error.hpp"

namespace dbp {

/// Segment tree keyed by dense positions 0..size-1 storing doubles with max
/// aggregation. Positions are appended with push_back and may later be
/// deactivated by setting them to -infinity.
class MaxSegmentTree {
 public:
  MaxSegmentTree() = default;

  static constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Appends a new position holding `value`; returns its index.
  std::size_t push_back(double value) {
    const std::size_t pos = size_;
    if (size_ == capacity_) grow();
    ++size_;
    assign(pos, value);
    return pos;
  }

  /// Appends `count` positions all holding `value`, with the same resulting
  /// tree as `count` push_backs: the leaves are written first, then each
  /// level recomputes only the parents of the new leaves, once —
  /// O(count + log size) instead of one root climb per position.
  void append(double value, std::size_t count) {
    if (count == 0) return;
    const std::size_t first = size_;
    while (capacity_ < size_ + count) grow();
    size_ += count;
    std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(capacity_ + first),
              tree_.begin() + static_cast<std::ptrdiff_t>(capacity_ + size_), value);
    for (std::size_t lo = (capacity_ + first) / 2, hi = (capacity_ + size_ - 1) / 2;
         lo >= 1; lo /= 2, hi /= 2) {
      for (std::size_t node = lo; node <= hi; ++node) {
        tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
      }
    }
  }

  /// Overwrites the value at `pos`.
  void assign(std::size_t pos, double value) {
    DBP_REQUIRE(pos < size_, "segment tree position out of range");
    std::size_t node = capacity_ + pos;
    tree_[node] = value;
    // Unconditional climb to the root: with compaction keeping the tree
    // small the ~6 levels are L1 hits, and a branchless climb beats an
    // "aggregate unchanged" early exit (its data-dependent break point
    // mispredicts, costing more than the skipped levels save).
    for (node /= 2; node >= 1; node /= 2) {
      tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  /// Marks a position as permanently unusable (e.g. the bin closed).
  void deactivate(std::size_t pos) { assign(pos, kNegInf); }

  [[nodiscard]] double value_at(std::size_t pos) const {
    DBP_REQUIRE(pos < size_, "segment tree position out of range");
    return tree_[capacity_ + pos];
  }

  /// Maximum over all positions (kNegInf when empty).
  [[nodiscard]] double max_value() const noexcept {
    return capacity_ == 0 ? kNegInf : tree_[1];
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Reserves *physical* storage so the tree never heap-allocates up to
  /// `positions` appends. The logical capacity (and with it the descent
  /// depth) is untouched: it still grows on demand, so a tree that only ever
  /// holds a handful of live positions keeps its hot path in L1 instead of
  /// paying for the worst case on every query.
  void reserve(std::size_t positions) {
    std::size_t full = 1;
    while (full < positions) full *= 2;
    tree_.reserve(2 * full);
  }

  /// Forgets every position while keeping the allocated storage — the arena
  /// reset idiom, so a reused tree (e.g. FFD scratch across OPT snapshots)
  /// performs zero heap allocations in steady state.
  void clear() noexcept {
    std::fill(tree_.begin(), tree_.end(), kNegInf);
    size_ = 0;
  }

  /// Smallest position `p` with `size <= value(p) + tolerance` — i.e. the
  /// leftmost position an item of `size` fits under CostModel::fits — or
  /// nullopt. Branchless contiguous descent; O(log capacity).
  [[nodiscard]] std::optional<std::size_t> find_first_fit(
      double size, double tolerance) const {
    if (capacity_ == 0 || !(size <= tree_[1] + tolerance)) return std::nullopt;
    std::size_t node = 1;
    while (node < capacity_) {
      const std::size_t left = 2 * node;
      // Left child when the item fits somewhere under it, else right child.
      node = left + static_cast<std::size_t>(!(size <= tree_[left] + tolerance));
    }
    const std::size_t pos = node - capacity_;
    DBP_CHECK(pos < size_ && size <= tree_[node] + tolerance,
              "segment tree descent failed");
    return pos;
  }

  /// Largest fitting position (the Last Fit query), or nullopt.
  [[nodiscard]] std::optional<std::size_t> find_last_fit(
      double size, double tolerance) const {
    if (capacity_ == 0 || !(size <= tree_[1] + tolerance)) return std::nullopt;
    std::size_t node = 1;
    while (node < capacity_) {
      const std::size_t left = 2 * node;
      // Right child when the item fits somewhere under it, else left child.
      node = left + static_cast<std::size_t>(size <= tree_[left + 1] + tolerance);
    }
    const std::size_t pos = node - capacity_;
    DBP_CHECK(pos < size_ && size <= tree_[node] + tolerance,
              "segment tree descent failed");
    return pos;
  }

  /// Smallest position whose value satisfies `pred`, where `pred` must be
  /// monotone in the sense pred(x) && y >= x implies pred(y) (true for
  /// "residual fits this item"). O(log n). Reference/general path: the hot
  /// loops use the threshold descents above.
  template <typename Pred>
  [[nodiscard]] std::optional<std::size_t> find_leftmost(const Pred& pred) const {
    return find_directional<true>(pred);
  }

  /// Largest position whose value satisfies `pred` (same monotonicity).
  template <typename Pred>
  [[nodiscard]] std::optional<std::size_t> find_rightmost(const Pred& pred) const {
    return find_directional<false>(pred);
  }

 private:
  template <bool Leftmost, typename Pred>
  [[nodiscard]] std::optional<std::size_t> find_directional(const Pred& pred) const {
    if (capacity_ == 0 || !pred(tree_[1])) return std::nullopt;
    std::size_t node = 1;
    while (node < capacity_) {
      const std::size_t first = Leftmost ? 2 * node : 2 * node + 1;
      const std::size_t second = Leftmost ? 2 * node + 1 : 2 * node;
      node = pred(tree_[first]) ? first : second;
    }
    const std::size_t pos = node - capacity_;
    // The aggregate said some leaf qualifies; the descent found it.
    DBP_CHECK(pos < size_ && pred(tree_[node]), "segment tree descent failed");
    return pos;
  }

  void grow() { rebuild(capacity_ == 0 ? 1 : capacity_ * 2); }

  /// Doubles in place: leaves move up to their new offsets within the same
  /// buffer, so after reserve() this never heap-allocates. Values are copied
  /// verbatim and max-aggregation is exact, so queries are unaffected.
  void rebuild(std::size_t new_capacity) {
    tree_.resize(2 * new_capacity, kNegInf);
    std::copy_backward(tree_.begin() + static_cast<std::ptrdiff_t>(capacity_),
                       tree_.begin() + static_cast<std::ptrdiff_t>(capacity_ + size_),
                       tree_.begin() + static_cast<std::ptrdiff_t>(new_capacity + size_));
    std::fill(tree_.begin(), tree_.begin() + static_cast<std::ptrdiff_t>(new_capacity),
              kNegInf);
    std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(new_capacity + size_),
              tree_.end(), kNegInf);
    capacity_ = new_capacity;
    for (std::size_t i = new_capacity - 1; i >= 1; --i) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  std::vector<double> tree_;  // 1-based heap layout; leaves at [capacity_, 2*capacity_)
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace dbp
