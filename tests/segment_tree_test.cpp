#include "algo/segment_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

namespace dbp {
namespace {

TEST(MaxSegmentTreeTest, EmptyTree) {
  MaxSegmentTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.max_value(), MaxSegmentTree::kNegInf);
  EXPECT_FALSE(tree.find_leftmost([](double v) { return v > 0; }).has_value());
  EXPECT_FALSE(tree.find_rightmost([](double v) { return v > 0; }).has_value());
}

TEST(MaxSegmentTreeTest, PushBackAndQuery) {
  MaxSegmentTree tree;
  EXPECT_EQ(tree.push_back(1.0), 0u);
  EXPECT_EQ(tree.push_back(3.0), 1u);
  EXPECT_EQ(tree.push_back(2.0), 2u);
  EXPECT_DOUBLE_EQ(tree.max_value(), 3.0);
  EXPECT_DOUBLE_EQ(tree.value_at(2), 2.0);
}

TEST(MaxSegmentTreeTest, FindLeftmost) {
  MaxSegmentTree tree;
  tree.push_back(1.0);
  tree.push_back(3.0);
  tree.push_back(2.0);
  tree.push_back(3.0);
  const auto pos = tree.find_leftmost([](double v) { return v >= 3.0; });
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
  const auto pos2 = tree.find_leftmost([](double v) { return v >= 1.5; });
  ASSERT_TRUE(pos2.has_value());
  EXPECT_EQ(*pos2, 1u);
  EXPECT_FALSE(tree.find_leftmost([](double v) { return v > 3.0; }).has_value());
}

TEST(MaxSegmentTreeTest, FindRightmost) {
  MaxSegmentTree tree;
  tree.push_back(3.0);
  tree.push_back(1.0);
  tree.push_back(3.0);
  tree.push_back(2.0);
  const auto pos = tree.find_rightmost([](double v) { return v >= 3.0; });
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 2u);
}

TEST(MaxSegmentTreeTest, AssignUpdatesAggregates) {
  MaxSegmentTree tree;
  tree.push_back(5.0);
  tree.push_back(1.0);
  tree.assign(0, 0.5);
  EXPECT_DOUBLE_EQ(tree.max_value(), 1.0);
  const auto pos = tree.find_leftmost([](double v) { return v >= 1.0; });
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(MaxSegmentTreeTest, DeactivateRemovesFromSearch) {
  MaxSegmentTree tree;
  tree.push_back(2.0);
  tree.push_back(2.0);
  tree.deactivate(0);
  const auto pos = tree.find_leftmost([](double v) { return v >= 2.0; });
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(MaxSegmentTreeTest, OutOfRangeThrows) {
  MaxSegmentTree tree;
  tree.push_back(1.0);
  EXPECT_THROW(tree.assign(1, 0.0), PreconditionError);
  EXPECT_THROW((void)tree.value_at(1), PreconditionError);
}

TEST(MaxSegmentTreeTest, GrowthPreservesContents) {
  MaxSegmentTree tree;
  for (int i = 0; i < 100; ++i) tree.push_back(static_cast<double>(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(tree.value_at(static_cast<std::size_t>(i)), i);
  }
  EXPECT_DOUBLE_EQ(tree.max_value(), 99.0);
}

TEST(MaxSegmentTreeTest, RandomizedAgainstBruteForce) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> value_dist(0.0, 1.0);
  MaxSegmentTree tree;
  std::vector<double> shadow;
  for (int step = 0; step < 3000; ++step) {
    if (step % 700 == 699) {
      // clear() keeps the capacity: later appends land in a larger tree.
      tree.clear();
      shadow.clear();
    }
    const int op = static_cast<int>(rng() % 5);
    if (op == 0 || shadow.empty()) {
      tree.push_back(value_dist(rng));
      shadow.push_back(tree.value_at(tree.size() - 1));
    } else if (op == 4) {
      // Bulk append, zero copies included, often across a capacity doubling.
      const double v = value_dist(rng);
      const std::size_t count = rng() % 41;
      tree.append(v, count);
      shadow.insert(shadow.end(), count, v);
      ASSERT_EQ(tree.size(), shadow.size());
      EXPECT_EQ(tree.max_value(), *std::max_element(shadow.begin(), shadow.end()));
    } else if (op == 1) {
      const std::size_t pos = rng() % shadow.size();
      const double v = value_dist(rng);
      tree.assign(pos, v);
      shadow[pos] = v;
    } else {
      const double threshold = value_dist(rng);
      const auto pred = [threshold](double v) { return v >= threshold; };
      std::optional<std::size_t> expect_left;
      std::optional<std::size_t> expect_right;
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        if (pred(shadow[i])) {
          if (!expect_left) expect_left = i;
          expect_right = i;
        }
      }
      EXPECT_EQ(tree.find_leftmost(pred), expect_left);
      EXPECT_EQ(tree.find_rightmost(pred), expect_right);
    }
  }
}

}  // namespace
}  // namespace dbp
