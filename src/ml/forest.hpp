// The one compiled representation every axis-aligned regression-tree model
// predicts with: REP-Tree (one tree), bagged REP-Trees (the members) and
// GBDT (the boosting rounds) all lower to a CompiledForest at the end of
// fit and in load. M5P keeps its own nodes — its leaves are smoothed
// linear models, not constants.
//
// Layout: the split nodes of every tree live in one flat array (threshold,
// 32-bit feature id, two 32-bit child links), numbered in preorder tree by
// tree; leaf values live in their own array. A child link j >= 0 names
// split node j, a negative link ~i names leaf i. Each tree keeps its root
// link and its depth.
//
// Kernels: predict_row walks the trees of one row in lockstep groups of
// kLanes for max(depth) steps, so their dependent loads overlap instead of
// chaining; the batched predict walks kLanes rows of one tree in lockstep,
// tree-major within row blocks. Both sum `base + leaf_0 + leaf_1 + ...` in
// tree order — the pinned summation order every learner's predictions were
// defined with. `x <= threshold` goes left, so NaN goes right.
//
// Archive (save/load, format version 1), all integers u64, links stored
// tree-local as two's-complement i64:
//   format word (kArchiveMagic | version), num_inputs, base,
//   u64s split count per tree, u64s leaf count per tree,
//   u64s feature, doubles threshold, u64s left, u64s right  (per split),
//   doubles leaf value.
// load() rejects, with std::runtime_error, any archive that could make a
// walk read past a row or fail to terminate: an unknown format word, a
// feature >= num_inputs, a split link that does not point strictly forward
// (a later split of the same tree), a link out of its tree's range, a node
// referenced twice, a tree whose leaf count is not its split count + 1,
// and counts that do not fit the 32-bit links.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/tree_common.hpp"
#include "util/serialization.hpp"

namespace f2pm::ml {

class CompiledForest {
 public:
  /// Trees walked together per row (predict_row) and rows walked together
  /// per tree (batched predict).
  static constexpr std::size_t kLanes = 8;

  struct SplitNode {
    double threshold = 0.0;
    std::uint32_t feature = 0;
    /// child[0] when x <= threshold, else child[1]. j >= 0: split j;
    /// ~i: leaf i.
    std::array<std::int32_t, 2> child{};
  };

  struct Tree {
    std::int32_t root = 0;    ///< Split id, or ~leaf for a single-leaf tree.
    std::uint32_t depth = 0;  ///< Splits on the longest root-to-leaf path.
  };

  /// A node as a learner grows it: any numbering, children by index into
  /// the learner's node vector, kNoNode children for a leaf. Internal
  /// nodes' values are ignored; unreachable nodes are dropped on add_tree.
  struct BuildNode {
    std::size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;
    std::size_t left = kNoNode;
    std::size_t right = kNoNode;
    [[nodiscard]] bool is_leaf() const { return left == kNoNode; }
  };

  CompiledForest() = default;
  /// An empty forest over `num_inputs` columns whose sums start at `base`.
  CompiledForest(std::size_t num_inputs, double base);

  /// Appends the tree reachable from `root`, renumbered in preorder.
  void add_tree(std::span<const BuildNode> nodes, std::size_t root);
  /// Appends every tree of `other` (same num_inputs), in order.
  void append(const CompiledForest& other);
  /// Keeps the first `num_trees` trees.
  void truncate(std::size_t num_trees);

  /// base + leaf_0 + leaf_1 + ... in tree order. `row` holds num_inputs()
  /// values (not checked here; the learners check).
  [[nodiscard]] double predict_row(const double* row) const;
  /// predict_row for every row of `x` into `out` (x.rows() values).
  void predict(const linalg::Matrix& x, std::span<double> out) const;
  /// The leaf value tree `t` gives `row` (one plain walk).
  [[nodiscard]] double tree_leaf(std::size_t t, const double* row) const;
  /// Calls visit(leaf value) for every tree in tree order.
  template <typename Visit>
  void for_each_leaf(const double* row, Visit&& visit) const {
    std::array<double, kLanes> leaves;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const std::size_t lanes = lanes_in_group(g);
      if (lanes == 1) {
        // A lone tree (a REP-Tree, or the last of a forest) is one plain
        // walk; lockstep would step seven idle lanes to its depth.
        visit(tree_leaf(g * kLanes, row));
        continue;
      }
      walk_group(groups_[g], row, leaves.data());
      for (std::size_t k = 0; k < lanes; ++k) visit(leaves[k]);
    }
  }

  [[nodiscard]] std::size_t num_inputs() const { return num_inputs_; }
  [[nodiscard]] double base() const { return base_; }
  [[nodiscard]] std::size_t num_trees() const { return trees_.size(); }
  [[nodiscard]] std::span<const Tree> trees() const { return trees_; }
  [[nodiscard]] std::span<const SplitNode> splits() const { return splits_; }
  [[nodiscard]] std::span<const double> leaves() const { return leaves_; }
  /// Split plus leaf count over all trees.
  [[nodiscard]] std::size_t num_nodes() const {
    return splits_.size() + leaves_.size();
  }

  void save(util::BinaryWriter& writer) const;
  static CompiledForest load(util::BinaryReader& reader);

  /// High 32 bits of the archive's format word; the low 32 are the version.
  static constexpr std::uint64_t kArchiveMagic = 0x46525354'00000000ULL;
  static constexpr std::uint32_t kArchiveVersion = 1;

 private:
  /// kLanes consecutive trees walked in lockstep; lanes past the last tree
  /// start on leaf 0 and are never summed.
  struct Group {
    std::array<std::int32_t, kLanes> roots{};
    std::uint32_t depth = 0;  ///< max depth over the group's trees.
  };

  void walk_group(const Group& group, const double* row,
                  double* leaves) const;
  [[nodiscard]] std::size_t lanes_in_group(std::size_t g) const {
    return std::min(kLanes, trees_.size() - g * kLanes);
  }
  void rebuild_groups();

  std::size_t num_inputs_ = 0;
  double base_ = 0.0;
  std::vector<SplitNode> splits_;
  std::vector<double> leaves_;
  std::vector<Tree> trees_;
  /// First split and leaf id of every tree, plus one past the end.
  std::vector<std::size_t> split_begin_{0};
  std::vector<std::size_t> leaf_begin_{0};
  std::vector<Group> groups_;
};

}  // namespace f2pm::ml
