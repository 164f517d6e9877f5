// REP-Tree (paper §III-D): a fast regression tree grown with variance
// reduction and pruned with Reduced-Error Pruning against a held-out prune
// split, with backfitting of leaf values.
//
// Following the WEKA learner the paper used, the training data is split
// internally into a grow set and a prune set (1/numFolds of the data,
// default 3 folds -> one third for pruning). The tree is grown greedily on
// the grow set, then every internal node whose subtree does not beat the
// node-as-leaf squared error on the prune set is collapsed. Finally leaf
// predictions are backfitted: re-estimated from grow + prune rows together.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/forest.hpp"
#include "ml/model.hpp"
#include "ml/tree_common.hpp"

namespace f2pm::ml {

/// REP-Tree hyperparameters (WEKA defaults where applicable).
struct RepTreeOptions {
  std::size_t min_instances_per_leaf = 2;  ///< WEKA -M 2.
  std::size_t max_depth = 0;               ///< 0 = unlimited (WEKA -L -1).
  std::size_t num_folds = 3;               ///< 1/num_folds held out to prune.
  bool prune = true;                       ///< Disable for a fully grown tree.
  /// Minimum proportion of the root variance a node must retain to be
  /// split further (WEKA's minVarianceProp, default 1e-3).
  double min_variance_proportion = 1e-3;
  std::uint64_t seed = 1;                  ///< Grow/prune shuffle seed.
  /// Split-search engine. kPresort (default) grows node-for-node identical
  /// trees to kNaive at a fraction of the cost; kHistogram trades exact
  /// thresholds for O(bins) split scans on large n.
  SplitMode split_mode = SplitMode::kPresort;
  std::size_t histogram_bins = 64;  ///< Bins per feature (kHistogram).
};

/// Regression REP-Tree.
class RepTree final : public Regressor {
 public:
  explicit RepTree(RepTreeOptions options = {});

  void fit(const linalg::Matrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict_row(std::span<const double> row) const override;
  /// Batched prediction through the compiled forest's lockstep kernel
  /// (exactly matches predict_row per row).
  [[nodiscard]] std::vector<double> predict(
      const linalg::Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "reptree"; }
  [[nodiscard]] bool is_fitted() const override { return fitted_; }
  [[nodiscard]] std::size_t num_inputs() const override {
    return forest_.num_inputs();
  }
  void save(util::BinaryWriter& writer) const override;
  static std::unique_ptr<RepTree> load(util::BinaryReader& reader);

  [[nodiscard]] const RepTreeOptions& options() const { return options_; }

  /// Diagnostics: node/leaf counts and depth of the fitted tree.
  [[nodiscard]] std::size_t num_nodes() const { return forest_.num_nodes(); }
  [[nodiscard]] std::size_t num_leaves() const {
    return forest_.leaves().size();
  }
  [[nodiscard]] std::size_t depth() const {
    return forest_.num_trees() == 0 ? 0 : forest_.trees()[0].depth;
  }
  /// The fitted tree as a one-tree forest (base -0.0, the additive
  /// identity, so a prediction is the leaf value bit for bit).
  [[nodiscard]] const CompiledForest& forest() const { return forest_; }

  /// Split-gain feature importances: for each input column, the total
  /// training-SSE reduction attributed to splits on it in the final
  /// (pruned) tree, normalized to sum to 1 (all-zero when the tree is a
  /// single leaf). An independent, model-based counterpart to the Lasso
  /// feature selection of §III-C.
  [[nodiscard]] const std::vector<double>& feature_importances() const {
    return importances_;
  }

 private:
  using BuildNode = CompiledForest::BuildNode;

  /// Grows the tree from the engine's root node with an explicit work
  /// stack (preorder node ids, no call-stack recursion) and returns the
  /// root id.
  std::size_t build(TreeGrowthEngine& engine, double root_variance,
                    std::vector<BuildNode>& nodes) const;
  /// Returns the prune-set SSE of the subtree; collapses nodes where the
  /// node-as-leaf SSE is no worse. Explicit-stack post-order traversal.
  static double prune_subtree(std::vector<BuildNode>& nodes,
                              std::size_t node_id, const linalg::Matrix& x,
                              std::span<const double> y,
                              const std::vector<std::size_t>& prune_rows);
  /// One post-order walk of the final tree with the full training data
  /// that both backfits node values (WEKA's re-estimation from grow +
  /// prune rows; skipped when `update_values` is false) and accumulates
  /// the per-feature SSE reductions into importances_ — the two passes
  /// partition the same rows down the same tree, so they are fused.
  void backfit_and_importances(std::vector<BuildNode>& nodes,
                               std::size_t node_id, const linalg::Matrix& x,
                               std::span<const double> y,
                               const std::vector<std::size_t>& rows,
                               bool update_values);

  RepTreeOptions options_;
  CompiledForest forest_;
  std::vector<double> importances_;
  bool fitted_ = false;
};

}  // namespace f2pm::ml
