// Gradient-boosted regression trees on the histogram TreeGrowthEngine
// (registry name "gbdt"): leaf-wise (best-first) growth with depth/leaf
// caps, shrinkage, row/feature subsampling, and early stopping on a
// held-out slice. The ensemble substrate the paper stops short of —
// Hutter et al.'s runtime-prediction survey found boosted trees dominate
// exactly this kind of tabular regression.
//
// Determinism contract (matches BaggedTrees): every per-round random
// decision (row sample, feature sample, holdout split) is drawn from
// seeds pre-drawn off one master RNG before any tree is fit, sampled row
// sets are kept in ascending row order, and the histogram split scans
// reduce in feature order — so a fit is bitwise identical at any
// thread-pool worker count. A 1-round fit with shrinkage 1.0, no
// subsampling, fixed-width bins and a zero base score predicts
// bit-identically to a single unpruned histogram-mode REPTree with the
// same caps (test_gbdt.cpp holds this equivalence under randomized data).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/model.hpp"
#include "ml/tree_common.hpp"

namespace f2pm::ml {

struct GbdtOptions {
  std::size_t n_rounds = 100;       ///< Boosting rounds (trees).
  double learning_rate = 0.1;       ///< Shrinkage on every leaf value.
  std::size_t max_depth = 6;        ///< 0 = unlimited.
  std::size_t max_leaves = 31;      ///< 0 = unlimited.
  std::size_t min_instances_per_leaf = 5;
  double row_subsample = 1.0;       ///< Fraction of rows per tree, (0, 1].
  double feature_subsample = 1.0;   ///< Fraction of features per tree, (0, 1].
  std::size_t histogram_bins = 64;
  BinningMode bin_mode = BinningMode::kQuantile;
  /// Consult the process-wide binning cache keyed on matrix content, so
  /// repeated fits on the same fold (e.g. a grid search sweeping shrinkage)
  /// bin once instead of once per grid point.
  bool reuse_bins = true;
  /// Initial prediction: mean of the training targets (default) or zero
  /// (the REPTree-equivalence configuration).
  enum class BaseScore { kMean, kZero };
  BaseScore base_score = BaseScore::kMean;
  /// Stop when the held-out MSE has not improved for this many rounds and
  /// truncate to the best round; 0 disables (no holdout is carved off).
  std::size_t early_stopping_rounds = 0;
  double validation_fraction = 0.15;  ///< Holdout share for early stopping.
  std::uint64_t seed = 1;
  /// Worker threads for the per-round prediction update and batched
  /// predict: 0 = global pool, 1 = serial, n = private pool of n (the
  /// worker-invariance suite fits at {1, 2, 8}).
  std::size_t fit_workers = 0;
};

/// Counters for the shared binning cache (see GbdtRegressor::fit):
/// `computed` counts actual binning computations, `hits` counts fits that
/// reused a cached binning. Process-wide and cumulative.
struct BinningCacheStats {
  std::uint64_t computed = 0;
  std::uint64_t hits = 0;
};

class GbdtRegressor : public Regressor {
 public:
  GbdtRegressor() : GbdtRegressor(GbdtOptions{}) {}
  explicit GbdtRegressor(GbdtOptions options);

  void fit(const linalg::Matrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict_row(std::span<const double> row) const override;
  [[nodiscard]] std::vector<double> predict(
      const linalg::Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "gbdt"; }
  [[nodiscard]] bool is_fitted() const override { return fitted_; }
  [[nodiscard]] std::size_t num_inputs() const override {
    return forest_.num_inputs();
  }
  void save(util::BinaryWriter& writer) const override;
  static std::unique_ptr<GbdtRegressor> load(util::BinaryReader& reader);

  [[nodiscard]] const GbdtOptions& options() const { return options_; }
  /// Trees kept after early-stopping truncation.
  [[nodiscard]] std::size_t num_trees() const { return forest_.num_trees(); }
  /// The boosted trees, compiled; the forest's base is base_score().
  [[nodiscard]] const CompiledForest& forest() const { return forest_; }
  [[nodiscard]] double base_score() const { return forest_.base(); }
  /// Training MSE after each fitted round (recorded before any
  /// early-stopping truncation, so its length can exceed num_trees()).
  [[nodiscard]] const std::vector<double>& loss_history() const {
    return loss_history_;
  }

  /// Snapshot of the process-wide binning cache counters (regression test
  /// for "bin once per fold, not once per grid point").
  static BinningCacheStats binning_cache_stats();

 private:
  /// Grows one round's tree; leaf values carry the shrinkage already.
  [[nodiscard]] std::vector<CompiledForest::BuildNode> grow_tree(
      TreeGrowthEngine& engine) const;

  GbdtOptions options_;
  CompiledForest forest_;
  std::vector<double> loss_history_;
  bool fitted_ = false;
};

}  // namespace f2pm::ml
