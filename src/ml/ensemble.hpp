// Bootstrap-aggregated REP-Trees ("bagging"). Not one of the paper's six
// methods — §III-D explicitly allows the user to extend the set, and a
// bagged tree is the natural upgrade over a single REP-Tree: it keeps the
// fast training while cutting the variance that makes single trees noisy
// on small campaigns. Used by the learning-curve ablation.
#pragma once

#include <memory>
#include <vector>

#include "ml/model.hpp"
#include "ml/reptree.hpp"

namespace f2pm::ml {

/// Bagging hyperparameters.
struct BaggedTreesOptions {
  std::size_t num_trees = 10;
  /// Bootstrap sample size as a fraction of the training set.
  double sample_fraction = 1.0;
  RepTreeOptions tree;  ///< Base-learner configuration.
  std::uint64_t seed = 1;
  /// Worker threads for fitting member trees: 0 = use the global pool,
  /// 1 = fit serially on the calling thread. Per-tree bootstrap and
  /// grow/prune seeds are pre-drawn from `seed`, so the fitted ensemble is
  /// bitwise identical at any worker count.
  std::size_t fit_workers = 0;
};

/// Averaged ensemble of REP-Trees over bootstrap resamples.
class BaggedTrees final : public Regressor {
 public:
  explicit BaggedTrees(BaggedTreesOptions options = {});

  void fit(const linalg::Matrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict_row(std::span<const double> row) const override;
  /// Batched prediction: the forest's lockstep kernel sums the members in
  /// tree order, so it matches predict_row per row exactly.
  [[nodiscard]] std::vector<double> predict(
      const linalg::Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "bagging"; }
  [[nodiscard]] bool is_fitted() const override {
    return forest_.num_trees() > 0;
  }
  [[nodiscard]] std::size_t num_inputs() const override {
    return forest_.num_inputs();
  }
  void save(util::BinaryWriter& writer) const override;
  static std::unique_ptr<BaggedTrees> load(util::BinaryReader& reader);

  [[nodiscard]] const BaggedTreesOptions& options() const { return options_; }
  [[nodiscard]] std::size_t num_trees() const { return forest_.num_trees(); }
  /// The member trees as one forest (base +0.0: a prediction is the
  /// members' sum in tree order divided by num_trees()).
  [[nodiscard]] const CompiledForest& forest() const { return forest_; }

  /// Ensemble prediction with spread: the mean and standard deviation of
  /// the member trees' predictions. The spread is a cheap epistemic-
  /// uncertainty proxy — a rejuvenation policy can act earlier when the
  /// ensemble disagrees (predicted RTTF minus a multiple of the spread).
  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };
  [[nodiscard]] Prediction predict_with_uncertainty(
      std::span<const double> row) const;

 private:
  BaggedTreesOptions options_;
  CompiledForest forest_;
};

}  // namespace f2pm::ml
