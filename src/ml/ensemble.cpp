#include "ml/ensemble.hpp"


#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {

BaggedTrees::BaggedTrees(BaggedTreesOptions options)
    : options_(options) {
  if (options_.num_trees == 0) {
    throw std::invalid_argument("BaggedTrees: num_trees must be > 0");
  }
  if (!(options_.sample_fraction > 0.0) || options_.sample_fraction > 1.0) {
    throw std::invalid_argument(
        "BaggedTrees: sample_fraction must be in (0, 1]");
  }
}

void BaggedTrees::fit(const linalg::Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  forest_ = CompiledForest();
  const std::size_t n = x.rows();
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) *
                                  options_.sample_fraction));

  // Pre-draw every tree's bootstrap seed and grow/prune seed from the
  // master stream. Each fit task then owns an independent Rng, so the
  // fitted ensemble is bitwise identical no matter how many workers fit
  // it (and no matter the interleaving of their draws).
  util::Rng rng(options_.seed);
  std::vector<std::uint64_t> boot_seeds(options_.num_trees);
  std::vector<std::uint64_t> tree_seeds(options_.num_trees);
  for (std::size_t t = 0; t < options_.num_trees; ++t) {
    boot_seeds[t] = rng();
    tree_seeds[t] = rng();
  }

  std::vector<std::unique_ptr<RepTree>> trees(options_.num_trees);
  const auto fit_one = [&](std::size_t t) {
    util::Rng boot_rng(boot_seeds[t]);
    std::vector<std::size_t> rows(sample_size);
    for (auto& row : rows) {
      row = static_cast<std::size_t>(
          boot_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    const linalg::Matrix x_boot = x.select_rows(rows);
    std::vector<double> y_boot(sample_size);
    for (std::size_t i = 0; i < sample_size; ++i) y_boot[i] = y[rows[i]];

    RepTreeOptions tree_options = options_.tree;
    tree_options.seed = tree_seeds[t];  // independent shuffles per tree
    auto tree = std::make_unique<RepTree>(tree_options);
    tree->fit(x_boot, y_boot);
    trees[t] = std::move(tree);
  };

  if (options_.fit_workers == 1) {
    for (std::size_t t = 0; t < options_.num_trees; ++t) fit_one(t);
  } else if (options_.fit_workers == 0) {
    parallel::parallel_for(0, options_.num_trees, fit_one);
  } else {
    parallel::ThreadPool pool(options_.fit_workers);
    parallel::parallel_for(pool, 0, options_.num_trees, fit_one);
  }
  CompiledForest forest(x.cols(), 0.0);
  for (const auto& tree : trees) forest.append(tree->forest());
  forest_ = std::move(forest);
}

double BaggedTrees::predict_row(std::span<const double> row) const {
  check_predict_args(row);
  return forest_.predict_row(row.data()) /
         static_cast<double>(forest_.num_trees());
}

std::vector<double> BaggedTrees::predict(const linalg::Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("Regressor: predict before fit");
  if (x.cols() != num_inputs()) {
    throw std::invalid_argument("Regressor: input width mismatch");
  }
  std::vector<double> sums(x.rows());
  forest_.predict(x, sums);
  const auto count = static_cast<double>(forest_.num_trees());
  for (auto& value : sums) value /= count;
  return sums;
}

BaggedTrees::Prediction BaggedTrees::predict_with_uncertainty(
    std::span<const double> row) const {
  check_predict_args(row);
  double sum = 0.0;
  double sum_sq = 0.0;
  forest_.for_each_leaf(row.data(), [&](double value) {
    sum += value;
    sum_sq += value * value;
  });
  const auto n = static_cast<double>(forest_.num_trees());
  Prediction prediction;
  prediction.mean = sum / n;
  const double variance = sum_sq / n - prediction.mean * prediction.mean;
  prediction.stddev = variance > 0.0 ? std::sqrt(variance) : 0.0;
  return prediction;
}

void BaggedTrees::save(util::BinaryWriter& writer) const {
  if (!is_fitted()) throw std::logic_error("BaggedTrees::save before fit");
  forest_.save(writer);
}

std::unique_ptr<BaggedTrees> BaggedTrees::load(util::BinaryReader& reader) {
  auto model = std::make_unique<BaggedTrees>();
  model->forest_ = CompiledForest::load(reader);
  return model;
}

}  // namespace f2pm::ml
