// Bit-exactness battery for the compiled forest: every tree learner that
// lowers to ml::CompiledForest (REP-Tree in every split mode, pruned and
// unpruned; bagging; GBDT with subsampling and with early stopping) must
// predict exactly what a plain pointer-walk over the same trees predicts —
// predict_row (lockstep across trees), batched predict (lockstep across
// rows) and predict_with_uncertainty, compared as IEEE-754 payloads. The
// probe rows include NaN, ±inf, −0.0 and values exactly on thresholds.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/ensemble.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/reptree.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {
namespace {

constexpr std::size_t kCols = 5;

/// A pointer-linked copy of one compiled tree: the reference walk follows
/// heap pointers, sharing no code with the forest's kernels.
struct RefNode {
  std::uint32_t feature = 0;
  double threshold = 0.0;
  double value = 0.0;
  std::unique_ptr<RefNode> left;
  std::unique_ptr<RefNode> right;
};

std::unique_ptr<RefNode> materialize(const CompiledForest& forest,
                                     std::int32_t link) {
  auto node = std::make_unique<RefNode>();
  if (link < 0) {
    node->value = forest.leaves()[static_cast<std::size_t>(~link)];
    return node;
  }
  const CompiledForest::SplitNode& split =
      forest.splits()[static_cast<std::size_t>(link)];
  node->feature = split.feature;
  node->threshold = split.threshold;
  node->left = materialize(forest, split.child[0]);
  node->right = materialize(forest, split.child[1]);
  return node;
}

struct Reference {
  double base = 0.0;
  std::vector<std::unique_ptr<RefNode>> roots;

  explicit Reference(const CompiledForest& forest) : base(forest.base()) {
    for (const CompiledForest::Tree& tree : forest.trees()) {
      roots.push_back(materialize(forest, tree.root));
    }
  }

  static double leaf(const RefNode* node, std::span<const double> row) {
    while (node->left) {
      node = row[node->feature] <= node->threshold ? node->left.get()
                                                   : node->right.get();
    }
    return node->value;
  }

  /// base + leaf_0 + leaf_1 + ... in tree order.
  [[nodiscard]] double sum(std::span<const double> row) const {
    double acc = base;
    for (const auto& root : roots) acc += leaf(root.get(), row);
    return acc;
  }

  static std::size_t depth(const RefNode* node) {
    if (!node->left) return 0;
    return 1 + std::max(depth(node->left.get()), depth(node->right.get()));
  }
};

void expect_bits(double actual, double expected, std::size_t row) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << "row " << row << ": " << actual << " vs " << expected;
}

/// Training data with ties (column 3 is integer-valued) and exact zeros.
void make_data(std::size_t n, util::Rng& rng, linalg::Matrix& x,
               std::vector<double>& y) {
  x = linalg::Matrix(n, kCols);
  y.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = rng.uniform(-2.0, 2.0);
    x(r, 1) = rng.uniform(0.0, 10.0);
    x(r, 2) = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-1.0, 1.0);
    x(r, 3) = static_cast<double>(rng.uniform_int(0, 6));
    x(r, 4) = rng.uniform(50.0, 150.0);
    y[r] = 40.0 + 3.0 * x(r, 0) + 0.2 * x(r, 1) * x(r, 1) -
           (x(r, 2) > 0.0 ? 5.0 : 0.0) + 2.0 * x(r, 3) + rng.normal(0.0, 0.5);
  }
}

/// Probe rows: fresh random rows; rows with NaN, +inf, -inf and -0.0 in
/// each column; and, for every split, a row whose split feature equals the
/// threshold exactly. More than one 256-row block and not a multiple of
/// the lane count, so the batched kernel's block and tail paths both run.
linalg::Matrix probes(const CompiledForest& forest, util::Rng& rng) {
  linalg::Matrix random_rows;
  std::vector<double> unused;
  make_data(271, rng, random_rows, unused);
  std::vector<std::vector<double>> rows;
  for (std::size_t r = 0; r < random_rows.rows(); ++r) {
    const auto row = random_rows.row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (const double special : specials) {
    for (std::size_t c = 0; c < kCols; ++c) {
      std::vector<double> row = rows[c];
      row[c] = special;
      rows.push_back(row);
    }
    rows.push_back(std::vector<double>(kCols, special));
  }
  for (std::size_t s = 0; s < forest.splits().size(); ++s) {
    const CompiledForest::SplitNode& split = forest.splits()[s];
    std::vector<double> row = rows[s % 64];
    row[split.feature] = split.threshold;
    rows.push_back(row);
  }
  linalg::Matrix x(rows.size(), kCols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < kCols; ++c) x(r, c) = rows[r][c];
  }
  return x;
}

/// predict_row and batched predict against the reference, with the
/// learner's final scaling (`divisor` 1 for sums, the tree count for
/// bagging's mean). Also checks the per-tree depths.
void check_forest_model(const Regressor& model, const CompiledForest& forest,
                        double divisor, std::uint64_t seed) {
  ASSERT_GT(forest.num_trees(), 0u);
  const Reference reference(forest);
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    EXPECT_EQ(forest.trees()[t].depth,
              Reference::depth(reference.roots[t].get()));
  }
  util::Rng rng(seed);
  const linalg::Matrix x = probes(forest, rng);
  const std::vector<double> batched = model.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double expected = reference.sum(x.row(r)) / divisor;
    expect_bits(model.predict_row(x.row(r)), expected, r);
    expect_bits(batched[r], expected, r);
  }
}

TEST(CompiledForest, RepTreeMatchesPointerWalkInEverySplitMode) {
  for (const SplitMode mode :
       {SplitMode::kNaive, SplitMode::kPresort, SplitMode::kHistogram}) {
    for (const bool prune : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "mode " << static_cast<int>(mode) << " prune " << prune);
      util::Rng rng(2015);
      linalg::Matrix x;
      std::vector<double> y;
      make_data(400, rng, x, y);
      RepTreeOptions options;
      options.split_mode = mode;
      options.prune = prune;
      options.min_instances_per_leaf = 2;
      options.histogram_bins = 16;
      RepTree tree(options);
      tree.fit(x, y);
      const CompiledForest& forest = tree.forest();
      ASSERT_EQ(forest.num_trees(), 1u);
      EXPECT_EQ(tree.depth(), forest.trees()[0].depth);
      EXPECT_EQ(tree.num_leaves(), forest.splits().size() + 1);
      EXPECT_GT(tree.depth(), 2u);
      // A single REP-Tree's prediction is its leaf, not 0.0 + leaf: the
      // base is -0.0, the additive identity.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(forest.base()),
                std::bit_cast<std::uint64_t>(-0.0));
      check_forest_model(tree, forest, 1.0, 7);
    }
  }
}

TEST(CompiledForest, BaggingMatchesPointerWalkIncludingUncertainty) {
  // 11 members: one full lockstep group plus a partial one.
  for (const std::size_t members : {std::size_t{11}, std::size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << members << " members");
    util::Rng rng(17);
    linalg::Matrix x;
    std::vector<double> y;
    make_data(300, rng, x, y);
    BaggedTreesOptions options;
    options.num_trees = members;
    options.tree.split_mode = SplitMode::kPresort;
    options.fit_workers = 1;
    BaggedTrees bagging(options);
    bagging.fit(x, y);
    const CompiledForest& forest = bagging.forest();
    ASSERT_EQ(forest.num_trees(), members);
    const auto count = static_cast<double>(members);
    check_forest_model(bagging, forest, count, 9);

    const Reference reference(forest);
    util::Rng probe_rng(23);
    const linalg::Matrix x_probe = probes(forest, probe_rng);
    for (std::size_t r = 0; r < x_probe.rows(); ++r) {
      double sum = 0.0;
      double sum_sq = 0.0;
      for (const auto& root : reference.roots) {
        const double value = Reference::leaf(root.get(), x_probe.row(r));
        sum += value;
        sum_sq += value * value;
      }
      const double mean = sum / count;
      const double variance = sum_sq / count - mean * mean;
      const auto prediction = bagging.predict_with_uncertainty(x_probe.row(r));
      expect_bits(prediction.mean, mean, r);
      expect_bits(prediction.stddev,
                  variance > 0.0 ? std::sqrt(variance) : 0.0, r);
    }
  }
}

TEST(CompiledForest, GbdtWithSubsamplingMatchesPointerWalk) {
  util::Rng rng(31);
  linalg::Matrix x;
  std::vector<double> y;
  make_data(500, rng, x, y);
  GbdtOptions options;
  options.n_rounds = 37;  // Not a multiple of the lane count.
  options.row_subsample = 0.7;
  options.feature_subsample = 0.6;
  options.max_leaves = 12;
  options.max_depth = 0;  // Unlimited: the trees' depths differ.
  options.fit_workers = 1;
  GbdtRegressor gbdt(options);
  gbdt.fit(x, y);
  ASSERT_EQ(gbdt.num_trees(), 37u);
  check_forest_model(gbdt, gbdt.forest(), 1.0, 11);

  // The fit's per-round residual update walks one tree at a time; its last
  // training MSE must be exactly the served predictions' MSE.
  double sse = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double resid = y[r] - gbdt.predict_row(x.row(r));
    sse += resid * resid;
  }
  expect_bits(sse / static_cast<double>(x.rows()), gbdt.loss_history().back(),
              0);
}

TEST(CompiledForest, GbdtWithEarlyStoppingMatchesPointerWalk) {
  util::Rng rng(41);
  linalg::Matrix x;
  std::vector<double> y;
  make_data(400, rng, x, y);
  GbdtOptions options;
  options.n_rounds = 400;
  options.learning_rate = 0.5;
  options.early_stopping_rounds = 3;
  options.validation_fraction = 0.25;
  options.fit_workers = 1;
  GbdtRegressor gbdt(options);
  gbdt.fit(x, y);
  // Truncated to the best round.
  EXPECT_LT(gbdt.num_trees(), gbdt.loss_history().size());
  EXPECT_EQ(gbdt.forest().num_trees(), gbdt.num_trees());
  check_forest_model(gbdt, gbdt.forest(), 1.0, 13);
}

TEST(CompiledForest, CompilesReachableNodesInPreorder) {
  // Root 0 splits on feature 1; node 2 was pruned back to a leaf, so its
  // children 3 and 4 are unreachable and must not be compiled.
  std::vector<CompiledForest::BuildNode> nodes(5);
  nodes[0] = {1, 0.5, 0.0, 1, 2};
  nodes[1].value = -0.0;
  nodes[2].value = 3.0;
  nodes[3] = {0, 9.0, 0.0, 4, 4};
  nodes[4].value = 99.0;
  CompiledForest forest(2, -0.0);
  forest.add_tree(nodes, 0);
  ASSERT_EQ(forest.splits().size(), 1u);
  ASSERT_EQ(forest.leaves().size(), 2u);
  EXPECT_EQ(forest.trees()[0].root, 0);
  EXPECT_EQ(forest.trees()[0].depth, 1u);
  EXPECT_EQ(forest.splits()[0].child[0], ~0);
  EXPECT_EQ(forest.splits()[0].child[1], ~1);
  const double left[] = {0.0, 0.5};  // On the threshold: goes left.
  const double right[] = {0.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(forest.predict_row(left)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(forest.predict_row(right), 3.0);

  // Appending and truncating keep whole trees, in order.
  CompiledForest more(2, 1.0);
  more.append(forest);
  more.append(forest);
  EXPECT_EQ(more.num_trees(), 2u);
  EXPECT_EQ(more.predict_row(right), 7.0);
  more.truncate(1);
  EXPECT_EQ(more.num_trees(), 1u);
  EXPECT_EQ(more.num_nodes(), 3u);
  EXPECT_EQ(more.predict_row(right), 4.0);
}

}  // namespace
}  // namespace f2pm::ml
