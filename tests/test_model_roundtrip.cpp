// Property-based save/load round-trip over every model in the registry:
// for each seed, every model is constructed with randomly drawn
// hyperparameters, fitted on random data, serialized, reloaded, and must
// produce BIT-IDENTICAL batched predictions. Exact equality (not
// EXPECT_NEAR) is the property the ModelStore hot-swap relies on — a
// reloaded model is the same function, not an approximation of it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/aggregation.hpp"
#include "linalg/matrix.hpp"
#include "ml/forest.hpp"
#include "ml/model.hpp"
#include "ml/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/model_store.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace f2pm::ml {
namespace {

constexpr std::size_t kRows = 60;
constexpr std::size_t kCols = 4;
constexpr std::size_t kProbeRows = 32;

std::string fmt(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string fmt(std::int64_t value) { return std::to_string(value); }

const char* pick_split_mode(util::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return "presort";
    case 1: return "naive";
    default: return "histogram";
  }
}

const char* pick_kernel(util::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return "rbf";
    case 1: return "linear";
    default: return "poly";
  }
}

/// Draws a random-but-sane hyperparameter set for `name`. Every key the
/// registry consults for that model gets a value, so the round-trip
/// property is exercised across the whole configuration space, not just
/// the defaults.
util::Config random_config(const std::string& name, util::Rng& rng) {
  util::Config params;
  if (name == "ridge") {
    params.set("ridge.lambda", fmt(rng.uniform(1e-4, 10.0)));
  } else if (name == "lasso") {
    params.set("lasso.lambda", fmt(rng.uniform(1e-4, 5.0)));
    params.set("lasso.max_iterations", fmt(rng.uniform_int(200, 2000)));
    params.set("lasso.tolerance", fmt(rng.uniform(1e-9, 1e-6)));
  } else if (name == "reptree") {
    params.set("reptree.min_instances", fmt(rng.uniform_int(1, 8)));
    params.set("reptree.max_depth", fmt(rng.uniform_int(0, 6)));
    params.set("reptree.num_folds", fmt(rng.uniform_int(2, 4)));
    params.set("reptree.prune", rng.bernoulli(0.5) ? "true" : "false");
    params.set("reptree.seed", fmt(rng.uniform_int(1, 1 << 20)));
    params.set("reptree.split_mode", pick_split_mode(rng));
    params.set("reptree.histogram_bins", fmt(rng.uniform_int(8, 64)));
  } else if (name == "m5p") {
    params.set("m5p.min_instances", fmt(rng.uniform_int(2, 10)));
    params.set("m5p.prune", rng.bernoulli(0.5) ? "true" : "false");
    params.set("m5p.smoothing", rng.bernoulli(0.5) ? "true" : "false");
    params.set("m5p.smoothing_k", fmt(rng.uniform(1.0, 30.0)));
    params.set("m5p.split_mode", pick_split_mode(rng));
    params.set("m5p.histogram_bins", fmt(rng.uniform_int(8, 64)));
  } else if (name == "svm") {
    params.set("svm.kernel", pick_kernel(rng));
    params.set("svm.gamma", fmt(rng.uniform(1e-3, 1.0)));
    params.set("svm.coef0", fmt(rng.uniform(0.0, 2.0)));
    params.set("svm.degree", fmt(rng.uniform_int(2, 3)));
    params.set("svm.c", fmt(rng.uniform(0.1, 10.0)));
    params.set("svm.epsilon", fmt(rng.uniform(1e-3, 0.1)));
    params.set("svm.shrinking", rng.bernoulli(0.5) ? "true" : "false");
  } else if (name == "svm2") {
    params.set("svm2.kernel", pick_kernel(rng));
    params.set("svm2.gamma", fmt(rng.uniform(0.1, 10.0)));
    params.set("svm2.coef0", fmt(rng.uniform(0.0, 2.0)));
    params.set("svm2.degree", fmt(rng.uniform_int(2, 3)));
  } else if (name == "knn") {
    params.set("knn.k", fmt(rng.uniform_int(1, 10)));
    params.set("knn.distance_weighted", rng.bernoulli(0.5) ? "true" : "false");
  } else if (name == "bagging") {
    params.set("bagging.num_trees", fmt(rng.uniform_int(2, 8)));
    params.set("bagging.sample_fraction", fmt(rng.uniform(0.5, 1.0)));
    params.set("bagging.seed", fmt(rng.uniform_int(1, 1 << 20)));
    params.set("bagging.split_mode", pick_split_mode(rng));
    params.set("bagging.histogram_bins", fmt(rng.uniform_int(8, 64)));
  } else if (name == "gbdt") {
    params.set("gbdt.n_rounds", fmt(rng.uniform_int(1, 12)));
    params.set("gbdt.learning_rate", fmt(rng.uniform(0.05, 1.0)));
    params.set("gbdt.max_depth", fmt(rng.uniform_int(0, 5)));
    params.set("gbdt.max_leaves",
               rng.bernoulli(0.3) ? "0" : fmt(rng.uniform_int(4, 16)));
    params.set("gbdt.min_instances", fmt(rng.uniform_int(1, 6)));
    params.set("gbdt.row_subsample", fmt(rng.uniform(0.5, 1.0)));
    params.set("gbdt.feature_subsample", fmt(rng.uniform(0.5, 1.0)));
    params.set("gbdt.histogram_bins", fmt(rng.uniform_int(8, 64)));
    params.set("gbdt.bin_mode", rng.bernoulli(0.5) ? "quantile" : "width");
    params.set("gbdt.base_score", rng.bernoulli(0.5) ? "mean" : "zero");
    params.set("gbdt.seed", fmt(rng.uniform_int(1, 1 << 20)));
    if (rng.bernoulli(0.4)) {
      params.set("gbdt.early_stopping_rounds", fmt(rng.uniform_int(1, 4)));
      params.set("gbdt.validation_fraction", fmt(rng.uniform(0.1, 0.3)));
    }
  } else if (name == "cascade") {
    params.set("cascade.horizon_seconds", fmt(rng.uniform(5.0, 80.0)));
    params.set("cascade.band_quantile", fmt(rng.uniform(0.0, 1.0)));
    if (rng.bernoulli(0.5)) {
      params.set("cascade.screen_lasso_lambda", fmt(rng.uniform(0.01, 100.0)));
    }
    params.set("cascade.screen", rng.bernoulli(0.5) ? "linear" : "reptree");
    params.set("cascade.screen.reptree.max_depth", "2");
    switch (rng.uniform_int(0, 2)) {
      case 0: params.set("cascade.full", "reptree"); break;
      case 1: params.set("cascade.full", "m5p"); break;
      default:
        params.set("cascade.full", "gbdt");
        params.set("cascade.full.gbdt.n_rounds", "4");
        params.set("cascade.full.gbdt.max_leaves", "6");
        break;
    }
  }
  // "linear" has no hyperparameters; an empty config is its whole space.
  return params;
}

linalg::Matrix random_design(util::Rng& rng, std::size_t rows) {
  linalg::Matrix x(rows, kCols);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = rng.uniform(-2.0, 2.0);
    x(r, 1) = rng.uniform(0.0, 10.0);
    x(r, 2) = rng.uniform(-1.0, 1.0);
    x(r, 3) = rng.uniform(50.0, 150.0);
  }
  return x;
}

std::vector<double> random_targets(const linalg::Matrix& x, util::Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = 40.0 + 3.0 * x(r, 0) + 0.2 * x(r, 1) * x(r, 1) - 0.1 * x(r, 3) +
           rng.normal(0.0, 0.5);
  }
  return y;
}

class ModelRoundTripProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelRoundTripProperty, ReloadedModelIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  for (const std::string& name : all_model_names()) {
    SCOPED_TRACE("model " + name + " seed " + std::to_string(seed));
    util::Rng rng(seed * 1000003 + std::hash<std::string>{}(name));
    const util::Config params = random_config(name, rng);

    const linalg::Matrix x = random_design(rng, kRows);
    const std::vector<double> y = random_targets(x, rng);
    const auto model = make_model(name, params);
    model->fit(x, y);

    std::stringstream buffer;
    save_model(*model, buffer);
    const auto loaded = load_model(buffer);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), name);
    EXPECT_TRUE(loaded->is_fitted());
    EXPECT_EQ(loaded->num_inputs(), kCols);

    // Batched predictions on unseen rows must match bit for bit: compare
    // the IEEE-754 payloads, not a tolerance.
    const linalg::Matrix probes = random_design(rng, kProbeRows);
    const std::vector<double> expected = model->predict(probes);
    const std::vector<double> actual = loaded->predict(probes);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "probe " << i << ": " << actual[i] << " vs " << expected[i];
    }

    // The property must also hold through a second generation: a model
    // saved from a loaded model is the same archive semantics.
    std::stringstream second;
    save_model(*loaded, second);
    const auto twice = load_model(second);
    const std::vector<double> again = twice->predict(probes);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(again[i]),
                std::bit_cast<std::uint64_t>(expected[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Hand-crafted tree archives ----------------------------------------------

/// The fields of a forest archive (format version 1), written in order
/// after the model tag. Links are tree-local: j >= 0 names split j of the
/// same tree, ~i names leaf i.
struct ForestArchive {
  std::uint64_t format =
      CompiledForest::kArchiveMagic | CompiledForest::kArchiveVersion;
  std::uint64_t num_inputs = 2;
  double base = 0.0;
  std::vector<std::uint64_t> split_counts{2};
  std::vector<std::uint64_t> leaf_counts{3};
  std::vector<std::uint64_t> features{0, 1};
  std::vector<double> thresholds{0.5, 1.0};
  // split 0: x0 <= 0.5 ? split 1 : leaf 2; split 1: x1 <= 1 ? leaf 0 : leaf 1.
  std::vector<std::int64_t> lefts{1, ~0};
  std::vector<std::int64_t> rights{~2, ~1};
  std::vector<double> leaves{10.0, 20.0, 30.0};

  [[nodiscard]] std::string encode(const std::string& tag) const {
    std::ostringstream out;
    util::BinaryWriter writer(out);
    writer.write_string(tag);
    writer.write_u64(format);
    writer.write_u64(num_inputs);
    writer.write_double(base);
    writer.write_u64s(split_counts);
    writer.write_u64s(leaf_counts);
    writer.write_u64s(features);
    writer.write_doubles(thresholds);
    writer.write_u64s({lefts.begin(), lefts.end()});
    writer.write_u64s({rights.begin(), rights.end()});
    writer.write_doubles(leaves);
    return out.str();
  }
};

std::unique_ptr<Regressor> load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_model(in);
}

const char* const kTreeTags[] = {"reptree", "bagging", "gbdt"};

TEST(ForestArchive, WellFormedArchiveLoadsForEveryTreeModel) {
  const ForestArchive archive;
  for (const char* tag : kTreeTags) {
    SCOPED_TRACE(tag);
    const auto model = load_bytes(archive.encode(tag));
    EXPECT_EQ(model->name(), tag);
    EXPECT_EQ(model->num_inputs(), 2u);
    EXPECT_EQ(model->predict_row(std::vector<double>{0.0, 0.0}), 10.0);
    EXPECT_EQ(model->predict_row(std::vector<double>{0.5, 2.0}), 20.0);
    EXPECT_EQ(model->predict_row(std::vector<double>{0.7, 0.0}), 30.0);
  }
}

/// Broken variants of the well-formed archive, each of which the codec
/// must reject before any prediction can read past a row or loop forever.
std::vector<std::pair<std::string, ForestArchive>> broken_archives() {
  std::vector<std::pair<std::string, ForestArchive>> cases;
  const auto add = [&cases](const std::string& what,
                            const std::function<void(ForestArchive&)>& edit) {
    ForestArchive archive;
    edit(archive);
    cases.emplace_back(what, archive);
  };
  add("self-loop", [](ForestArchive& a) { a.lefts[0] = 0; });
  add("back edge", [](ForestArchive& a) { a.lefts[1] = 0; });
  add("link past the tree", [](ForestArchive& a) { a.lefts[0] = 2; });
  add("shared child", [](ForestArchive& a) { a.rights[0] = ~0; });
  add("leaf out of range", [](ForestArchive& a) { a.rights[0] = ~3; });
  add("out-of-range feature", [](ForestArchive& a) { a.features[1] = 2; });
  add("leaf/split mismatch", [](ForestArchive& a) {
    a.leaf_counts = {2};
    a.leaves = {10.0, 20.0};
  });
  add("array length mismatch", [](ForestArchive& a) { a.thresholds = {0.5}; });
  add("32-bit overflow", [](ForestArchive& a) {
    a.split_counts = {std::uint64_t{1} << 31};
    a.leaf_counts = {(std::uint64_t{1} << 31) + 1};
  });
  add("unknown version", [](ForestArchive& a) { a.format += 1; });
  add("not a forest", [](ForestArchive& a) { a.format = 2; });
  add("no trees", [](ForestArchive& a) {
    a.split_counts.clear();
    a.leaf_counts.clear();
  });
  return cases;
}

TEST(ForestArchive, CorruptArchivesAreRejected) {
  for (const auto& [what, archive] : broken_archives()) {
    for (const char* tag : kTreeTags) {
      SCOPED_TRACE(what + " as " + tag);
      EXPECT_THROW(load_bytes(archive.encode(tag)), std::runtime_error);
    }
  }
}

TEST(ForestArchive, TruncatedBodyIsRejected) {
  for (const char* tag : kTreeTags) {
    const std::string bytes = ForestArchive{}.encode(tag);
    for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                  bytes.size() - 8 * 3 - 8}) {
      SCOPED_TRACE(std::string(tag) + " cut at " + std::to_string(cut));
      EXPECT_THROW(load_bytes(bytes.substr(0, cut)), std::runtime_error);
    }
  }
}

TEST(ForestArchive, ModelStoreKeepsOldVersionOnCyclicArchive) {
  // A hot swap to a cyclic tree must fail at load, never reach a scoring
  // thread: the store keeps its model and counts the failure.
  const auto failures = [] {
    const auto snap =
        obs::Registry::global().find("f2pm_serve_swap_failures_total");
    return snap ? static_cast<std::uint64_t>(snap->value) : 0u;
  };
  linalg::Matrix x(40, data::kInputCount);
  std::vector<double> y(40);
  util::Rng rng(5);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.uniform(0, 1);
    y[r] = 100.0 * x(r, 0);
  }
  std::shared_ptr<Regressor> good = make_model("gbdt");
  good->fit(x, y);
  serve::ModelStore store;
  store.swap(good);
  ASSERT_EQ(store.version(), 1u);
  const auto live = store.current();

  ForestArchive cyclic;
  cyclic.num_inputs = data::kInputCount;
  cyclic.lefts[1] = 0;  // split 1 -> split 0 -> split 1 -> ...
  const std::string path = testing::TempDir() + "/cyclic_forest.bin";
  {
    const std::string bytes = cyclic.encode("gbdt");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::uint64_t before = failures();
  EXPECT_THROW(store.load_file(path), std::runtime_error);
  EXPECT_EQ(failures(), before + 1);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.current(), live);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace f2pm::ml
