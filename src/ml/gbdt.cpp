#include "ml/gbdt.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {

namespace {

/// Process-wide cache of FeatureBinning instances keyed on matrix content.
/// Binning depends only on (matrix bytes, bins, mode), and k-fold CV
/// rebuilds byte-identical fold matrices for every grid point, so a grid
/// search sweeping shrinkage/rounds bins each fold once instead of once
/// per grid point. Small LRU; concurrent fits of a not-yet-cached key may
/// both compute (correct either way, both count as computed).
class BinningCache {
 public:
  static BinningCache& global() {
    static BinningCache cache;
    return cache;
  }

  std::shared_ptr<const FeatureBinning> get(std::uint64_t key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        Entry hit = entries_[i];
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        entries_.insert(entries_.begin(), hit);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return hit.binning;
      }
    }
    return nullptr;
  }

  void put(std::uint64_t key, std::shared_ptr<const FeatureBinning> binning) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.insert(entries_.begin(), {key, std::move(binning)});
    if (entries_.size() > kCapacity) entries_.resize(kCapacity);
  }

  void count_computed() { computed_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] BinningCacheStats stats() const {
    return {computed_.load(std::memory_order_relaxed),
            hits_.load(std::memory_order_relaxed)};
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const FeatureBinning> binning;
  };
  static constexpr std::size_t kCapacity = 32;

  std::mutex mutex_;
  std::vector<Entry> entries_;  ///< Most recently used first.
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> hits_{0};
};

/// FNV-1a over the matrix bytes plus the binning configuration.
std::uint64_t binning_fingerprint(const linalg::Matrix& x, std::size_t bins,
                                  BinningMode mode) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x00000100000001b3ull;
  };
  mix(x.rows());
  mix(x.cols());
  mix(bins);
  mix(static_cast<std::uint64_t>(mode));
  for (const double v : x.data()) mix(std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Binning over all matrix rows — a superset of any per-round row sample,
/// which compute_feature_binning documents as exact to reuse.
std::shared_ptr<const FeatureBinning> shared_binning(const linalg::Matrix& x,
                                                     std::size_t bins,
                                                     BinningMode mode,
                                                     bool reuse) {
  auto& cache = BinningCache::global();
  std::uint64_t key = 0;
  if (reuse) {
    key = binning_fingerprint(x, bins, mode);
    if (auto cached = cache.get(key)) return cached;
  }
  std::vector<std::size_t> all_rows(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) all_rows[r] = r;
  auto binning = std::make_shared<const FeatureBinning>(
      compute_feature_binning(x, all_rows, bins, mode));
  cache.count_computed();
  if (reuse) cache.put(key, binning);
  return binning;
}

/// Sampled index mask -> ascending selection: the set comes from the
/// permutation, the order never does, so every downstream accumulation
/// streams rows in canonical ascending order (worker- and draw-order
/// invariant, same idiom as RepTree's prune split).
std::vector<std::uint8_t> pick_mask(util::Rng& rng, std::size_t total,
                                    std::size_t take) {
  const auto perm = rng.permutation(total);
  std::vector<std::uint8_t> mask(total, 0);
  for (std::size_t i = 0; i < take; ++i) mask[perm[i]] = 1;
  return mask;
}

std::size_t sample_count(double fraction, std::size_t total) {
  const auto k = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total)));
  return std::clamp<std::size_t>(k, 1, total);
}

}  // namespace

GbdtRegressor::GbdtRegressor(GbdtOptions options) : options_(options) {
  if (options_.n_rounds == 0) {
    throw std::invalid_argument("GbdtRegressor: n_rounds must be > 0");
  }
  if (!(options_.learning_rate > 0.0)) {
    throw std::invalid_argument("GbdtRegressor: learning_rate must be > 0");
  }
  if (options_.min_instances_per_leaf == 0) {
    throw std::invalid_argument(
        "GbdtRegressor: min_instances_per_leaf must be > 0");
  }
  if (!(options_.row_subsample > 0.0) || options_.row_subsample > 1.0 ||
      !(options_.feature_subsample > 0.0) ||
      options_.feature_subsample > 1.0) {
    throw std::invalid_argument(
        "GbdtRegressor: subsample fractions must be in (0, 1]");
  }
  if (options_.histogram_bins < 2) {
    throw std::invalid_argument("GbdtRegressor: histogram_bins must be >= 2");
  }
  if (options_.early_stopping_rounds > 0 &&
      (!(options_.validation_fraction > 0.0) ||
       options_.validation_fraction >= 1.0)) {
    throw std::invalid_argument(
        "GbdtRegressor: validation_fraction must be in (0, 1)");
  }
}

std::vector<CompiledForest::BuildNode> GbdtRegressor::grow_tree(
    TreeGrowthEngine& engine) const {
  // Leaf-wise (best-first) growth: a max-heap of splittable leaves ordered
  // by SSE gain; each step converts the best leaf into an internal node.
  // Per-node best splits are independent of expansion order (each node's
  // segment and histogram are fixed at creation), so with no leaf cap this
  // grows exactly the depth-first tree — the REPTree equivalence relies on
  // that. Ties break on creation order, keeping the fit fully
  // deterministic.
  std::vector<CompiledForest::BuildNode> nodes;
  struct Cand {
    double score = 0.0;
    std::uint64_t seq = 0;
    std::size_t node = 0;
    TreeGrowthEngine::NodeId enode = 0;
    BestSplit split;
    std::size_t depth = 0;
  };
  struct CandLess {
    bool operator()(const Cand& a, const Cand& b) const {
      if (a.score != b.score) return a.score < b.score;
      return a.seq > b.seq;  // earlier-created leaf wins ties
    }
  };
  std::priority_queue<Cand, std::vector<Cand>, CandLess> frontier;
  std::uint64_t seq = 0;
  const double lr = options_.learning_rate;

  const auto add_node = [&](TreeGrowthEngine::NodeId enode) {
    const Moments moments = engine.moments(enode);
    CompiledForest::BuildNode node;
    // Leaf values carry the shrinkage already applied, so prediction is a
    // plain sum and serialization needs no learning-rate replay.
    node.value = lr * moments.mean();
    const std::size_t id = nodes.size();
    nodes.push_back(node);
    return std::pair<std::size_t, Moments>{id, moments};
  };
  const auto consider = [&](std::size_t id, TreeGrowthEngine::NodeId enode,
                            const Moments& moments, std::size_t depth) {
    if (options_.max_depth != 0 && depth >= options_.max_depth) {
      engine.release(enode);
      return;
    }
    const BestSplit split =
        engine.find_best_split(enode, options_.min_instances_per_leaf,
                               SplitCriterion::kVarianceReduction, &moments);
    if (!split.found) {
      engine.release(enode);
      return;
    }
    frontier.push({split.score, seq++, id, enode, split, depth});
  };

  const auto [root_id, root_moments] = add_node(engine.root());
  std::size_t leaves = 1;
  consider(root_id, engine.root(), root_moments, 0);
  while (!frontier.empty() &&
         (options_.max_leaves == 0 || leaves < options_.max_leaves)) {
    const Cand cand = frontier.top();
    frontier.pop();
    const auto [left_e, right_e] = engine.apply_split(cand.enode, cand.split);
    const auto [left_id, left_moments] = add_node(left_e);
    const auto [right_id, right_moments] = add_node(right_e);
    nodes[cand.node].feature = cand.split.feature;
    nodes[cand.node].threshold = cand.split.threshold;
    nodes[cand.node].left = left_id;
    nodes[cand.node].right = right_id;
    ++leaves;
    consider(left_id, left_e, left_moments, cand.depth + 1);
    consider(right_id, right_e, right_moments, cand.depth + 1);
  }
  while (!frontier.empty()) {
    engine.release(frontier.top().enode);
    frontier.pop();
  }
  return nodes;
}

void GbdtRegressor::fit(const linalg::Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  static obs::Histogram& fit_hist = obs::Registry::global().histogram(
      "f2pm_ml_tree_fit_seconds",
      "Tree-learner fit wall-clock time (growth engine).",
      obs::Histogram::default_latency_bounds(), "model=\"gbdt\"");
  const obs::ScopedTimer fit_timer(fit_hist);
  loss_history_.clear();
  fitted_ = false;
  const std::size_t n = x.rows();
  const std::size_t num_features = x.cols();

  // Every random decision is drawn from the master stream up front — the
  // holdout split first, then one (row, feature) seed pair per round — so
  // nothing about thread scheduling or early stopping can perturb a draw.
  util::Rng master(options_.seed);
  std::vector<std::size_t> train_rows;
  std::vector<std::size_t> val_rows;
  const bool use_holdout = options_.early_stopping_rounds > 0 && n >= 4;
  if (use_holdout) {
    const auto val_count = std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(n) *
                                 options_.validation_fraction),
        1, n - 1);
    const std::vector<std::uint8_t> in_val = pick_mask(master, n, val_count);
    train_rows.reserve(n - val_count);
    val_rows.reserve(val_count);
    for (std::size_t r = 0; r < n; ++r) {
      (in_val[r] != 0 ? val_rows : train_rows).push_back(r);
    }
  } else {
    train_rows.resize(n);
    for (std::size_t r = 0; r < n; ++r) train_rows[r] = r;
  }
  struct RoundSeeds {
    std::uint64_t rows = 0;
    std::uint64_t features = 0;
  };
  std::vector<RoundSeeds> seeds(options_.n_rounds);
  for (RoundSeeds& s : seeds) {
    s.rows = master();
    s.features = master();
  }

  const std::shared_ptr<const FeatureBinning> binning = shared_binning(
      x, options_.histogram_bins, options_.bin_mode, options_.reuse_bins);

  double base_score = 0.0;
  if (options_.base_score == GbdtOptions::BaseScore::kMean) {
    Moments m;
    for (const std::size_t r : train_rows) m.add(y[r]);
    base_score = m.mean();
  }
  forest_ = CompiledForest(num_features, base_score);
  std::vector<double> pred(n, base_score);
  std::vector<double> resid(n);
  for (std::size_t r = 0; r < n; ++r) resid[r] = y[r] - pred[r];

  std::optional<parallel::ThreadPool> local_pool;
  if (options_.fit_workers > 1) local_pool.emplace(options_.fit_workers);
  parallel::ThreadPool* pool =
      options_.fit_workers == 0 ? &parallel::ThreadPool::global()
      : options_.fit_workers > 1 ? &*local_pool
                                 : nullptr;

  double best_val = std::numeric_limits<double>::infinity();
  std::size_t best_round = 0;
  for (std::size_t t = 0; t < options_.n_rounds; ++t) {
    std::vector<std::size_t> rows_t;
    if (options_.row_subsample >= 1.0) {
      rows_t = train_rows;
    } else {
      util::Rng row_rng(seeds[t].rows);
      const std::size_t take =
          sample_count(options_.row_subsample, train_rows.size());
      const std::vector<std::uint8_t> mask =
          pick_mask(row_rng, train_rows.size(), take);
      rows_t.reserve(take);
      for (std::size_t i = 0; i < train_rows.size(); ++i) {
        if (mask[i] != 0) rows_t.push_back(train_rows[i]);
      }
    }

    TreeGrowthEngine::Config engine_config;
    engine_config.mode = SplitMode::kHistogram;
    engine_config.histogram_bins = options_.histogram_bins;
    engine_config.binning = binning;
    engine_config.min_split_size = 2 * options_.min_instances_per_leaf;
    if (options_.feature_subsample < 1.0) {
      util::Rng feature_rng(seeds[t].features);
      const std::size_t take =
          sample_count(options_.feature_subsample, num_features);
      engine_config.feature_active = pick_mask(feature_rng, num_features, take);
    }
    TreeGrowthEngine engine(x, resid, std::move(rows_t), engine_config);
    forest_.add_tree(grow_tree(engine), 0);

    // Update predictions/residuals for every row (holdout included) —
    // per-row independent writes, so fanning the blocks out is bitwise
    // identical at any worker count.
    constexpr std::size_t kBlock = 1024;
    const std::size_t num_blocks = (n + kBlock - 1) / kBlock;
    const auto update_block = [&](std::size_t b) {
      const std::size_t begin = b * kBlock;
      const std::size_t end = std::min(n, begin + kBlock);
      for (std::size_t r = begin; r < end; ++r) {
        pred[r] += forest_.tree_leaf(t, x.row(r).data());
        resid[r] = y[r] - pred[r];
      }
    };
    if (pool != nullptr && num_blocks > 1) {
      parallel::parallel_for(*pool, 0, num_blocks, update_block);
    } else {
      for (std::size_t b = 0; b < num_blocks; ++b) update_block(b);
    }

    double train_sse = 0.0;
    for (const std::size_t r : train_rows) train_sse += resid[r] * resid[r];
    loss_history_.push_back(train_sse /
                            static_cast<double>(train_rows.size()));

    if (use_holdout) {
      double val_sse = 0.0;
      for (const std::size_t r : val_rows) val_sse += resid[r] * resid[r];
      const double val_mse = val_sse / static_cast<double>(val_rows.size());
      if (val_mse < best_val) {
        best_val = val_mse;
        best_round = t;
      } else if (t - best_round >= options_.early_stopping_rounds) {
        break;
      }
    }
  }
  if (use_holdout) forest_.truncate(best_round + 1);
  fitted_ = true;
}

double GbdtRegressor::predict_row(std::span<const double> row) const {
  check_predict_args(row);
  return forest_.predict_row(row.data());
}

std::vector<double> GbdtRegressor::predict(const linalg::Matrix& x) const {
  if (!fitted_) throw std::logic_error("Regressor: predict before fit");
  if (x.cols() != num_inputs()) {
    throw std::invalid_argument("Regressor: input width mismatch");
  }
  static obs::Histogram& predict_hist = obs::Registry::global().histogram(
      "f2pm_ml_batched_predict_seconds",
      "Batched model prediction wall-clock time.",
      obs::Histogram::default_latency_bounds(), "model=\"gbdt\"");
  const obs::ScopedTimer predict_timer(predict_hist);
  std::vector<double> out(x.rows());
  forest_.predict(x, out);
  return out;
}

void GbdtRegressor::save(util::BinaryWriter& writer) const {
  if (!fitted_) throw std::logic_error("GbdtRegressor::save before fit");
  forest_.save(writer);
}

std::unique_ptr<GbdtRegressor> GbdtRegressor::load(util::BinaryReader& reader) {
  auto model = std::make_unique<GbdtRegressor>();
  model->forest_ = CompiledForest::load(reader);
  model->fitted_ = true;
  return model;
}

BinningCacheStats GbdtRegressor::binning_cache_stats() {
  return BinningCache::global().stats();
}

}  // namespace f2pm::ml
