#include "ml/reptree.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {

namespace {

/// Stable in-place partition of rows[begin, end) on x(r, feature) <=
/// threshold; returns the boundary. Produces the same element order as
/// partition_rows into two fresh vectors, without the allocations.
std::size_t split_range(const linalg::Matrix& x,
                        std::vector<std::size_t>& rows, std::size_t begin,
                        std::size_t end, std::size_t feature, double threshold,
                        std::vector<std::size_t>& scratch) {
  std::size_t out = begin;
  std::size_t spill = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    // Branchless select: the comparison outcome is effectively random, so
    // a branch would mispredict on every other row.
    const bool left = x(r, feature) <= threshold;
    std::size_t* dst = left ? rows.data() + out : scratch.data() + spill;
    *dst = r;
    out += left ? 1 : 0;
    spill += left ? 0 : 1;
  }
  std::copy(scratch.begin(),
            scratch.begin() + static_cast<std::ptrdiff_t>(spill),
            rows.begin() + static_cast<std::ptrdiff_t>(out));
  return out;
}

}  // namespace

RepTree::RepTree(RepTreeOptions options) : options_(options) {
  if (options_.min_instances_per_leaf == 0) {
    throw std::invalid_argument("RepTree: min_instances_per_leaf must be > 0");
  }
  if (options_.num_folds < 2) {
    throw std::invalid_argument("RepTree: num_folds must be >= 2");
  }
}

std::size_t RepTree::build(TreeGrowthEngine& engine, double root_variance,
                           std::vector<BuildNode>& nodes) const {
  // Explicit work stack: right child pushed first so the left subtree is
  // finished before the right one starts, reproducing the recursive
  // preorder node numbering exactly — without call-stack depth limits.
  struct Task {
    TreeGrowthEngine::NodeId enode;
    std::size_t depth;
    std::size_t parent;  ///< Node id whose child link to patch, or kNoNode.
    bool is_left;
  };
  std::vector<Task> stack{{engine.root(), 0, kNoNode, false}};
  std::size_t root_id = kNoNode;
  while (!stack.empty()) {
    const Task task = stack.back();
    stack.pop_back();
    const Moments moments = engine.moments(task.enode);
    BuildNode node;
    node.value = moments.mean();
    const std::size_t node_id = nodes.size();
    nodes.push_back(node);
    if (task.parent == kNoNode) {
      root_id = node_id;
    } else if (task.is_left) {
      nodes[task.parent].left = node_id;
    } else {
      nodes[task.parent].right = node_id;
    }

    const bool depth_ok =
        options_.max_depth == 0 || task.depth < options_.max_depth;
    const double variance =
        moments.count == 0
            ? 0.0
            : moments.sse() / static_cast<double>(moments.count);
    const bool variance_ok =
        variance > options_.min_variance_proportion * root_variance;
    BestSplit split;
    if (depth_ok && variance_ok) {
      split = engine.find_best_split(task.enode,
                                     options_.min_instances_per_leaf,
                                     SplitCriterion::kVarianceReduction,
                                     &moments);
    }
    if (!split.found) {
      engine.release(task.enode);
      continue;
    }
    const auto [left, right] = engine.apply_split(task.enode, split);
    nodes[node_id].feature = split.feature;
    nodes[node_id].threshold = split.threshold;
    stack.push_back({right, task.depth + 1, node_id, false});
    stack.push_back({left, task.depth + 1, node_id, true});
  }
  return root_id;
}

double RepTree::prune_subtree(std::vector<BuildNode>& nodes,
                              std::size_t root_id, const linalg::Matrix& x,
                              std::span<const double> y,
                              const std::vector<std::size_t>& prune_rows) {
  // Post-order explicit-stack traversal (deep unpruned trees would
  // otherwise overflow the call stack). The prune rows live in one shared
  // workspace; each frame owns a [begin, end) range of it, stably
  // partitioned in place when the frame expands — descendants only
  // reorder within their own subrange, and a frame never re-reads its
  // range after expanding, so every accumulation sees the same sequence
  // the per-node-vectors version did.
  struct Frame {
    std::size_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t mid = 0;
    double leaf_sse = 0.0;
    double child_sse = 0.0;
    int stage = 0;  ///< 0 = unexpanded, 1 = left pending, 2 = right pending.
  };
  std::vector<std::size_t> work(prune_rows);
  std::vector<std::size_t> scratch(work.size());
  std::vector<Frame> stack;
  stack.push_back({root_id, 0, work.size()});
  double returned = 0.0;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    BuildNode& node = nodes[frame.node];
    if (frame.stage == 0) {
      for (std::size_t i = frame.begin; i < frame.end; ++i) {
        const double err = y[work[i]] - node.value;
        frame.leaf_sse += err * err;
      }
      if (node.is_leaf()) {
        returned = frame.leaf_sse;
        stack.pop_back();
        continue;
      }
      frame.mid = split_range(x, work, frame.begin, frame.end, node.feature,
                              node.threshold, scratch);
      frame.stage = 1;
      const std::size_t child = node.left;
      const std::size_t begin = frame.begin;
      const std::size_t mid = frame.mid;
      stack.push_back({child, begin, mid});
      continue;
    }
    if (frame.stage == 1) {
      frame.child_sse += returned;
      frame.stage = 2;
      const std::size_t child = node.right;
      const std::size_t mid = frame.mid;
      const std::size_t end = frame.end;
      stack.push_back({child, mid, end});
      continue;
    }
    frame.child_sse += returned;
    if (frame.leaf_sse <= frame.child_sse) {
      // Reduced-error pruning: the split does not pay for itself on unseen
      // data; collapse. (Children stay in the node pool but are
      // unreachable; compiling walks from the root so they are dropped.)
      node.left = kNoNode;
      node.right = kNoNode;
      returned = frame.leaf_sse;
    } else {
      returned = frame.child_sse;
    }
    stack.pop_back();
  }
  return returned;
}


void RepTree::fit(const linalg::Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  static obs::Histogram& fit_hist = obs::Registry::global().histogram(
      "f2pm_ml_tree_fit_seconds",
      "Tree-learner fit wall-clock time (growth engine).",
      obs::Histogram::default_latency_bounds(), "model=\"reptree\"");
  const obs::ScopedTimer fit_timer(fit_hist);
  fitted_ = false;

  const std::size_t n = x.rows();
  std::vector<std::size_t> grow_rows;
  std::vector<std::size_t> prune_rows;
  const bool can_prune = options_.prune && n >= 2 * options_.num_folds;
  if (can_prune) {
    util::Rng rng(options_.seed);
    const auto perm = rng.permutation(n);
    const std::size_t prune_count = n / options_.num_folds;
    // Membership flags + one ascending sweep: same sets, already sorted —
    // exactly what sorting the two permutation halves produced, in O(n).
    std::vector<std::uint8_t> in_prune(n, 0);
    for (std::size_t i = 0; i < prune_count; ++i) in_prune[perm[i]] = 1;
    prune_rows.reserve(prune_count);
    grow_rows.reserve(n - prune_count);
    for (std::size_t r = 0; r < n; ++r) {
      (in_prune[r] != 0 ? prune_rows : grow_rows).push_back(r);
    }
  } else {
    grow_rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) grow_rows[i] = i;
  }

  TreeGrowthEngine::Config engine_config;
  engine_config.mode = options_.split_mode;
  engine_config.histogram_bins = options_.histogram_bins;
  engine_config.min_split_size = 2 * options_.min_instances_per_leaf;
  TreeGrowthEngine engine(x, y, std::move(grow_rows), engine_config);
  const Moments root_moments = engine.moments(engine.root());
  const double root_variance =
      root_moments.count == 0
          ? 0.0
          : root_moments.sse() / static_cast<double>(root_moments.count);
  // The build nodes live only for the fit: grow, prune and backfit edit
  // them, then the tree is compiled and they are dropped.
  std::vector<BuildNode> nodes;
  const std::size_t root = build(engine, root_variance, nodes);
  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;
  if (can_prune) {
    prune_subtree(nodes, root, x, y, prune_rows);
  }
  importances_.assign(x.cols(), 0.0);
  backfit_and_importances(nodes, root, x, y, all_rows, can_prune);
  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
  forest_ = CompiledForest(x.cols(), -0.0);
  forest_.add_tree(nodes, root);
  fitted_ = true;
}

void RepTree::backfit_and_importances(std::vector<BuildNode>& nodes,
                                      std::size_t root_id,
                                      const linalg::Matrix& x,
                                      std::span<const double> y,
                                      const std::vector<std::size_t>& rows,
                                      bool update_values) {
  // Post-order explicit-stack walk mirroring prune_subtree, over the same
  // shared in-place workspace. Each frame's stage-0 moments serve both
  // fused passes: the mean backfits the node value (WEKA re-estimation
  // from grow + prune rows) and the SSE feeds the importance credits — a
  // leaf yields its SSE; an internal node credits (own SSE - children's
  // yield) to its split feature and yields the children's sum, exactly as
  // the two separate seed passes did.
  struct Frame {
    std::size_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t mid = 0;
    double sse = 0.0;
    double child_sse = 0.0;
    int stage = 0;
  };
  std::vector<std::size_t> work(rows);
  std::vector<std::size_t> scratch(work.size());
  std::vector<Frame> stack;
  stack.push_back({root_id, 0, work.size()});
  double returned = 0.0;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    BuildNode& node = nodes[frame.node];
    if (frame.stage == 0) {
      Moments moments;
      for (std::size_t i = frame.begin; i < frame.end; ++i) {
        moments.add(y[work[i]]);
      }
      frame.sse = moments.sse();
      if (update_values && frame.end > frame.begin) {
        node.value = moments.mean();
      }
      if (node.is_leaf()) {
        returned = frame.sse;
        stack.pop_back();
        continue;
      }
      frame.mid = split_range(x, work, frame.begin, frame.end, node.feature,
                              node.threshold, scratch);
      frame.stage = 1;
      const std::size_t child = node.left;
      const std::size_t begin = frame.begin;
      const std::size_t mid = frame.mid;
      stack.push_back({child, begin, mid});
      continue;
    }
    if (frame.stage == 1) {
      frame.child_sse += returned;
      frame.stage = 2;
      const std::size_t child = node.right;
      const std::size_t mid = frame.mid;
      const std::size_t end = frame.end;
      stack.push_back({child, mid, end});
      continue;
    }
    frame.child_sse += returned;
    importances_[node.feature] += std::max(frame.sse - frame.child_sse, 0.0);
    returned = frame.child_sse;
    stack.pop_back();
  }
}

double RepTree::predict_row(std::span<const double> row) const {
  check_predict_args(row);
  return forest_.predict_row(row.data());
}

std::vector<double> RepTree::predict(const linalg::Matrix& x) const {
  if (!fitted_) throw std::logic_error("Regressor: predict before fit");
  if (x.cols() != num_inputs()) {
    throw std::invalid_argument("Regressor: input width mismatch");
  }
  std::vector<double> out(x.rows());
  forest_.predict(x, out);
  return out;
}

void RepTree::save(util::BinaryWriter& writer) const {
  if (!fitted_) throw std::logic_error("RepTree::save before fit");
  forest_.save(writer);
}

std::unique_ptr<RepTree> RepTree::load(util::BinaryReader& reader) {
  auto model = std::make_unique<RepTree>();
  model->forest_ = CompiledForest::load(reader);
  if (model->forest_.num_trees() != 1) {
    throw std::runtime_error("RepTree::load: archive is not a single tree");
  }
  model->fitted_ = true;
  return model;
}

}  // namespace f2pm::ml
