#include "ml/forest.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace f2pm::ml {

namespace {

using SplitNode = CompiledForest::SplitNode;

/// Largest split or leaf count a 32-bit link can name (~i for leaf i).
constexpr std::size_t kMaxNodes = std::numeric_limits<std::int32_t>::max();

/// One lockstep step of one lane: a lane already on a leaf (negative link)
/// stays there, reading split 0 as a harmless stand-in so the step stays
/// branch-free.
inline std::int32_t advance(const SplitNode* nodes, std::int32_t link,
                            const double* row) {
  const SplitNode& node = nodes[link < 0 ? 0 : link];
  const std::int32_t next =
      node.child[!(row[node.feature] <= node.threshold) ? 1 : 0];
  return link < 0 ? link : next;
}

void check_capacity(std::size_t splits, std::size_t leaves) {
  if (splits > kMaxNodes || leaves > kMaxNodes) {
    throw std::length_error("CompiledForest: node count exceeds 32-bit links");
  }
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("CompiledForest::load: " + what);
}

}  // namespace

CompiledForest::CompiledForest(std::size_t num_inputs, double base)
    : num_inputs_(num_inputs), base_(base) {}

void CompiledForest::add_tree(std::span<const BuildNode> nodes,
                              std::size_t root) {
  // Explicit-stack preorder: right pushed first so the left subtree is
  // numbered before the right one. Each frame patches its parent's link.
  struct Frame {
    std::size_t node;
    std::size_t parent;  ///< Split id whose child link to patch, or kNoNode.
    int side;
    std::uint32_t depth;
  };
  Tree tree;
  std::vector<Frame> stack{{root, kNoNode, 0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const BuildNode& node = nodes[frame.node];
    std::int32_t link = 0;
    if (node.is_leaf()) {
      check_capacity(splits_.size(), leaves_.size() + 1);
      link = ~static_cast<std::int32_t>(leaves_.size());
      leaves_.push_back(node.value);
      tree.depth = std::max(tree.depth, frame.depth);
    } else {
      check_capacity(splits_.size() + 1, leaves_.size());
      if (node.feature >= num_inputs_) {
        throw std::logic_error("CompiledForest: split feature out of range");
      }
      link = static_cast<std::int32_t>(splits_.size());
      SplitNode split;
      split.threshold = node.threshold;
      split.feature = static_cast<std::uint32_t>(node.feature);
      splits_.push_back(split);
      const auto id = static_cast<std::size_t>(link);
      stack.push_back({node.right, id, 1, frame.depth + 1});
      stack.push_back({node.left, id, 0, frame.depth + 1});
    }
    if (frame.parent == kNoNode) {
      tree.root = link;
    } else {
      splits_[frame.parent].child[static_cast<std::size_t>(frame.side)] = link;
    }
  }
  trees_.push_back(tree);
  split_begin_.push_back(splits_.size());
  leaf_begin_.push_back(leaves_.size());
  rebuild_groups();
}

void CompiledForest::append(const CompiledForest& other) {
  if (other.num_inputs_ != num_inputs_) {
    throw std::logic_error("CompiledForest::append: input width mismatch");
  }
  check_capacity(splits_.size() + other.splits_.size(),
                 leaves_.size() + other.leaves_.size());
  const auto split_offset = static_cast<std::int32_t>(splits_.size());
  const auto leaf_offset = static_cast<std::int32_t>(leaves_.size());
  const auto shift = [&](std::int32_t link) {
    return link >= 0 ? link + split_offset : ~(~link + leaf_offset);
  };
  for (SplitNode split : other.splits_) {
    split.child = {shift(split.child[0]), shift(split.child[1])};
    splits_.push_back(split);
  }
  leaves_.insert(leaves_.end(), other.leaves_.begin(), other.leaves_.end());
  for (std::size_t t = 0; t < other.trees_.size(); ++t) {
    trees_.push_back({shift(other.trees_[t].root), other.trees_[t].depth});
    split_begin_.push_back(split_begin_.back() + other.split_begin_[t + 1] -
                           other.split_begin_[t]);
    leaf_begin_.push_back(leaf_begin_.back() + other.leaf_begin_[t + 1] -
                          other.leaf_begin_[t]);
  }
  rebuild_groups();
}

void CompiledForest::truncate(std::size_t num_trees) {
  if (num_trees >= trees_.size()) return;
  splits_.resize(split_begin_[num_trees]);
  leaves_.resize(leaf_begin_[num_trees]);
  trees_.resize(num_trees);
  split_begin_.resize(num_trees + 1);
  leaf_begin_.resize(num_trees + 1);
  rebuild_groups();
}

void CompiledForest::rebuild_groups() {
  groups_.assign((trees_.size() + kLanes - 1) / kLanes, Group{});
  for (Group& group : groups_) group.roots.fill(~0);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    Group& group = groups_[t / kLanes];
    group.roots[t % kLanes] = trees_[t].root;
    group.depth = std::max(group.depth, trees_[t].depth);
  }
}

void CompiledForest::walk_group(const Group& group, const double* row,
                                double* leaves) const {
  std::array<std::int32_t, kLanes> links = group.roots;
  const SplitNode* nodes = splits_.data();
  for (std::uint32_t step = 0; step < group.depth; ++step) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      links[k] = advance(nodes, links[k], row);
    }
  }
  for (std::size_t k = 0; k < kLanes; ++k) leaves[k] = leaves_[~links[k]];
}

double CompiledForest::predict_row(const double* row) const {
  double acc = base_;
  for_each_leaf(row, [&acc](double leaf) { acc += leaf; });
  return acc;
}

void CompiledForest::predict(const linalg::Matrix& x,
                             std::span<double> out) const {
  // Tree-major within a row block: a tree's nodes stay hot across the
  // block, and kLanes rows walk it in lockstep. Every row still adds its
  // leaves in tree order, so out[r] == predict_row(row r) bit for bit.
  constexpr std::size_t kBlock = 256;
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  const double* data = x.data().data();
  const SplitNode* nodes = splits_.data();
  std::fill(out.begin(), out.end(), base_);
  for (std::size_t begin = 0; begin < rows; begin += kBlock) {
    const std::size_t end = std::min(rows, begin + kBlock);
    for (const Tree& tree : trees_) {
      for (std::size_t r = begin; r < end; r += kLanes) {
        const std::size_t lanes = std::min(kLanes, end - r);
        // A short last chunk repeats its final row in the spare lanes.
        std::array<const double*, kLanes> row;
        for (std::size_t k = 0; k < kLanes; ++k) {
          row[k] = data + (r + std::min(k, lanes - 1)) * cols;
        }
        std::array<std::int32_t, kLanes> links;
        links.fill(tree.root);
        for (std::uint32_t step = 0; step < tree.depth; ++step) {
          for (std::size_t k = 0; k < kLanes; ++k) {
            links[k] = advance(nodes, links[k], row[k]);
          }
        }
        for (std::size_t k = 0; k < lanes; ++k) {
          out[r + k] += leaves_[~links[k]];
        }
      }
    }
  }
}

double CompiledForest::tree_leaf(std::size_t t, const double* row) const {
  std::int32_t link = trees_[t].root;
  while (link >= 0) {
    const SplitNode& node = splits_[static_cast<std::size_t>(link)];
    link = node.child[!(row[node.feature] <= node.threshold) ? 1 : 0];
  }
  return leaves_[~link];
}

void CompiledForest::save(util::BinaryWriter& writer) const {
  writer.write_u64(kArchiveMagic | kArchiveVersion);
  writer.write_u64(num_inputs_);
  writer.write_double(base_);
  std::vector<std::uint64_t> split_counts;
  std::vector<std::uint64_t> leaf_counts;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    split_counts.push_back(split_begin_[t + 1] - split_begin_[t]);
    leaf_counts.push_back(leaf_begin_[t + 1] - leaf_begin_[t]);
  }
  std::vector<std::uint64_t> features;
  std::vector<double> thresholds;
  std::array<std::vector<std::uint64_t>, 2> links;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const auto split_base = static_cast<std::int64_t>(split_begin_[t]);
    const auto leaf_base = static_cast<std::int64_t>(leaf_begin_[t]);
    for (std::size_t s = split_begin_[t]; s < split_begin_[t + 1]; ++s) {
      const SplitNode& split = splits_[s];
      features.push_back(split.feature);
      thresholds.push_back(split.threshold);
      for (std::size_t side = 0; side < 2; ++side) {
        const std::int64_t link = split.child[side];
        const std::int64_t local =
            link >= 0 ? link - split_base : ~(~link - leaf_base);
        links[side].push_back(static_cast<std::uint64_t>(local));
      }
    }
  }
  writer.write_u64s(split_counts);
  writer.write_u64s(leaf_counts);
  writer.write_u64s(features);
  writer.write_doubles(thresholds);
  writer.write_u64s(links[0]);
  writer.write_u64s(links[1]);
  writer.write_doubles(leaves_);
}

CompiledForest CompiledForest::load(util::BinaryReader& reader) {
  const std::uint64_t format = reader.read_u64();
  if ((format & ~std::uint64_t{0xFFFFFFFF}) != kArchiveMagic) {
    corrupt("not a forest archive");
  }
  if ((format & 0xFFFFFFFF) != kArchiveVersion) {
    corrupt("unknown format version " + std::to_string(format & 0xFFFFFFFF));
  }
  CompiledForest forest;
  forest.num_inputs_ = reader.read_u64();
  if (forest.num_inputs_ > std::numeric_limits<std::uint32_t>::max()) {
    corrupt("input count exceeds 32-bit feature ids");
  }
  forest.base_ = reader.read_double();
  const auto split_counts = reader.read_u64s();
  const auto leaf_counts = reader.read_u64s();
  const auto features = reader.read_u64s();
  const auto thresholds = reader.read_doubles();
  const std::array<std::vector<std::uint64_t>, 2> links{reader.read_u64s(),
                                                        reader.read_u64s()};
  const auto leaves = reader.read_doubles();

  const std::size_t num_trees = split_counts.size();
  if (num_trees == 0) corrupt("no trees");
  if (leaf_counts.size() != num_trees) corrupt("inconsistent tree counts");
  std::size_t total_splits = 0;
  std::size_t total_leaves = 0;
  for (std::size_t t = 0; t < num_trees; ++t) {
    if (split_counts[t] >= kMaxNodes || leaf_counts[t] > kMaxNodes) {
      corrupt("node count exceeds 32-bit links");
    }
    if (leaf_counts[t] != split_counts[t] + 1) {
      corrupt("leaf/split count mismatch in tree " + std::to_string(t));
    }
    total_splits += split_counts[t];
    total_leaves += leaf_counts[t];
    if (total_splits > kMaxNodes || total_leaves > kMaxNodes) {
      corrupt("node count exceeds 32-bit links");
    }
  }
  if (features.size() != total_splits || thresholds.size() != total_splits ||
      links[0].size() != total_splits || links[1].size() != total_splits ||
      leaves.size() != total_leaves) {
    corrupt("inconsistent node arrays");
  }

  forest.splits_.resize(total_splits);
  forest.leaves_ = leaves;
  std::vector<std::uint8_t> split_seen;
  std::vector<std::uint8_t> leaf_seen;
  std::vector<std::uint32_t> depth;
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::size_t split_base = forest.split_begin_.back();
    const std::size_t leaf_base = forest.leaf_begin_.back();
    const auto count = static_cast<std::int64_t>(split_counts[t]);
    split_seen.assign(split_counts[t], 0);
    leaf_seen.assign(leaf_counts[t], 0);
    depth.assign(split_counts[t], 0);
    Tree tree;
    tree.root = count > 0 ? static_cast<std::int32_t>(split_base)
                          : ~static_cast<std::int32_t>(leaf_base);
    for (std::int64_t s = 0; s < count; ++s) {
      const std::size_t id = split_base + static_cast<std::size_t>(s);
      if (features[id] >= forest.num_inputs_) {
        corrupt("split feature out of range");
      }
      SplitNode& split = forest.splits_[id];
      split.threshold = thresholds[id];
      split.feature = static_cast<std::uint32_t>(features[id]);
      for (std::size_t side = 0; side < 2; ++side) {
        const auto local = static_cast<std::int64_t>(links[side][id]);
        const std::uint32_t child_depth = depth[s] + 1;
        if (local >= 0) {
          // Forward-only links rule out cycles; with each node referenced
          // once and leaves == splits + 1, the splits form one tree.
          if (local <= s || local >= count) {
            corrupt("split link does not point forward in its tree");
          }
          if (split_seen[local]++ != 0) corrupt("node referenced twice");
          depth[local] = child_depth;
          split.child[side] =
              static_cast<std::int32_t>(split_base + static_cast<std::size_t>(local));
        } else {
          const std::int64_t leaf = ~local;
          if (leaf >= static_cast<std::int64_t>(leaf_counts[t])) {
            corrupt("leaf link out of range");
          }
          if (leaf_seen[leaf]++ != 0) corrupt("node referenced twice");
          tree.depth = std::max(tree.depth, child_depth);
          split.child[side] = ~static_cast<std::int32_t>(
              leaf_base + static_cast<std::size_t>(leaf));
        }
      }
    }
    forest.trees_.push_back(tree);
    forest.split_begin_.push_back(split_base + split_counts[t]);
    forest.leaf_begin_.push_back(leaf_base + leaf_counts[t]);
  }
  forest.rebuild_groups();
  return forest;
}

}  // namespace f2pm::ml
