// Machinery shared by the tree learners (REP-Tree, M5P, bagged ensembles,
// GBDT): the kNoNode child sentinel of index-linked build nodes, the naive
// exhaustive split search kept as the equivalence reference, and the
// presort/histogram tree-growth engine the learners actually train with.
// The fitted constant-leaf trees are compiled into ml::CompiledForest
// (forest.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/serialization.hpp"

namespace f2pm::ml {

/// Sentinel for "no child".
inline constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

/// How candidate splits are scored.
enum class SplitCriterion {
  kVarianceReduction,  ///< Minimize total SSE of the two children (REP-Tree).
  kStdDevReduction,    ///< Maximize SDR = sd(S) - Σ w_i sd(S_i) (M5/M5P).
};

/// How the growth engine finds candidate splits.
enum class SplitMode {
  /// Per-feature row orders presorted once at the root and maintained down
  /// the tree by stable partition: O(F·n) per level, zero per-node sorts,
  /// node-for-node identical trees to the naive reference.
  kPresort,
  /// Fixed-width bins with the sibling-subtraction trick: O(F·bins) split
  /// scans independent of node size. Approximate (thresholds land on bin
  /// boundaries); wins for large n and deep trees.
  kHistogram,
  /// The retained seed algorithm (per-node stable sort of every feature).
  /// Kept for the equivalence suite and as the benchmark baseline.
  kNaive,
};

/// How histogram bin edges are chosen.
enum class BinningMode {
  kWidth,     ///< Fixed-width bins over [min, max] (the PR 4 scheme).
  kQuantile,  ///< Equal-frequency edges from the sorted per-feature values.
};

/// Precomputed per-feature histogram binning: per-row bin ids plus the
/// per-(feature, bin) value bounds the split scan derives thresholds from.
/// Computing this is the O(F·n) (kWidth) or O(F·n·log n) (kQuantile) part
/// of a histogram fit, and it depends only on the matrix content — boosted
/// ensembles and cross-validation folds share one instance across every
/// tree and grid point fit on the same matrix.
struct FeatureBinning {
  std::size_t bins = 0;          ///< Bins per feature.
  std::size_t num_rows = 0;      ///< x.rows() of the binned matrix.
  std::size_t num_features = 0;  ///< x.cols() of the binned matrix.
  std::vector<std::uint16_t> bin_of;  ///< Bin id, indexed f * num_rows + r.
  std::vector<double> bin_lo;         ///< Min value seen, f * bins + b.
  std::vector<double> bin_hi;         ///< Max value seen, f * bins + b.
};

/// Computes the binning over `rows` of `x` (bin ids of rows outside `rows`
/// stay 0 and their values never widen the bounds). kWidth reproduces
/// bit-for-bit the fixed-width binning TreeGrowthEngine computes for itself
/// when no precomputed binning is supplied. A binning over a superset of
/// the rows later fit on is exact to reuse: bins are monotone in value and
/// equal values share a bin, so every derived threshold still partitions
/// any row subset exactly as its histogram counts assume.
FeatureBinning compute_feature_binning(const linalg::Matrix& x,
                                       const std::vector<std::size_t>& rows,
                                       std::size_t bins, BinningMode mode);

/// The best split found for a node, if any.
struct BestSplit {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;  ///< Rows with value <= threshold go left.
  double score = 0.0;      ///< SSE saved (variance mode) or SDR (sd mode).
};

/// Exhaustive best-split search over all features for the given rows.
/// Candidate thresholds are midpoints between consecutive distinct values;
/// splits leaving fewer than `min_leaf` rows on either side are rejected.
///
/// This is the seed implementation, retained verbatim (modulo the stable
/// sort that pins the tie order) as the reference the presort engine must
/// match node-for-node. Production fits go through TreeGrowthEngine.
BestSplit find_best_split(const linalg::Matrix& x, std::span<const double> y,
                          const std::vector<std::size_t>& rows,
                          std::size_t min_leaf, SplitCriterion criterion);

/// Sum, sum-of-squares and count for a row subset of y (split bookkeeping).
struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t count = 0;

  void add(double v) {
    sum += v;
    sum_sq += v * v;
    ++count;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Total squared error around the mean.
  [[nodiscard]] double sse() const {
    if (count == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(count);
  }
  /// Population standard deviation.
  [[nodiscard]] double sd() const;
};

/// Moments of a row subset.
Moments compute_moments(std::span<const double> y,
                        const std::vector<std::size_t>& rows);

/// Partitions `rows` on x(row, feature) <= threshold, preserving order.
void partition_rows(const linalg::Matrix& x,
                    const std::vector<std::size_t>& rows, std::size_t feature,
                    double threshold, std::vector<std::size_t>& left,
                    std::vector<std::size_t>& right);

/// Shared tree-growth engine.
///
/// Owns the row bookkeeping for one fit: the training rows of every tree
/// node are contiguous segments of one index array, plus (presort mode) one
/// value-sorted index array per feature, all maintained down the tree by a
/// stable partition over a membership mark buffer. Splitting a node costs
/// O((F+1)·node_size) with zero sorts and zero allocations; a best-split
/// scan costs O(F·node_size) (presort) or O(F·bins) (histogram), and fans
/// the per-feature scans across the global thread pool for large nodes.
/// All results are bitwise independent of the thread count: per-feature
/// scans are self-contained and the cross-feature reduction always runs in
/// feature order.
///
/// In kPresort mode the engine produces node-for-node identical trees to
/// find_best_split() above: the root presort is stable (ties keep the
/// caller's row order, exactly like the reference's stable per-node sort),
/// stable partition preserves that order down the tree, and the scan
/// accumulates child moments in the same order as the reference, so even
/// the floating-point sums are bit-identical.
class TreeGrowthEngine {
 public:
  using NodeId = std::size_t;

  struct Config {
    SplitMode mode = SplitMode::kPresort;
    /// Fixed-width bins per feature (histogram mode).
    std::size_t histogram_bins = 64;
    /// Minimum node_size · num_features before a split scan fans out on
    /// the global thread pool; below it the scan runs inline.
    std::size_t parallel_min_work = std::size_t{1} << 14;
    /// Master switch for the parallel split scan (results are identical
    /// either way; the switch exists for benchmarking).
    bool allow_parallel = true;
    /// Smallest node size find_best_split will ever be called with (tree
    /// builders pass 2 * their min-instances-per-leaf). apply_split skips
    /// maintaining the per-feature slices when both children fall below
    /// it — they can never be scanned, so their slices are never read.
    /// Must not exceed 2 * min_leaf of any later find_best_split call.
    std::size_t min_split_size = 2;
    /// Precomputed binning to share across fits (histogram mode only).
    /// Must match the matrix (num_rows/num_features) and histogram_bins;
    /// when null the engine computes fixed-width binning over its root
    /// rows, exactly as before.
    std::shared_ptr<const FeatureBinning> binning;
    /// Per-feature activity mask for feature subsampling (empty = all
    /// active). Inactive features are never scanned for splits; honored in
    /// presort and histogram modes.
    std::vector<std::uint8_t> feature_active;
  };

  /// Takes the root row set by value; its order is the canonical row order
  /// every node segment and moment accumulation preserves.
  TreeGrowthEngine(const linalg::Matrix& x, std::span<const double> y,
                   std::vector<std::size_t> rows, Config config);
  /// Default configuration (kPresort, parallel scans enabled).
  TreeGrowthEngine(const linalg::Matrix& x, std::span<const double> y,
                   std::vector<std::size_t> rows)
      : TreeGrowthEngine(x, y, std::move(rows), Config()) {}

  [[nodiscard]] NodeId root() const { return 0; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }

  /// The node's training rows, in the caller's original relative order.
  [[nodiscard]] std::span<const std::size_t> rows(NodeId id) const;
  [[nodiscard]] std::size_t node_size(NodeId id) const;

  /// Target moments of the node, accumulated in rows(id) order (bit-exact
  /// match with compute_moments over the same rows).
  [[nodiscard]] Moments moments(NodeId id) const;

  /// Best split over all features for the node, matching the semantics of
  /// the free find_best_split (first feature/threshold achieving a strictly
  /// greater positive score wins). Callers that already computed the node's
  /// moments (tree builders always do, for the leaf value) can pass them to
  /// skip the recomputation; `total` must equal moments(id).
  [[nodiscard]] BestSplit find_best_split(NodeId id, std::size_t min_leaf,
                                          SplitCriterion criterion,
                                          const Moments* total = nullptr);

  /// Partitions the node on the split and returns {left, right} children.
  /// The split must have been produced for this node.
  std::pair<NodeId, NodeId> apply_split(NodeId id, const BestSplit& split);

  /// Declares the node a leaf: frees its cached histogram (no-op in the
  /// other modes). Optional — bounds histogram-mode memory to O(depth).
  void release(NodeId id);

 private:
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Per-feature ping-pong parity: bit f = which buffer holds feature
    /// f's slices (features >= 64 share bit via buf_hi_ semantics below).
    /// A split flips the bit of every feature it actually partitions; the
    /// split feature itself is never moved — its slice is sorted, so its
    /// children are exactly the prefix and suffix in place.
    std::uint64_t buf_mask = 0;
    /// Parity shared by all features >= 64 (those are always partitioned).
    std::uint8_t buf_hi = 0;
    /// Features (< 64) known constant within the node. Constancy is
    /// inherited, so a marked feature is never scanned or partitioned
    /// again anywhere in the subtree — its stale slice is never read.
    std::uint64_t const_mask = 0;
  };

  /// Which ping-pong buffer holds `feature`'s slices for the segment.
  [[nodiscard]] std::size_t buf_of(std::size_t feature,
                                   const Segment& segment) const {
    return feature < 64 ? (segment.buf_mask >> feature) & 1 : segment.buf_hi;
  }

  /// Whether the feature participates in split scans (subsampling mask).
  [[nodiscard]] bool feature_enabled(std::size_t feature) const {
    return config_.feature_active.empty() ||
           config_.feature_active[feature] != 0;
  }

  [[nodiscard]] std::span<const std::uint32_t> order_slice(
      std::size_t feature, const Segment& segment) const;
  [[nodiscard]] std::span<const double> xval_slice(
      std::size_t feature, const Segment& segment) const;
  [[nodiscard]] std::span<const double> yval_slice(
      std::size_t feature, const Segment& segment) const;

  /// Per-feature presorted scan over one node segment; exact reference
  /// semantics.
  [[nodiscard]] BestSplit scan_feature_presorted(
      std::size_t feature, const Segment& segment, const Moments& total,
      std::size_t min_leaf, SplitCriterion criterion) const;

  /// Histogram-mode per-feature scan.
  [[nodiscard]] BestSplit scan_feature_histogram(
      std::size_t feature, std::span<const double> hist, const Moments& total,
      std::size_t min_leaf, SplitCriterion criterion) const;

  void build_histogram(NodeId id);
  void accumulate_histogram(const Segment& segment,
                            std::span<double> hist) const;

  const linalg::Matrix& x_;
  std::span<const double> y_;
  Config config_;
  std::size_t num_features_ = 0;

  std::vector<std::size_t> rows_;  ///< Original-order rows, per segment.
  std::vector<double> yrows_;      ///< y in rows_ order (streamed moments).
  // Per-feature row order (32-bit row ids) plus the x/y values in that
  // order, partitioned in lockstep so the split scan streams contiguous
  // arrays instead of gathering from the row-major matrix. Two ping-pong
  // copies: a split partitions a node's slices out of one buffer into the
  // other in a single pass (per-feature parity in Segment::buf_mask),
  // with no spill buffer and no copy-back. Raw arrays (not vectors) so the
  // spill-side buffer is never zero-initialized — it is write-before-read
  // by construction.
  std::array<std::unique_ptr<std::uint32_t[]>, 2> order_;
  std::array<std::unique_ptr<double[]>, 2> xval_;
  std::array<std::unique_ptr<double[]>, 2> yval_;
  std::vector<Segment> segments_;   ///< Indexed by NodeId.
  std::vector<unsigned char> mark_;   ///< Left-membership flags by row id.
  std::vector<std::size_t> scratch_;  ///< rows_ stable-partition spill.
  std::vector<double> scratch_y_;     ///< yrows_ spill, in lockstep.

  // Histogram mode: per-row bin ids plus per-(feature, bin) value bounds —
  // either the caller's shared precomputed binning or one computed at the
  // root; per-node histograms of (sum, sum_sq, count) triples, children
  // derived by sibling subtraction.
  std::shared_ptr<const FeatureBinning> binning_;
  std::vector<std::vector<double>> hists_;  ///< Indexed by NodeId.
};

}  // namespace f2pm::ml
