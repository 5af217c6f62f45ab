#ifndef NEXTMAINT_ML_HISTOGRAM_H_
#define NEXTMAINT_ML_HISTOGRAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "ml/binned_dataset.h"

/// \file histogram.h
/// Histogram-based tree growing shared by DecisionTreeRegressor,
/// RandomForestRegressor and HistGradientBoostingRegressor: one grower over
/// the columnar bins of a BinnedDataset (docs/binned-training.md).
///
/// Kernels here consume pre-binned columns exclusively: nextmaint_lint bans
/// raw-matrix row iteration in this file and histogram.cc (rule
/// row-iteration), keeping the hot path columnar.

namespace nextmaint {
namespace ml {

/// Flat per-feature histogram addressing: feature f owns the half-open
/// slice [feature_offset(f), feature_offset(f) + feature_bins(f)).
class HistogramLayout {
 public:
  HistogramLayout() = default;
  explicit HistogramLayout(const BinMapper& mapper) {
    offsets_.reserve(mapper.num_features() + 1);
    for (size_t f = 0; f < mapper.num_features(); ++f) {
      offsets_.push_back(offsets_.back() + mapper.BinCount(f));
    }
  }

  size_t num_features() const { return offsets_.size() - 1; }
  size_t feature_offset(size_t f) const { return offsets_[f]; }
  size_t feature_bins(size_t f) const {
    return offsets_[f + 1] - offsets_[f];
  }
  size_t total_bins() const { return offsets_.back(); }

 private:
  std::vector<size_t> offsets_ = {0};
};

/// Per-node histogram: gradient sum and sample count per bin, all features
/// in one flat buffer so a dense node resets and subtracts contiguously.
///
/// A histogram is dense or sparse. A sparse one also keeps, per feature, an
/// ascending list of its *live* bins, and every bin outside the list is
/// exactly (+0.0, 0); resets, subtractions and split scans then touch only
/// the listed bins, so a small node costs O(its rows), not O(all bins).
/// The lists are exact, not approximate (docs/binned-training.md):
///  - a filled child lists the parent's live bins its rows land in;
///  - a parent buffer that becomes the larger child subtracts over its list
///    and keeps every bin with `count != 0 || grad != 0.0`, so a
///    subtraction residual on an emptied bin stays live;
///  - a bin that leaves a list already holds exactly +0.0: every bin
///    starts at +0.0, and a round-to-nearest sum or difference is -0.0 only
///    when an operand already is, so no bin ever holds -0.0.
class NodeHistogram {
 public:
  /// Zeroes every bin (only the listed ones when sparse: the rest already
  /// are) and starts the histogram over as dense, or as sparse with empty
  /// lists.
  void Reset(const HistogramLayout& layout, bool sparse);

  bool sparse() const { return sparse_; }

  double* grad(const HistogramLayout& layout, size_t f) {
    return grad_.data() + layout.feature_offset(f);
  }
  const double* grad(const HistogramLayout& layout, size_t f) const {
    return grad_.data() + layout.feature_offset(f);
  }
  uint32_t* count(const HistogramLayout& layout, size_t f) {
    return count_.data() + layout.feature_offset(f);
  }
  const uint32_t* count(const HistogramLayout& layout, size_t f) const {
    return count_.data() + layout.feature_offset(f);
  }
  /// Feature f's live bins, ascending; meaningful only when sparse().
  std::span<const uint16_t> live(const HistogramLayout& layout,
                                 size_t f) const {
    return {live_.data() + layout.feature_offset(f), live_size_[f]};
  }

  /// Dense to sparse: lists every bin with `count != 0 || grad != 0.0`.
  /// O(all bins), once per subtree that goes sparse; no-op when sparse.
  void MakeSparse(const HistogramLayout& layout);

  /// Resets this histogram and accumulates `rows` into it, one feature at a
  /// time. With a `parent`, a sparse parent makes this child sparse (its
  /// lists are the parent's, filtered to the bins its rows occupy), and
  /// `subtract` fuses in the parent-minus-sibling step: each finished
  /// feature slice is subtracted from the parent in place, turning the
  /// parent's buffer into the larger child's histogram.
  void Fill(const BinnedDataset& bins, const HistogramLayout& layout,
            std::span<const uint32_t> rows, std::span<const double> values,
            NodeHistogram* parent, bool subtract) {
    Reset(layout, parent != nullptr && parent->sparse());
    for (size_t f = 0; f < layout.num_features(); ++f) {
      double* grad_f = grad(layout, f);
      uint32_t* count_f = count(layout, f);
      const auto accumulate = [&](auto&& bin_of) {
        for (const uint32_t row : rows) {
          const uint32_t bin = bin_of(row);
          grad_f[bin] += values[row];
          ++count_f[bin];
        }
      };
      // Hoist the column's storage pointer and the narrow/wide dispatch
      // out of the row loop.
      if (bins.IsNarrow(f)) {
        const uint8_t* column = bins.NarrowColumn(f);
        accumulate([column](uint32_t row) -> uint32_t {
          return column[row];
        });
      } else {
        const uint16_t* column = bins.WideColumn(f);
        accumulate([column](uint32_t row) -> uint32_t {
          return column[row];
        });
      }
      if (sparse_) ListFilledBins(layout, f, *parent);
      if (subtract) parent->SubtractFeature(layout, f, *this);
    }
  }

 private:
  /// This child's list for feature f: the parent's live bins its rows
  /// occupy. The rest of the parent's list is still +0.0 from the reset.
  void ListFilledBins(const HistogramLayout& layout, size_t f,
                      const NodeHistogram& parent);
  /// Parent-minus-sibling for one feature slice, in place: over every bin
  /// when dense, over the live list (dropping emptied bins) when sparse.
  void SubtractFeature(const HistogramLayout& layout, size_t f,
                       const NodeHistogram& sibling);

  std::vector<double> grad_;
  std::vector<uint32_t> count_;
  /// Per-feature live lists in the flat layout: feature f's list starts at
  /// feature_offset(f) and holds live_size_[f] bin ids (max_bins <= 65535).
  std::vector<uint16_t> live_;
  std::vector<size_t> live_size_;
  bool sparse_ = false;
};

/// The index permutation a growing tree partitions, plus the leaf ranges it
/// ends up with. Rows are stored as a multiset (bootstrap duplicates
/// allowed); Split only ever permutes [begin, end), so the leaf ranges of a
/// finished tree tile the whole index array — no sample is lost or
/// duplicated (LeavesCoverAll, pinned by tests/ml/binned_property_test.cc).
class DataPartition {
 public:
  /// Identity permutation over [0, n).
  void Reset(size_t n);
  /// Explicit row multiset (the forest's bootstrap entry point).
  void Reset(const std::vector<size_t>& rows);

  size_t size() const { return indices_.size(); }
  uint32_t row(size_t i) const { return indices_[i]; }
  std::span<const uint32_t> indices() const {
    return {indices_.data(), indices_.size()};
  }

  /// Partitions [begin, end) so rows satisfying `pred` come first; returns
  /// the boundary position.
  template <class Pred>
  size_t Split(size_t begin, size_t end, Pred pred) {
    const auto first = indices_.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = indices_.begin() + static_cast<ptrdiff_t>(end);
    const auto mid = std::partition(first, last, pred);
    return static_cast<size_t>(mid - indices_.begin());
  }

  void AddLeaf(size_t begin, size_t end) { leaves_.emplace_back(begin, end); }
  const std::vector<std::pair<size_t, size_t>>& leaf_ranges() const {
    return leaves_;
  }
  /// True when the recorded leaf ranges tile [0, size()) contiguously in
  /// order — the no-sample-lost invariant of a completed grow.
  bool LeavesCoverAll() const;

 private:
  std::vector<uint32_t> indices_;
  std::vector<std::pair<size_t, size_t>> leaves_;
};

/// One grown node; field-compatible with the learners' node structs.
/// Nodes are emitted in preorder (node, left subtree, right subtree).
struct GrowNode {
  int32_t left = -1;
  int32_t right = -1;
  int32_t feature = -1;
  double threshold = 0.0;  ///< raw-value threshold (bin upper bound)
  double value = 0.0;      ///< leaf payload (mean or Newton weight)
  double gain = 0.0;       ///< split gain (0 for leaves)
  bool is_leaf() const { return left < 0; }
};

/// Growth policy. The two leaf modes cover the learners:
///  - newton == false (Tree/RF): leaf value is the target mean, split gain
///    is the SSE reduction and min_gain is relative to the parent score;
///  - newton == true (XGB): leaf value is -learning_rate * G / (H + l2)
///    with unit hessians (H == count), min_gain is absolute.
struct GrowSpec {
  bool depth_limited = false;
  int max_depth = 0;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Candidate features per split; 0 means all. The subset is drawn with a
  /// partial Fisher-Yates from `seed`, consumed at split attempts only.
  size_t max_features = 0;
  uint64_t seed = 0;
  bool newton = false;
  double learning_rate = 1.0;
  double l2 = 0.0;
  double min_gain = 1e-12;
};

namespace internal {

/// SplitMix64 step for cheap feature subsampling without dragging a full
/// Rng through the recursion.
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The shared grower. Growth is serial; callers parallelize across trees,
/// vehicles and folds.
class HistTreeGrower {
 public:
  HistTreeGrower(const BinnedDataset& bins, const BinMapper& mapper,
                 const HistogramLayout& layout, std::span<const double> values,
                 DataPartition* partition, const GrowSpec& spec)
      : bins_(bins),
        mapper_(mapper),
        layout_(layout),
        values_(values),
        partition_(partition),
        spec_(spec) {}

  /// `allow_sparse == false` keeps every node on the dense loops: the
  /// reference the sparse path is checked against, byte for byte, in
  /// tests/ml/binned_property_test.cc.
  std::vector<GrowNode> Grow(bool allow_sparse = true) {
    NM_CHECK(partition_->size() > 0);
    allow_sparse_ = allow_sparse;
    nodes_.reserve(64);
    uint64_t rng_state = spec_.seed;
    NodeHistogram* root = AcquireHistogram(0);
    root->Fill(bins_, layout_, partition_->indices(), values_,
               /*parent=*/nullptr, /*subtract=*/false);
    BuildNode(0, partition_->size(), 0, root, &rng_state);
    NM_CHECK(partition_->LeavesCoverAll());
    return std::move(nodes_);
  }

 private:
  struct Best {
    double gain = 0.0;
    size_t feature = 0;
    uint32_t bin = 0;
  };

  NodeHistogram* AcquireHistogram(size_t level) {
    while (pool_.size() <= level) {
      pool_.push_back(std::make_unique<NodeHistogram>());
    }
    return pool_[level].get();
  }

  bool IsLeaf(size_t count, int depth) const {
    return (spec_.depth_limited && depth >= spec_.max_depth) ||
           count < spec_.min_samples_split ||
           count < 2 * spec_.min_samples_leaf;
  }

  /// Whether a dense node's histogram should go sparse, from what the node
  /// shows. Its rows occupy at most `count` bins of each feature, so once
  /// it has no more rows than a feature has bins on average, the lists are
  /// shorter than the dense loops; a bigger node keeps the dense loops,
  /// whose contiguous resets and subtractions beat near-full lists. A
  /// depth-limited subtree with fewer than kMinSparseLevels levels left has
  /// at most 2^(levels) - 1 split nodes, too few to amortize the O(all
  /// bins) conversion, so it stays dense too.
  bool SparsePays(size_t count, int depth) const {
    if (spec_.depth_limited && spec_.max_depth - depth < kMinSparseLevels) {
      return false;
    }
    return count * layout_.num_features() <= layout_.total_bins();
  }

  /// Walks one feature's bins left to right (`bin_ids` ascending: every bin,
  /// or the live list) and records the best boundary into `best`. Strict '>'
  /// keeps the earliest candidate and bin on ties. A bin missing from a live
  /// list is (+0.0, 0): it would leave the running sums unchanged, so its
  /// gain would equal the previous bin's and could not win.
  template <class BinIds>
  void ScanFeature(const BinIds& bin_ids, size_t f, const NodeHistogram& hist,
                   size_t count, double grad_sum, double parent_score,
                   Best* best) const {
    const size_t num_bins = layout_.feature_bins(f);
    const double* grad = hist.grad(layout_, f);
    const uint32_t* bin_count = hist.count(layout_, f);
    double left_grad = 0.0;
    size_t left_count = 0;
    for (const size_t b : bin_ids) {
      if (b + 1 >= num_bins) break;  // the last bin admits no boundary
      left_grad += grad[b];
      left_count += bin_count[b];
      if (left_count < spec_.min_samples_leaf) continue;
      const size_t right_count = count - left_count;
      if (right_count < spec_.min_samples_leaf) break;
      const double right_grad = grad_sum - left_grad;
      const double gain =
          left_grad * left_grad /
              (static_cast<double>(left_count) + spec_.l2) +
          right_grad * right_grad /
              (static_cast<double>(right_count) + spec_.l2) -
          parent_score;
      if (gain > best->gain) {
        best->gain = gain;
        best->feature = f;
        best->bin = static_cast<uint32_t>(b);
      }
    }
  }

  int32_t BuildNode(size_t begin, size_t end, int depth, NodeHistogram* hist,
                    uint64_t* rng_state) {
    const size_t count = end - begin;
    NM_CHECK(count > 0);

    // Node aggregate from the raw values in partition-index order, not from
    // the histogram: leaf payloads must not depend on bin layout.
    double grad_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
      grad_sum += values_[partition_->row(i)];
    }

    const int32_t node_index = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(GrowNode{});
    nodes_[node_index].value =
        spec_.newton ? -spec_.learning_rate * grad_sum /
                           (static_cast<double>(count) + spec_.l2)
                     : grad_sum / static_cast<double>(count);

    if (IsLeaf(count, depth)) {
      partition_->AddLeaf(begin, end);
      return node_index;
    }

    const double parent_score =
        grad_sum * grad_sum / (static_cast<double>(count) + spec_.l2);

    // Candidate features: all, or a random subset of size max_features
    // (partial Fisher-Yates: the first num_candidates entries become the
    // subset).
    const size_t num_features = layout_.num_features();
    features_.resize(num_features);
    std::iota(features_.begin(), features_.end(), size_t{0});
    size_t num_candidates = num_features;
    if (spec_.max_features > 0 && spec_.max_features < num_features) {
      num_candidates = spec_.max_features;
      for (size_t i = 0; i < num_candidates; ++i) {
        const size_t j =
            i + static_cast<size_t>(NextRandom(rng_state) %
                                    (num_features - i));
        std::swap(features_[i], features_[j]);
      }
    }

    // Once sparse, a histogram's descendants stay sparse: their lists are
    // subsets of its own.
    if (allow_sparse_ && !hist->sparse() && SparsePays(count, depth)) {
      hist->MakeSparse(layout_);
    }
    Best best;
    for (size_t ci = 0; ci < num_candidates; ++ci) {
      const size_t f = features_[ci];
      const size_t num_bins = layout_.feature_bins(f);
      if (num_bins < 2) continue;
      if (hist->sparse()) {
        ScanFeature(hist->live(layout_, f), f, *hist, count, grad_sum,
                    parent_score, &best);
      } else {
        ScanFeature(std::views::iota(size_t{0}, num_bins), f, *hist, count,
                    grad_sum, parent_score, &best);
      }
    }

    // Mean mode measures the SSE-reduction floor relative to the parent
    // score (the historic exact-search rejection rule); Newton mode uses
    // the absolute XGBoost-style floor.
    const double gain_floor =
        spec_.newton ? spec_.min_gain
                     : spec_.min_gain * std::fabs(parent_score);
    if (best.gain <= gain_floor) {
      partition_->AddLeaf(begin, end);
      return node_index;
    }

    const size_t mid =
        partition_->Split(begin, end, [&](uint32_t row) {
          return bins_.Bin(best.feature, row) <= best.bin;
        });
    // left_count is derived from exact uint32 bin counts, so both children
    // are guaranteed non-empty.
    NM_CHECK(mid > begin && mid < end);

    nodes_[node_index].feature = static_cast<int32_t>(best.feature);
    nodes_[node_index].threshold =
        mapper_.UpperBound(best.feature, static_cast<uint16_t>(best.bin));
    nodes_[node_index].gain = best.gain;

    // Children via the parent-minus-sibling trick: the smaller child is
    // accumulated directly into a fresh buffer; the fused fill turns the
    // parent's buffer into the larger child's histogram in place. A child
    // that will be a leaf never reads its histogram, so the fill (both
    // leaves) or the subtraction (larger one a leaf) is skipped. Buffer
    // reuse by recursion level is safe: a node at depth d only ever holds a
    // buffer acquired at level <= d, so level d+1 is free for its smaller
    // child, and the first-child subtree only acquires levels >= d+2.
    NodeHistogram* child =
        AcquireHistogram(static_cast<size_t>(depth) + 1);
    const bool left_smaller = mid - begin <= end - mid;
    const size_t small_begin = left_smaller ? begin : mid;
    const size_t small_count = left_smaller ? mid - begin : end - mid;
    const bool small_leaf = IsLeaf(small_count, depth + 1);
    const bool large_leaf = IsLeaf(count - small_count, depth + 1);
    if (!small_leaf || !large_leaf) {
      child->Fill(bins_, layout_,
                  partition_->indices().subspan(small_begin, small_count),
                  values_, hist, /*subtract=*/!large_leaf);
    }
    NodeHistogram* left_hist = left_smaller ? child : hist;
    NodeHistogram* right_hist = left_smaller ? hist : child;
    const int32_t left =
        BuildNode(begin, mid, depth + 1, left_hist, rng_state);
    const int32_t right =
        BuildNode(mid, end, depth + 1, right_hist, rng_state);
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  static constexpr int kMinSparseLevels = 3;

  const BinnedDataset& bins_;
  const BinMapper& mapper_;
  const HistogramLayout& layout_;
  std::span<const double> values_;
  DataPartition* partition_;
  const GrowSpec& spec_;
  bool allow_sparse_ = true;
  std::vector<GrowNode> nodes_;
  std::vector<std::unique_ptr<NodeHistogram>> pool_;
  std::vector<size_t> features_;
};

}  // namespace internal

/// Grows one regression tree over the rows currently held by `partition`
/// (which ends up holding the leaf index ranges). `values` are the training
/// targets (mean mode) or current gradients (Newton mode), indexed by row
/// id. Nodes come back in preorder.
inline std::vector<GrowNode> GrowHistTree(const BinnedDataset& bins,
                                          const BinMapper& mapper,
                                          const HistogramLayout& layout,
                                          std::span<const double> values,
                                          DataPartition* partition,
                                          const GrowSpec& spec) {
  internal::HistTreeGrower grower(bins, mapper, layout, values, partition,
                                  spec);
  return grower.Grow();
}

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_HISTOGRAM_H_
