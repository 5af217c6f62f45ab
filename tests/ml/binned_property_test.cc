// Property suite for binned training (docs/binned-training.md): on
// randomized corpora — degenerate constant and duplicate-heavy columns,
// feature cardinalities on both sides of the 256-distinct-value bin-width
// boundary — every stored bin must be the one BinMapper::BinOf gives for
// the raw value, and the DataPartition leaf ranges of a completed grow must
// never lose a sample.
// The sparse node histograms must keep every bin off their live lists at
// exactly (+0.0, 0), and sparse growth must equal dense growth byte for
// byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"
#include "ml/histogram.h"

namespace nextmaint {
namespace ml {
namespace {

/// Ways a feature column can be shaped; the degenerate ones are the bin
/// mapper's edge cases.
enum class ColumnKind {
  kConstant,       // single distinct value -> single-bin mapper
  kFewDistinct,    // heavy duplicates, far fewer values than bins
  kContinuous,     // effectively all-distinct
  kManyDistinct,   // > 256 distinct values -> wide (uint16_t) columns
};

/// Builds a randomized corpus: `rows` rows of `kinds`-shaped feature
/// columns plus a target correlated with the non-degenerate features.
Dataset MakeCorpus(Rng* rng, size_t rows,
                   const std::vector<ColumnKind>& kinds) {
  std::vector<std::vector<double>> columns;
  for (const ColumnKind kind : kinds) {
    std::vector<double> column(rows);
    switch (kind) {
      case ColumnKind::kConstant: {
        const double value = rng->Uniform(-5, 5);
        std::fill(column.begin(), column.end(), value);
        break;
      }
      case ColumnKind::kFewDistinct:
        for (double& cell : column) {
          cell = static_cast<double>(rng->UniformInt(uint64_t{6}));
        }
        break;
      case ColumnKind::kContinuous:
        for (double& cell : column) cell = rng->Uniform(0, 100);
        break;
      case ColumnKind::kManyDistinct:
        // i + jitter keeps every cell distinct, so distinct count == rows.
        for (size_t i = 0; i < rows; ++i) {
          column[i] = static_cast<double>(i) + rng->Uniform(0.0, 0.5);
        }
        break;
    }
    columns.push_back(std::move(column));
  }
  Dataset d;
  std::vector<double> row(kinds.size());
  for (size_t r = 0; r < rows; ++r) {
    double target = 0.0;
    for (size_t f = 0; f < kinds.size(); ++f) {
      row[f] = columns[f][r];
      target += (f + 1) * 0.3 * row[f];
    }
    d.AddRow(std::span<const double>(row.data(), row.size()),
             target + rng->Normal(0, 0.25));
  }
  return d;
}

/// The storage contract every grower input rests on: each stored bin is
/// the mapper's bin for the raw value, and a column is narrow exactly when
/// its feature uses at most 256 bins.
void ExpectBinsMatchMapper(const Matrix& x, const BinMapper& mapper,
                           const BinnedDataset& binned,
                           const std::string& where) {
  ASSERT_EQ(binned.num_rows(), x.rows()) << where;
  ASSERT_EQ(binned.num_features(), x.cols()) << where;
  for (size_t f = 0; f < x.cols(); ++f) {
    EXPECT_EQ(binned.IsNarrow(f), mapper.BinCount(f) <= 256)
        << where << " feature " << f;
    for (size_t r = 0; r < x.rows(); ++r) {
      ASSERT_EQ(binned.Bin(f, r), mapper.BinOf(f, x(r, f)))
          << where << " feature " << f << " row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Binning: crossing the 256-distinct boundary flips the binned columns from
// uint8_t to uint16_t storage; the bins the grower reads must not change.

TEST(BinnedPropertyTest, WideBinCountsCrossTheNarrowStorageBoundary) {
  Rng rng(55);
  const Dataset train =
      MakeCorpus(&rng, 400,
                 {ColumnKind::kManyDistinct, ColumnKind::kFewDistinct});

  // Pin the storage-width dispatch itself.
  BinMapper mapper;
  mapper.Compute(train.x(), /*max_bins=*/400);
  ASSERT_GT(mapper.BinCount(0), 256u);
  ASSERT_LE(mapper.BinCount(1), 256u);
  BinnedDataset binned;
  binned.Build(train.x(), mapper);
  EXPECT_FALSE(binned.IsNarrow(0));
  EXPECT_TRUE(binned.IsNarrow(1));
  ExpectBinsMatchMapper(train.x(), mapper, binned, "pinned corpus");

  // Randomized corpora holding every column kind, binned on both sides of
  // the boundary: wide columns need more than 256 rows of kManyDistinct
  // and a max_bins above 256.
  size_t wide_columns = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const size_t rows = 30 + rng.UniformInt(uint64_t{570});
    std::vector<ColumnKind> kinds = {
        ColumnKind::kConstant, ColumnKind::kFewDistinct,
        ColumnKind::kContinuous, ColumnKind::kManyDistinct};
    const size_t extra = rng.UniformInt(uint64_t{3});
    for (size_t f = 0; f < extra; ++f) {
      kinds.push_back(static_cast<ColumnKind>(rng.UniformInt(uint64_t{4})));
    }
    const Dataset corpus = MakeCorpus(&rng, rows, kinds);
    for (const int max_bins : {2, 64, 256, 1024}) {
      BinMapper trial_mapper;
      trial_mapper.Compute(corpus.x(), max_bins);
      BinnedDataset trial_binned;
      trial_binned.Build(corpus.x(), trial_mapper, /*num_threads=*/2);
      ExpectBinsMatchMapper(corpus.x(), trial_mapper, trial_binned,
                            "trial " + std::to_string(trial) + " (" +
                                std::to_string(rows) + " rows, max_bins " +
                                std::to_string(max_bins) + ")");
      for (size_t f = 0; f < kinds.size(); ++f) {
        if (!trial_binned.IsNarrow(f)) ++wide_columns;
      }
    }
  }
  EXPECT_GT(wide_columns, 0u) << "no randomized corpus reached u16 storage";
}

// ---------------------------------------------------------------------------
// DataPartition: the grower's in-place permutation must conserve the row
// multiset, and the recorded leaf ranges must tile it exactly.

std::map<uint32_t, size_t> RowMultiset(const DataPartition& partition) {
  std::map<uint32_t, size_t> counts;
  for (const uint32_t row : partition.indices()) ++counts[row];
  return counts;
}

TEST(BinnedPropertyTest, PartitionSplitConservesTheRowMultiset) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    // Bootstrap-style multiset: random rows drawn with replacement.
    const size_t n = 5 + rng.UniformInt(uint64_t{60});
    std::vector<size_t> rows(n);
    for (size_t& row : rows) row = rng.UniformInt(uint64_t{40});
    DataPartition partition;
    partition.Reset(rows);
    ASSERT_EQ(partition.size(), n);
    const std::map<uint32_t, size_t> before = RowMultiset(partition);

    // A chain of random nested splits touching random sub-ranges.
    const uint32_t pivot1 = static_cast<uint32_t>(rng.UniformInt(uint64_t{40}));
    const size_t mid = partition.Split(
        0, n, [&](uint32_t row) { return row < pivot1; });
    ASSERT_LE(mid, n);
    const uint32_t pivot2 = static_cast<uint32_t>(rng.UniformInt(uint64_t{40}));
    partition.Split(mid, n, [&](uint32_t row) { return row % 2 == 0 &&
                                                       row < pivot2; });
    EXPECT_EQ(RowMultiset(partition), before) << "trial " << trial;
  }
}

TEST(BinnedPropertyTest, LeavesCoverAllDetectsLostAndDuplicatedRanges) {
  DataPartition partition;
  partition.Reset(size_t{10});

  // Exact in-order tiling passes.
  partition.AddLeaf(0, 4);
  partition.AddLeaf(4, 9);
  partition.AddLeaf(9, 10);
  EXPECT_TRUE(partition.LeavesCoverAll());

  // A gap (lost samples) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 4);
  partition.AddLeaf(5, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // An overlap (double-counted samples) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 6);
  partition.AddLeaf(5, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // A truncated tiling (missing tail) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 4);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // An empty leaf range can never appear in a completed grow.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 10);
  partition.AddLeaf(10, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());
}

// End-to-end: a completed grow on a randomized corpus records leaf ranges
// that tile every bootstrap sample exactly once.
TEST(BinnedPropertyTest, CompletedGrowTilesEverySample) {
  Rng rng(123);
  const Dataset train = MakeCorpus(
      &rng, 160, {ColumnKind::kContinuous, ColumnKind::kFewDistinct,
                  ColumnKind::kConstant});
  BinMapper mapper;
  mapper.Compute(train.x(), /*max_bins=*/64);
  const HistogramLayout layout(mapper);
  BinnedDataset binned;
  binned.Build(train.x(), mapper);

  std::vector<size_t> bootstrap(train.num_rows());
  for (size_t& row : bootstrap) row = rng.UniformInt(train.num_rows());
  DataPartition partition;
  partition.Reset(bootstrap);
  const std::map<uint32_t, size_t> before = RowMultiset(partition);

  GrowSpec spec;
  spec.depth_limited = true;
  spec.max_depth = 6;
  spec.min_samples_leaf = 2;
  const std::vector<GrowNode> nodes = GrowHistTree(
      binned, mapper, layout, train.y(), &partition, spec);
  ASSERT_FALSE(nodes.empty());
  EXPECT_TRUE(partition.LeavesCoverAll());
  EXPECT_EQ(RowMultiset(partition), before);

  // Leaf range sizes sum to the sample count.
  size_t covered = 0;
  for (const auto& [begin, end] : partition.leaf_ranges()) {
    ASSERT_LT(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, train.num_rows());
}

// ---------------------------------------------------------------------------
// Sparse node histograms (ml/histogram.h). Integer day targets never leave a
// subtraction residual, so these fixtures use non-integer values, XGB-style
// gradients, -0.0 values and bootstrap duplicates.

/// Per-row values that exercise every list rule: non-integer sums that
/// leave residuals on emptied bins after a subtraction, and signed zeros.
std::vector<double> AdversarialValues(Rng* rng, size_t n) {
  std::vector<double> values(n);
  for (double& value : values) {
    const uint64_t kind = rng->UniformInt(uint64_t{10});
    if (kind < 2) {
      value = -0.0;
    } else if (kind < 3) {
      value = 0.0;
    } else {
      value = 0.1 * static_cast<double>(rng->UniformInt(uint64_t{50})) - 2.3;
    }
  }
  return values;
}

/// Bootstrap multiset over [0, n): duplicates included.
std::vector<uint32_t> BootstrapRows(Rng* rng, size_t n) {
  std::vector<uint32_t> rows(n);
  for (uint32_t& row : rows) row = static_cast<uint32_t>(rng->UniformInt(n));
  return rows;
}

/// The live-list invariant: every listed bin is in range and ascending, and
/// every bin off the list is exactly (+0.0, 0).
void ExpectListsExact(const NodeHistogram& hist, const HistogramLayout& layout,
                      const std::string& where) {
  ASSERT_TRUE(hist.sparse()) << where;
  for (size_t f = 0; f < layout.num_features(); ++f) {
    std::vector<char> listed(layout.feature_bins(f), 0);
    int previous = -1;
    for (const uint16_t b : hist.live(layout, f)) {
      ASSERT_LT(b, layout.feature_bins(f)) << where;
      ASSERT_GT(static_cast<int>(b), previous) << where << " (unsorted)";
      previous = b;
      listed[b] = 1;
    }
    for (size_t b = 0; b < listed.size(); ++b) {
      if (listed[b]) continue;
      EXPECT_EQ(hist.count(layout, f)[b], 0u)
          << where << " feature " << f << " bin " << b;
      EXPECT_EQ(std::bit_cast<uint64_t>(hist.grad(layout, f)[b]), 0u)
          << where << " feature " << f << " bin " << b << " holds "
          << hist.grad(layout, f)[b] << " off the list";
    }
  }
}

/// A sparse histogram equals its dense twin bit for bit, on and off its
/// lists (no bin of either ever holds -0.0).
void ExpectMatchesDense(const NodeHistogram& sparse, const NodeHistogram& dense,
                        const HistogramLayout& layout,
                        const std::string& where) {
  for (size_t f = 0; f < layout.num_features(); ++f) {
    for (size_t b = 0; b < layout.feature_bins(f); ++b) {
      EXPECT_EQ(sparse.count(layout, f)[b], dense.count(layout, f)[b])
          << where << " feature " << f << " bin " << b;
      EXPECT_EQ(std::bit_cast<uint64_t>(sparse.grad(layout, f)[b]),
                std::bit_cast<uint64_t>(dense.grad(layout, f)[b]))
          << where << " feature " << f << " bin " << b;
    }
  }
}

// Drives NodeHistogram the way the grower does — per-level buffer reuse,
// smaller child filled, parent buffer turned into the larger child — on
// random splits, with a dense twin alongside, and checks the invariant after
// every fill and every subtraction.
TEST(BinnedPropertyTest, SparseListsStayExactAfterEveryFillAndSubtract) {
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const Dataset train =
        MakeCorpus(&rng, 240,
                   {ColumnKind::kContinuous, ColumnKind::kFewDistinct,
                    ColumnKind::kConstant, ColumnKind::kContinuous});
    BinMapper mapper;
    mapper.Compute(train.x(), /*max_bins=*/32);
    const HistogramLayout layout(mapper);
    BinnedDataset binned;
    binned.Build(train.x(), mapper);
    const std::vector<double> values =
        AdversarialValues(&rng, train.num_rows());
    std::vector<uint32_t> rows = BootstrapRows(&rng, train.num_rows());

    std::vector<std::unique_ptr<NodeHistogram>> sparse_pool;
    std::vector<std::unique_ptr<NodeHistogram>> dense_pool;
    const auto acquire = [](std::vector<std::unique_ptr<NodeHistogram>>* pool,
                            size_t level) {
      while (pool->size() <= level) {
        pool->push_back(std::make_unique<NodeHistogram>());
      }
      return (*pool)[level].get();
    };
    NodeHistogram* sparse_root = acquire(&sparse_pool, 0);
    NodeHistogram* dense_root = acquire(&dense_pool, 0);
    const std::span<const uint32_t> all(rows);
    sparse_root->Fill(binned, layout, all, values, nullptr, false);
    dense_root->Fill(binned, layout, all, values, nullptr, false);
    ASSERT_FALSE(sparse_root->sparse());
    ASSERT_FALSE(dense_root->sparse());

    size_t checks = 0;
    std::function<void(size_t, size_t, size_t, NodeHistogram*,
                       NodeHistogram*)>
        grow = [&](size_t begin, size_t end, size_t depth,
                   NodeHistogram* sparse, NodeHistogram* dense) {
          const std::string where = "trial " + std::to_string(trial) +
                                    " depth " + std::to_string(depth);
          if (!sparse->sparse() && rng.UniformInt(uint64_t{2}) == 0) {
            sparse->MakeSparse(layout);
            ExpectListsExact(*sparse, layout, where + " after MakeSparse");
          }
          ExpectMatchesDense(*sparse, *dense, layout, where);
          if (end - begin < 2 || depth > 12) return;
          // Cut at the bin of a random row of the node, retrying until
          // both sides are non-empty.
          size_t f = 0;
          uint32_t cut = 0;
          size_t left_count = 0;
          for (int attempt = 0; attempt < 16; ++attempt) {
            f = rng.UniformInt(layout.num_features());
            cut = binned.Bin(f, rows[begin + rng.UniformInt(end - begin)]);
            left_count = static_cast<size_t>(std::count_if(
                rows.begin() + static_cast<ptrdiff_t>(begin),
                rows.begin() + static_cast<ptrdiff_t>(end),
                [&](uint32_t row) { return binned.Bin(f, row) <= cut; }));
            if (left_count > 0 && left_count < end - begin) break;
          }
          if (left_count == 0 || left_count == end - begin) return;
          std::partition(rows.begin() + static_cast<ptrdiff_t>(begin),
                         rows.begin() + static_cast<ptrdiff_t>(end),
                         [&](uint32_t row) {
                           return binned.Bin(f, row) <= cut;
                         });
          const size_t mid = begin + left_count;
          const bool left_smaller = mid - begin <= end - mid;
          const size_t small_begin = left_smaller ? begin : mid;
          const size_t small_end = left_smaller ? mid : end;
          const std::span<const uint32_t> small =
              std::span<const uint32_t>(rows).subspan(small_begin,
                                                      small_end - small_begin);
          NodeHistogram* sparse_child = acquire(&sparse_pool, depth + 1);
          NodeHistogram* dense_child = acquire(&dense_pool, depth + 1);
          const bool was_sparse = sparse->sparse();
          sparse_child->Fill(binned, layout, small, values, sparse, true);
          dense_child->Fill(binned, layout, small, values, dense, true);
          EXPECT_EQ(sparse_child->sparse(), was_sparse) << where;
          if (was_sparse) {
            ExpectListsExact(*sparse_child, layout, where + " after fill");
            ExpectListsExact(*sparse, layout, where + " after subtract");
            checks += 2;
          }
          NodeHistogram* sparse_left = left_smaller ? sparse_child : sparse;
          NodeHistogram* sparse_right = left_smaller ? sparse : sparse_child;
          NodeHistogram* dense_left = left_smaller ? dense_child : dense;
          NodeHistogram* dense_right = left_smaller ? dense : dense_child;
          grow(begin, mid, depth + 1, sparse_left, dense_left);
          grow(mid, end, depth + 1, sparse_right, dense_right);
        };
    grow(0, rows.size(), 0, sparse_root, dense_root);
    EXPECT_GT(checks, 0u) << "trial " << trial << " never went sparse";
  }
}

std::string NodeBytes(const std::vector<GrowNode>& nodes) {
  std::ostringstream out;
  for (const GrowNode& node : nodes) {
    out << node.left << ' ' << node.right << ' ' << node.feature << ' '
        << std::bit_cast<uint64_t>(node.threshold) << ' '
        << std::bit_cast<uint64_t>(node.value) << ' '
        << std::bit_cast<uint64_t>(node.gain) << '\n';
  }
  return std::move(out).str();
}

std::string GrowBytes(const BinnedDataset& bins, const BinMapper& mapper,
                      const HistogramLayout& layout,
                      std::span<const double> values,
                      const std::vector<size_t>& rows, const GrowSpec& spec,
                      bool allow_sparse) {
  DataPartition partition;
  partition.Reset(rows);
  internal::HistTreeGrower grower(bins, mapper, layout, values, &partition,
                                  spec);
  return NodeBytes(grower.Grow(allow_sparse));
}

// Sparse growth against the all-dense reference: every node — split, bin,
// threshold, leaf payload and gain bits — must match, for forest-style
// (mean mode, full depth, feature subsets, bootstrap duplicates) and
// boosting-style (Newton mode on gradients, depth-limited) trees.
TEST(BinnedPropertyTest, SparseGrowthEqualsDenseGrowthByteForByte) {
  Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 200 + rng.UniformInt(uint64_t{400});
    const Dataset train =
        MakeCorpus(&rng, n,
                   {ColumnKind::kContinuous, ColumnKind::kManyDistinct,
                    ColumnKind::kFewDistinct, ColumnKind::kConstant});
    BinMapper mapper;
    mapper.Compute(train.x(), /*max_bins=*/64);
    const HistogramLayout layout(mapper);
    BinnedDataset binned;
    binned.Build(train.x(), mapper);

    const std::vector<double> targets = AdversarialValues(&rng, n);
    std::vector<double> gradients(n);
    for (size_t i = 0; i < n; ++i) gradients[i] = 0.37 - targets[i];
    std::vector<size_t> bootstrap(n);
    for (size_t& row : bootstrap) row = rng.UniformInt(n);
    std::vector<size_t> identity(n);
    std::iota(identity.begin(), identity.end(), size_t{0});

    GrowSpec forest;
    forest.max_features = trial % 2 == 0 ? 0 : 2;
    forest.seed = 1000 + static_cast<uint64_t>(trial);
    GrowSpec boosting;
    boosting.newton = true;
    boosting.depth_limited = true;
    boosting.max_depth = 9;
    boosting.min_samples_leaf = 3;
    boosting.learning_rate = 0.3;
    boosting.l2 = 0.5;

    const struct {
      const char* name;
      const GrowSpec& spec;
      const std::vector<double>& values;
      const std::vector<size_t>& rows;
    } cases[] = {{"forest", forest, targets, bootstrap},
                 {"boosting", boosting, gradients, identity}};
    for (const auto& c : cases) {
      const std::string dense = GrowBytes(binned, mapper, layout, c.values,
                                          c.rows, c.spec, false);
      EXPECT_EQ(GrowBytes(binned, mapper, layout, c.values, c.rows, c.spec,
                          true),
                dense)
          << c.name << " diverged on trial " << trial << " (" << n
          << " rows)";
    }
  }
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
