#ifndef NEXTMAINT_ML_BINNED_DATASET_H_
#define NEXTMAINT_ML_BINNED_DATASET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "ml/matrix.h"

/// \file binned_dataset.h
/// Columnar pre-binned training representation for the tree learners
/// (LightGBM-style): a BinMapper quantizes each feature into at most
/// `max_bins` quantile bins, a BinnedDataset materializes one contiguous
/// bin column per feature (uint8_t when the feature uses <= 256 bins,
/// uint16_t otherwise), and a BinningCache keys (matrix bytes, max_bins)
/// pairs so grid-search candidates and serving refreshes bin each vehicle's
/// data once instead of once per fit. See docs/binned-training.md.

namespace nextmaint {
namespace ml {

/// Quantile binning of a feature matrix; shared by training and ablation
/// benches (bin-count sensitivity).
class BinMapper {
 public:
  /// Computes per-feature quantile boundaries from `x` (at most
  /// max_bins bins per feature). Named Compute rather than Fit: the Fit
  /// name is reserved for Status-returning training entry points
  /// (nextmaint_lint tracks those by name).
  ///
  /// Degenerate columns collapse to a single bin: an all-identical column
  /// maps every value (below, equal or above the stored boundary) to bin 0,
  /// and split search skips the feature because one bin admits no boundary.
  /// tests/ml/dataset_test.cc pins this contract.
  void Compute(const Matrix& x, int max_bins);

  /// Bin index of a raw value for feature `feature`.
  uint16_t BinOf(size_t feature, double value) const;

  /// Upper boundary of `bin` for `feature` — the numeric threshold a split
  /// at this bin corresponds to.
  double UpperBound(size_t feature, uint16_t bin) const;

  /// Number of distinct bins actually used by `feature`.
  size_t BinCount(size_t feature) const;

  size_t num_features() const { return thresholds_.size(); }

 private:
  // thresholds_[f] holds ascending bin upper-boundaries; value <= t[b]
  // belongs to the first such bin b; values above the last boundary go to
  // the final bin.
  std::vector<std::vector<double>> thresholds_;
};

/// Columnar bin storage: one contiguous column per feature, packed to
/// uint8_t when the feature uses at most 256 bins and uint16_t otherwise.
/// Histogram kernels stream these columns instead of striding across the
/// row-major matrix.
class BinnedDataset {
 public:
  BinnedDataset() = default;

  /// Bins every cell of `x` through `mapper`. Features are binned
  /// independently (one column per task), so the parallel result is
  /// identical to the serial one at any thread count.
  void Build(const Matrix& x, const BinMapper& mapper, int num_threads = 1);

  /// Bin of (feature, row); valid after Build.
  uint32_t Bin(size_t feature, size_t row) const {
    const Column& column = columns_[feature];
    return column.narrow ? column.u8[row] : column.u16[row];
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return columns_.size(); }
  /// True when `feature` is stored as uint8_t (<= 256 bins).
  bool IsNarrow(size_t feature) const { return columns_[feature].narrow; }
  /// Raw column storage, for the grower's hoisted per-feature fill loops;
  /// valid only for the matching IsNarrow() width.
  const uint8_t* NarrowColumn(size_t feature) const {
    return columns_[feature].u8.data();
  }
  const uint16_t* WideColumn(size_t feature) const {
    return columns_[feature].u16.data();
  }
  /// Bytes of bin storage (bench/diagnostics).
  size_t MemoryBytes() const;

 private:
  struct Column {
    bool narrow = true;
    std::vector<uint8_t> u8;
    std::vector<uint16_t> u16;
  };
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// One fully prepared binning of a training matrix: the mapper plus the
/// materialized columns it produced.
struct PreBinned {
  BinMapper mapper;
  BinnedDataset binned;
};

/// Thread-safe, content-addressed cache of PreBinned instances. Keys are a
/// fingerprint of the raw matrix bytes plus (rows, cols, max_bins), so any
/// caller fitting on the same data — every grid-search candidate, every CV
/// fold re-materialization, every serving refresh on unchanged data — hits
/// the same entry, while different fold subsets or appended days key
/// separately and can never alias. Capacity is bounded: when the entry cap
/// is reached the cache resets wholesale (deterministic, and the next fit
/// simply recomputes).
class BinningCache {
 public:
  struct Stats {
    size_t lookups = 0;
    /// Lookups served from an existing entry.
    size_t hits = 0;
    /// Entries currently resident.
    size_t entries = 0;
  };

  /// Returns the shared PreBinned for (x, max_bins), computing and
  /// inserting it on a miss. Concurrent callers are serialized; the
  /// returned object is immutable and safe to share across threads.
  std::shared_ptr<const PreBinned> GetOrCompute(const Matrix& x, int max_bins,
                                                int num_threads = 1)
      EXCLUDES(mutex_);

  Stats stats() const EXCLUDES(mutex_);
  void Clear() EXCLUDES(mutex_);

 private:
  struct Key {
    uint64_t fingerprint = 0;
    size_t rows = 0;
    size_t cols = 0;
    int max_bins = 0;
    bool operator<(const Key& other) const;
  };

  /// Wholesale-reset threshold; see class comment.
  static constexpr size_t kMaxEntries = 64;

  mutable Mutex mutex_;
  std::map<Key, std::shared_ptr<const PreBinned>> entries_ GUARDED_BY(mutex_);
  size_t lookups_ GUARDED_BY(mutex_) = 0;
  size_t hits_ GUARDED_BY(mutex_) = 0;
};

/// The binning a tree fit trains on: the cache's shared entry for
/// (x, max_bins) when `cache` is non-null, a freshly computed one
/// otherwise. Both are built the same way, so the choice never changes a
/// model byte.
std::shared_ptr<const PreBinned> PrepareBinning(const Matrix& x, int max_bins,
                                                int num_threads,
                                                BinningCache* cache);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_BINNED_DATASET_H_
