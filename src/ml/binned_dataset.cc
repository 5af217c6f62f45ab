#include "ml/binned_dataset.h"

#include <algorithm>

#include "common/macros.h"
#include "common/parallel.h"

namespace nextmaint {
namespace ml {

void BinMapper::Compute(const Matrix& x, int max_bins) {
  NM_CHECK(max_bins >= 2 && max_bins <= 65535);
  thresholds_.assign(x.cols(), {});
  std::vector<double> values;
  for (size_t f = 0; f < x.cols(); ++f) {
    values = x.Col(f);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());

    std::vector<double>& bounds = thresholds_[f];
    if (values.size() <= 1) {
      // Degenerate column (all-identical, or an empty matrix): a single bin
      // whose boundary is the value itself (0.0 when there are no rows).
      // BinOf sends every query — below, equal or above — to bin 0, and the
      // split search skips single-bin features, so the column can never be
      // split on; pinned by dataset_test.cc.
      bounds.push_back(values.empty() ? 0.0 : values.front());
    } else if (values.size() <= static_cast<size_t>(max_bins)) {
      // Few distinct values: one bin per value; boundary is the value.
      bounds = values;
    } else {
      // Quantile boundaries over the distinct values. Using distinct values
      // (not raw rows) keeps heavily repeated values (zero-usage days!) from
      // collapsing many bins into one.
      bounds.reserve(static_cast<size_t>(max_bins));
      for (int b = 1; b <= max_bins; ++b) {
        const double q = static_cast<double>(b) /
                         static_cast<double>(max_bins);
        const double pos = q * static_cast<double>(values.size() - 1);
        bounds.push_back(values[static_cast<size_t>(pos)]);
      }
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    }
  }
}

uint16_t BinMapper::BinOf(size_t feature, double value) const {
  NM_CHECK(feature < thresholds_.size());
  const std::vector<double>& bounds = thresholds_[feature];
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const size_t bin = it == bounds.end()
                         ? bounds.size() - 1
                         : static_cast<size_t>(it - bounds.begin());
  return static_cast<uint16_t>(bin);
}

double BinMapper::UpperBound(size_t feature, uint16_t bin) const {
  NM_CHECK(feature < thresholds_.size());
  NM_CHECK(bin < thresholds_[feature].size());
  return thresholds_[feature][bin];
}

size_t BinMapper::BinCount(size_t feature) const {
  NM_CHECK(feature < thresholds_.size());
  return thresholds_[feature].size();
}

void BinnedDataset::Build(const Matrix& x, const BinMapper& mapper,
                          int num_threads) {
  NM_CHECK(mapper.num_features() == x.cols());
  num_rows_ = x.rows();
  columns_.assign(x.cols(), Column{});
  const Status status = ParallelFor(
      0, x.cols(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t f = chunk_begin; f < chunk_end; ++f) {
          Column& column = columns_[f];
          column.narrow = mapper.BinCount(f) <= 256;
          if (column.narrow) {
            column.u8.resize(num_rows_);
            for (size_t r = 0; r < num_rows_; ++r) {
              column.u8[r] = static_cast<uint8_t>(mapper.BinOf(f, x(r, f)));
            }
          } else {
            column.u16.resize(num_rows_);
            for (size_t r = 0; r < num_rows_; ++r) {
              column.u16[r] = mapper.BinOf(f, x(r, f));
            }
          }
        }
        return Status::OK();
      },
      num_threads);
  NM_CHECK(status.ok());  // the binning body has no failure path
}

size_t BinnedDataset::MemoryBytes() const {
  size_t bytes = 0;
  for (const Column& column : columns_) {
    bytes += column.u8.size() * sizeof(uint8_t);
    bytes += column.u16.size() * sizeof(uint16_t);
  }
  return bytes;
}

namespace {

std::shared_ptr<const PreBinned> ComputeBinning(const Matrix& x, int max_bins,
                                                int num_threads) {
  auto binning = std::make_shared<PreBinned>();
  binning->mapper.Compute(x, max_bins);
  binning->binned.Build(x, binning->mapper, num_threads);
  return binning;
}

}  // namespace

bool BinningCache::Key::operator<(const Key& other) const {
  if (fingerprint != other.fingerprint) {
    return fingerprint < other.fingerprint;
  }
  if (rows != other.rows) return rows < other.rows;
  if (cols != other.cols) return cols < other.cols;
  return max_bins < other.max_bins;
}

std::shared_ptr<const PreBinned> BinningCache::GetOrCompute(const Matrix& x,
                                                            int max_bins,
                                                            int num_threads) {
  const Key key{FingerprintMatrix(x), x.rows(), x.cols(), max_bins};
  MutexLock lock(mutex_);
  ++lookups_;
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  if (entries_.size() >= kMaxEntries) entries_.clear();
  std::shared_ptr<const PreBinned> entry =
      ComputeBinning(x, max_bins, num_threads);
  entries_.emplace(key, entry);
  return entry;
}

BinningCache::Stats BinningCache::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.lookups = lookups_;
  stats.hits = hits_;
  stats.entries = entries_.size();
  return stats;
}

void BinningCache::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
}

std::shared_ptr<const PreBinned> PrepareBinning(const Matrix& x, int max_bins,
                                                int num_threads,
                                                BinningCache* cache) {
  return cache != nullptr ? cache->GetOrCompute(x, max_bins, num_threads)
                          : ComputeBinning(x, max_bins, num_threads);
}

}  // namespace ml
}  // namespace nextmaint
