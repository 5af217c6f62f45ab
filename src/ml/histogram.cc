#include "ml/histogram.h"


namespace nextmaint {
namespace ml {

void NodeHistogram::Reset(const HistogramLayout& layout, bool sparse) {
  if (grad_.size() != layout.total_bins()) {
    grad_.assign(layout.total_bins(), 0.0);
    count_.assign(layout.total_bins(), 0);
    live_.resize(layout.total_bins());
  } else if (sparse_) {
    for (size_t f = 0; f < layout.num_features(); ++f) {
      double* grad_f = grad(layout, f);
      uint32_t* count_f = count(layout, f);
      for (const uint16_t b : live(layout, f)) {
        grad_f[b] = 0.0;
        count_f[b] = 0;
      }
    }
  } else {
    std::fill(grad_.begin(), grad_.end(), 0.0);
    std::fill(count_.begin(), count_.end(), 0);
  }
  live_size_.assign(layout.num_features(), 0);
  sparse_ = sparse;
}

void NodeHistogram::MakeSparse(const HistogramLayout& layout) {
  if (sparse_) return;
  for (size_t f = 0; f < layout.num_features(); ++f) {
    const double* grad_f = grad(layout, f);
    const uint32_t* count_f = count(layout, f);
    uint16_t* live_f = live_.data() + layout.feature_offset(f);
    const size_t bins = layout.feature_bins(f);
    size_t kept = 0;
    for (size_t b = 0; b < bins; ++b) {
      live_f[kept] = static_cast<uint16_t>(b);  // branch-free compaction
      kept += (count_f[b] != 0) | (grad_f[b] != 0.0);
    }
    live_size_[f] = kept;
  }
  sparse_ = true;
}

void NodeHistogram::ListFilledBins(const HistogramLayout& layout, size_t f,
                                   const NodeHistogram& parent) {
  const uint32_t* count_f = count(layout, f);
  uint16_t* live_f = live_.data() + layout.feature_offset(f);
  size_t kept = 0;
  for (const uint16_t b : parent.live(layout, f)) {
    live_f[kept] = b;  // branch-free compaction: kept <= this index
    kept += count_f[b] != 0;
  }
  live_size_[f] = kept;
}

void NodeHistogram::SubtractFeature(const HistogramLayout& layout, size_t f,
                                    const NodeHistogram& sibling) {
  double* grad_f = grad(layout, f);
  uint32_t* count_f = count(layout, f);
  const double* sibling_grad = sibling.grad(layout, f);
  const uint32_t* sibling_count = sibling.count(layout, f);
  if (!sparse_) {
    const size_t bins = layout.feature_bins(f);
    for (size_t b = 0; b < bins; ++b) {
      grad_f[b] -= sibling_grad[b];
      count_f[b] -= sibling_count[b];
    }
    return;
  }
  // The sibling's rows are a subset of this node's, so every bin it
  // occupies is on this list; off the list both sides are (+0.0, 0).
  uint16_t* live_f = live_.data() + layout.feature_offset(f);
  const size_t size = live_size_[f];
  size_t kept = 0;
  for (size_t i = 0; i < size; ++i) {
    const uint16_t b = live_f[i];
    grad_f[b] -= sibling_grad[b];
    count_f[b] -= sibling_count[b];
    live_f[kept] = b;
    kept += (count_f[b] != 0) | (grad_f[b] != 0.0);
  }
  live_size_[f] = kept;
}

void DataPartition::Reset(size_t n) {
  indices_.resize(n);
  std::iota(indices_.begin(), indices_.end(), uint32_t{0});
  leaves_.clear();
}

void DataPartition::Reset(const std::vector<size_t>& rows) {
  indices_.clear();
  indices_.reserve(rows.size());
  for (const size_t row : rows) {
    indices_.push_back(static_cast<uint32_t>(row));
  }
  leaves_.clear();
}

bool DataPartition::LeavesCoverAll() const {
  size_t cursor = 0;
  for (const auto& [begin, end] : leaves_) {
    if (begin != cursor || end <= begin) return false;
    cursor = end;
  }
  return cursor == indices_.size();
}

}  // namespace ml
}  // namespace nextmaint
