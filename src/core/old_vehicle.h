#ifndef NEXTMAINT_CORE_OLD_VEHICLE_H_
#define NEXTMAINT_CORE_OLD_VEHICLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset_builder.h"
#include "core/errors.h"
#include "core/series.h"
#include "ml/binned_dataset.h"
#include "ml/regressor.h"

/// \file old_vehicle.h
/// Methodology for old vehicles (Section 4.3): per-vehicle models, first
/// 70% of samples as training set, grid search with 5-fold CV, selection of
/// the model minimizing E_MRE({1..29}) on the last 29 days per cycle.

namespace nextmaint {
namespace core {

/// Identity of one fit's inputs: the algorithm, the options that shape the
/// fit and the exact training bytes. Every fit is a pure function of these
/// (at any thread count), so two fits with equal keys produce byte-identical
/// models.
struct FitKey {
  std::string algorithm;
  /// Grid-search settings (all zero/false for an untuned fit).
  bool tune = false;
  int grid_budget = 0;
  int grid_early_stopping_patience = 0;
  uint64_t seed = 0;
  /// Exact training-set shape plus ml::FingerprintMatrix of x chained with
  /// ml::FingerprintValues of y.
  size_t rows = 0;
  size_t cols = 0;
  uint64_t fingerprint = 0;

  /// The key of an untuned fit of `algorithm` on `train`.
  static FitKey Of(const std::string& algorithm, const ml::Dataset& train);

  bool operator==(const FitKey&) const = default;
};

/// Per-vehicle memo of the fits behind its last training, so a retrain whose
/// training set is byte-identical to the previous one skips the fit. A day
/// appended mid-cycle adds no labelled row (the target is the number of days
/// to the *next* maintenance), so this is the common case of an incremental
/// refresh. Reuse returns exactly the bytes a refit would, so no output
/// changes. Not synchronized: one thread at a time per memo.
struct FitMemo {
  /// One held-out test day's prediction.
  struct TestPoint {
    size_t day = 0;
    /// ml::FingerprintValues of the day's feature row.
    uint64_t row = 0;
    double prediction = 0.0;
  };
  /// The last holdout fit of one algorithm: its key, the grid search's
  /// winning params and its predictions on the test window (in day
  /// order). The model itself is not kept: a reference-fleet RF is
  /// megabytes, its predictions a few kilobytes.
  struct Holdout {
    FitKey key;
    ml::ParamMap best_params;
    std::vector<TestPoint> test;
  };
  /// Last holdout fit per algorithm (EvaluateAlgorithmOnVehicle).
  std::map<std::string, Holdout> holdout;
  /// Key of the fit behind the vehicle's deployed model; nullopt whenever
  /// that model came from anywhere else (checkpoint, warm start, fallback).
  std::optional<FitKey> deployed;
};

/// Options for per-vehicle training/evaluation.
struct OldVehicleOptions {
  /// Chronological train fraction (paper: first 70% of the samples).
  double train_fraction = 0.7;
  /// Window size W of past utilization features.
  int window = 0;
  /// Restrict *training* records to target days in {1..29} — the regime of
  /// Table 1's right-hand column, which the paper shows halves the error.
  bool train_on_last29_only = false;
  /// Time-shift re-sampling augmentation applied to the training data.
  int resampling_shifts = 0;
  /// Run the paper's grid search + 5-fold CV; false trains library
  /// defaults (much faster, used by smoke tests).
  bool tune = true;
  /// Grid density passed to ml::DefaultGridFor (0 coarse, 1 paper grid).
  int grid_budget = 0;
  /// Early-stopping patience for the grid sweep
  /// (GridSearchOptions::early_stopping_patience); 0 keeps the paper's
  /// exhaustive search.
  int grid_early_stopping_patience = 0;
  /// Evaluation restriction for E_MRE (paper default {1..29}).
  DaySet eval_days = DaySet::Last29();
  /// Scale features to [0, 1] (see DatasetOptions::normalize_features).
  bool normalize_features = true;
  /// Optional contextual series (e.g. weather workability, aligned with the
  /// utilization series) appended as forward-looking features; see
  /// DatasetOptions::context / context_forecast_days.
  const std::vector<double>* context = nullptr;
  int context_forecast_days = 0;
  uint64_t seed = 2020;
  /// Optional binning cache shared by the tree learners. With a cache
  /// attached, every grid-search candidate and CV fold on the same matrix
  /// bins the data once.
  std::shared_ptr<ml::BinningCache> binning_cache;
  /// Optional per-vehicle fit memo (not owned). With a memo attached, a
  /// non-BL evaluation whose FitKey matches the memo's entry for the
  /// algorithm, and whose every test day (with the same feature row) is
  /// among the stored ones, returns the stored params and predictions and
  /// skips the grid search, fit and predict.
  FitMemo* fit_memo = nullptr;
};

/// Outcome of evaluating one algorithm on one vehicle.
struct VehicleEvaluation {
  std::string algorithm;
  /// E_MRE(eval_days) on the test period.
  double emre = 0.0;
  /// E_Global on the test period.
  double eglobal = 0.0;
  /// Hyper-parameters chosen by the grid search (empty without tuning).
  ml::ParamMap best_params;
  /// Wall-clock seconds spent in training (including the grid search),
  /// reproducing the Section 5.1 timing analysis.
  double train_seconds = 0.0;
  /// Test-period ground truth / predictions, aligned pairwise (only days
  /// with a defined target). Kept so callers can compute E_MRE({d}) for
  /// any d (Figure 5) without re-training.
  std::vector<double> test_truth;
  std::vector<double> test_predicted;
  /// The trained model; null when the numbers came from a fit-memo hit.
  std::shared_ptr<ml::Regressor> model;
};

/// Trains `algorithm` ("BL", "LR", "LSVR", "RF" or "XGB") on the vehicle's
/// training window and evaluates it on the held-out tail.
///
/// Requirements: the series must contain at least one completed cycle in
/// the training window and one evaluable day in the test window; fails with
/// InvalidArgument otherwise (callers skip such vehicles, as the paper's
/// old-vehicle protocol presumes enough history).
[[nodiscard]] Result<VehicleEvaluation> EvaluateAlgorithmOnVehicle(
    const std::string& algorithm, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options);

/// Runs every algorithm in `algorithms` and returns the evaluations plus
/// the index of the winner by E_MRE — the paper's per-vehicle model
/// selection rule.
struct ModelSelectionResult {
  std::vector<VehicleEvaluation> evaluations;
  size_t best_index = 0;
};
[[nodiscard]] Result<ModelSelectionResult> SelectBestModelForVehicle(
    const std::vector<std::string>& algorithms, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options);

/// Computes E_MRE(DaySet::Single(d)) for each d in [lo, hi] from a stored
/// evaluation (used for Figure 5). Days with no test sample yield NaN.
std::vector<double> PerDayResiduals(const VehicleEvaluation& eval, int lo,
                                    int hi);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_OLD_VEHICLE_H_
