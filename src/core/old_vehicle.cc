#include "core/old_vehicle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "core/baseline.h"
#include "ml/registry.h"

namespace nextmaint {
namespace core {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds the training dataset for one vehicle under the given options
/// (target filter + resampling applied to the training slice only).
Result<ml::Dataset> BuildTrainingData(const data::DailySeries& train_u,
                                      double maintenance_interval_s,
                                      const OldVehicleOptions& options) {
  DatasetOptions dataset_options;
  dataset_options.window = options.window;
  dataset_options.normalize_features = options.normalize_features;
  dataset_options.context = options.context;
  dataset_options.context_forecast_days = options.context_forecast_days;
  if (options.train_on_last29_only) {
    dataset_options.target_filter = DaySet::Last29();
  }
  ResamplingOptions resampling;
  resampling.num_shifts = options.resampling_shifts;
  resampling.seed = options.seed ^ 0x5151;
  return BuildResampledDataset(train_u, maintenance_interval_s,
                               dataset_options, resampling);
}

/// FitKey of a holdout fit: the training bytes plus, when tuning, the grid
/// search settings.
FitKey HoldoutKey(const std::string& algorithm, const ml::Dataset& train,
                  const OldVehicleOptions& options) {
  FitKey key = FitKey::Of(algorithm, train);
  if (options.tune) {
    key.tune = true;
    key.grid_budget = options.grid_budget;
    key.grid_early_stopping_patience = options.grid_early_stopping_patience;
    key.seed = options.seed;
  }
  return key;
}

/// The stored predictions for `days` (with matching feature rows), or
/// nullopt when any day is missing from the memo entry.
std::optional<std::vector<double>> RecallPredictions(
    const FitMemo::Holdout& memo, const std::vector<size_t>& days,
    const std::vector<uint64_t>& rows) {
  std::vector<double> predictions;
  predictions.reserve(days.size());
  auto stored = memo.test.begin();
  for (size_t i = 0; i < days.size(); ++i) {
    while (stored != memo.test.end() && stored->day < days[i]) ++stored;
    if (stored == memo.test.end() || stored->day != days[i] ||
        stored->row != rows[i]) {
      return std::nullopt;
    }
    predictions.push_back(stored->prediction);
  }
  return predictions;
}

}  // namespace

FitKey FitKey::Of(const std::string& algorithm, const ml::Dataset& train) {
  FitKey key;
  key.algorithm = algorithm;
  key.rows = train.num_rows();
  key.cols = train.num_features();
  key.fingerprint =
      ml::FingerprintValues(train.y(), ml::FingerprintMatrix(train.x()));
  return key;
}

Result<VehicleEvaluation> EvaluateAlgorithmOnVehicle(
    const std::string& algorithm, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options) {
  if (options.train_fraction <= 0.0 || options.train_fraction >= 1.0) {
    return Status::InvalidArgument("train_fraction must be in (0, 1)");
  }
  if (options.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }

  // Full-series derivation defines the evaluation ground truth; the
  // training slice shares its cycle phase because both start at day 0.
  NM_ASSIGN_OR_RETURN(VehicleSeries full,
                      DeriveSeries(u, maintenance_interval_s));
  const size_t n = full.size();
  const size_t split =
      static_cast<size_t>(options.train_fraction * static_cast<double>(n));
  if (split == 0 || split >= n) {
    return Status::InvalidArgument("degenerate train/test split");
  }
  const data::DailySeries train_u = u.Slice(0, split);

  VehicleEvaluation eval;
  eval.algorithm = algorithm;

  const double t_start = NowSeconds();
  std::unique_ptr<ml::Regressor> model;
  std::optional<ml::Dataset> train_data;
  if (algorithm == "BL") {
    // BL: average utilization over the training period (Eq. 5); no
    // training beyond that.
    NM_ASSIGN_OR_RETURN(double avg, AverageUtilization(train_u));
    const double l_scale =
        options.normalize_features ? 1.0 / maintenance_interval_s : 1.0;
    model = std::make_unique<BaselinePredictor>(avg, l_scale);
  } else {
    NM_ASSIGN_OR_RETURN(
        train_data,
        BuildTrainingData(train_u, maintenance_interval_s, options));
  }
  eval.train_seconds = NowSeconds() - t_start;

  // Test period: days >= split with a defined target (and >= W so the
  // feature window exists). A feature-row failure surfaces only after the
  // fit, so a fit error keeps precedence.
  DatasetOptions feature_options;
  feature_options.window = options.window;
  feature_options.normalize_features = options.normalize_features;
  feature_options.context = options.context;
  feature_options.context_forecast_days = options.context_forecast_days;
  const size_t first_test_day =
      std::max(split, static_cast<size_t>(options.window));
  ml::Matrix test_x;
  std::vector<size_t> test_days;
  const Status test_status = [&]() -> Status {
    for (size_t t = first_test_day; t < n; ++t) {
      if (!full.HasTarget(t)) continue;
      NM_ASSIGN_OR_RETURN(std::vector<double> row,
                          BuildFeatureRow(full, t, feature_options));
      test_x.AppendRow(std::span<const double>(row.data(), row.size()));
      eval.test_truth.push_back(full.d[t]);
      test_days.push_back(t);
    }
    return Status::OK();
  }();

  // Fit-memo lookup: same training bytes and every test row already
  // predicted by the stored fit.
  FitMemo* memo = train_data.has_value() ? options.fit_memo : nullptr;
  FitKey key;
  std::vector<uint64_t> test_rows;
  std::optional<std::vector<double>> recalled;
  if (memo != nullptr && test_status.ok()) {
    key = HoldoutKey(algorithm, *train_data, options);
    test_rows.reserve(test_x.rows());
    for (size_t r = 0; r < test_x.rows(); ++r) {
      test_rows.push_back(ml::FingerprintValues(test_x.Row(r)));
    }
    auto it = memo->holdout.find(algorithm);
    if (it != memo->holdout.end() && it->second.key == key &&
        !test_days.empty()) {
      recalled = RecallPredictions(it->second, test_days, test_rows);
      if (recalled.has_value()) eval.best_params = it->second.best_params;
    }
  }

  if (recalled.has_value()) {
    eval.test_predicted = *std::move(recalled);
  } else {
    const double t_fit = NowSeconds();
    if (train_data.has_value()) {
      ml::ParamMap params;
      if (options.tune) {
        NM_ASSIGN_OR_RETURN(ml::RegressorFactory factory,
                            ml::MakeFactory(algorithm, options.binning_cache));
        const ml::ParamGrid grid =
            ml::DefaultGridFor(algorithm, options.grid_budget);
        ml::GridSearchOptions search_options;
        search_options.seed = options.seed;
        // Tiny training sets cannot sustain 5 folds.
        search_options.folds = std::min<size_t>(
            5, std::max<size_t>(2, train_data->num_rows() / 10));
        search_options.early_stopping_patience =
            options.grid_early_stopping_patience;
        if (train_data->num_rows() >= 2 * search_options.folds) {
          NM_ASSIGN_OR_RETURN(
              ml::GridSearchResult search,
              ml::GridSearchCV(factory, grid, *train_data, search_options));
          params = search.best_params;
        }
        eval.best_params = params;
      }
      NM_ASSIGN_OR_RETURN(
          model, ml::MakeRegressor(algorithm, params, options.binning_cache));
      NM_RETURN_NOT_OK(model->Fit(*train_data).WithContext(algorithm));
      train_data.reset();  // free the training rows before predicting
    }
    eval.train_seconds += NowSeconds() - t_fit;
    NM_RETURN_NOT_OK(test_status);
    if (eval.test_truth.empty()) {
      return Status::InvalidArgument(
          "no evaluable test day (no completed cycle in the test window)");
    }
    // One batched call for the whole test window (RF/XGB amortize the
    // per-call dispatch); results are bit-identical to the per-row loop.
    NM_ASSIGN_OR_RETURN(eval.test_predicted, model->PredictBatch(test_x));
    if (memo != nullptr) {
      FitMemo::Holdout& entry = memo->holdout[algorithm];
      entry.key = key;
      entry.best_params = eval.best_params;
      entry.test.clear();
      entry.test.reserve(test_days.size());
      for (size_t i = 0; i < test_days.size(); ++i) {
        entry.test.push_back(FitMemo::TestPoint{
            test_days[i], test_rows[i], eval.test_predicted[i]});
      }
    }
  }

  NM_ASSIGN_OR_RETURN(eval.eglobal,
                      GlobalError(eval.test_truth, eval.test_predicted));
  // E_MRE may be undefined when the test window lacks near-deadline days;
  // surface that as an error to the caller rather than reporting 0.
  NM_ASSIGN_OR_RETURN(
      eval.emre, MeanResidualError(eval.test_truth, eval.test_predicted,
                                   options.eval_days));
  eval.model = std::move(model);
  return eval;
}

Result<ModelSelectionResult> SelectBestModelForVehicle(
    const std::vector<std::string>& algorithms, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options) {
  if (algorithms.empty()) {
    return Status::InvalidArgument("empty algorithm list");
  }
  ModelSelectionResult result;
  double best = std::numeric_limits<double>::infinity();
  for (const std::string& algorithm : algorithms) {
    NM_ASSIGN_OR_RETURN(
        VehicleEvaluation eval,
        EvaluateAlgorithmOnVehicle(algorithm, u, maintenance_interval_s,
                                   options));
    if (eval.emre < best) {
      best = eval.emre;
      result.best_index = result.evaluations.size();
    }
    result.evaluations.push_back(std::move(eval));
  }
  return result;
}

std::vector<double> PerDayResiduals(const VehicleEvaluation& eval, int lo,
                                    int hi) {
  NM_CHECK(lo <= hi);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(hi - lo + 1));
  for (int d = lo; d <= hi; ++d) {
    const Result<double> r = MeanResidualError(
        eval.test_truth, eval.test_predicted, DaySet::Single(d));
    out.push_back(r.ok() ? r.ValueOrDie()
                         : std::numeric_limits<double>::quiet_NaN());
  }
  return out;
}

}  // namespace core
}  // namespace nextmaint
