#include "core/old_vehicle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace core {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

/// Perfectly regular vehicle: 100 s/day, T = 1000 -> 10-day cycles. All
/// models should predict almost exactly.
data::DailySeries RegularVehicle(size_t days = 200) {
  return data::DailySeries(Day(0), std::vector<double>(days, 100.0));
}

/// A realistic simulated vehicle (long history, several cycles).
data::DailySeries SimulatedVehicle(uint64_t seed) {
  Rng rng(seed);
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  profile.maintenance_interval_s = 500'000.0;
  Rng sim_rng(seed + 1);
  return telem::SimulateVehicle(profile, Day(0), 900, 0.0, &sim_rng)
      .ValueOrDie()
      .utilization;
}

OldVehicleOptions FastOptions() {
  OldVehicleOptions options;
  options.tune = false;
  options.resampling_shifts = 0;
  return options;
}

TEST(EvaluateAlgorithmTest, RegularVehicleIsEasyForAllModels) {
  for (const char* algorithm : {"BL", "LR", "LSVR", "RF", "XGB"}) {
    const VehicleEvaluation eval =
        EvaluateAlgorithmOnVehicle(algorithm, RegularVehicle(), 1000.0,
                                   FastOptions())
            .ValueOrDie();
    EXPECT_LT(eval.emre, 1.5) << algorithm;
    EXPECT_EQ(eval.algorithm, algorithm);
    EXPECT_FALSE(eval.test_truth.empty());
    EXPECT_EQ(eval.test_truth.size(), eval.test_predicted.size());
    EXPECT_GE(eval.train_seconds, 0.0);
    EXPECT_NE(eval.model, nullptr);
  }
}

TEST(EvaluateAlgorithmTest, TestPeriodIsHeldOutTail) {
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0,
                                 FastOptions())
          .ValueOrDie();
  // 200 days, 70% train -> 60 test days, all with defined targets.
  EXPECT_EQ(eval.test_truth.size(), 60u);
}

TEST(EvaluateAlgorithmTest, WindowConsumesLeadingTestDays) {
  OldVehicleOptions options = FastOptions();
  options.window = 5;
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0, options)
          .ValueOrDie();
  EXPECT_EQ(eval.test_truth.size(), 60u);  // split=140 > W, no reduction
}

TEST(EvaluateAlgorithmTest, Last29FilterWorksOnSimulatedVehicle) {
  const data::DailySeries u = SimulatedVehicle(10);
  OldVehicleOptions all_data = FastOptions();
  OldVehicleOptions last29 = FastOptions();
  last29.train_on_last29_only = true;
  const double emre_all =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, all_data)
          .ValueOrDie()
          .emre;
  const double emre_29 =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, last29)
          .ValueOrDie()
          .emre;
  // The paper's central finding: the filter reduces near-deadline error.
  EXPECT_LT(emre_29, emre_all * 1.05);
}

TEST(EvaluateAlgorithmTest, BaselineUsesTrainingAverageOnly) {
  // A vehicle that doubles its usage rate in the test period: BL, anchored
  // to the training average, must overestimate D substantially.
  std::vector<double> values(140, 100.0);
  values.insert(values.end(), 60, 200.0);
  data::DailySeries u(Day(0), std::move(values));
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("BL", u, 1000.0, FastOptions())
          .ValueOrDie();
  // True cycles in the test period are 5 days; BL predicts ~2x.
  EXPECT_GT(eval.eglobal, 1.0);
}

TEST(EvaluateAlgorithmTest, TuningRunsGridSearch) {
  OldVehicleOptions options = FastOptions();
  options.tune = true;
  options.grid_budget = 0;
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("RF", SimulatedVehicle(20), 500'000.0,
                                 options)
          .ValueOrDie();
  EXPECT_FALSE(eval.best_params.empty());
  EXPECT_GT(eval.best_params.count("max_depth"), 0u);
}

TEST(EvaluateAlgorithmTest, ErrorCases) {
  // Unknown algorithm.
  EXPECT_FALSE(EvaluateAlgorithmOnVehicle("GBM", RegularVehicle(), 1000.0,
                                          FastOptions())
                   .ok());
  // Degenerate split.
  OldVehicleOptions bad = FastOptions();
  bad.train_fraction = 1.5;
  EXPECT_FALSE(
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0, bad).ok());
  // Too little data: no completed cycle anywhere.
  data::DailySeries tiny(Day(0), {10.0, 10.0, 10.0});
  EXPECT_FALSE(EvaluateAlgorithmOnVehicle("LR", tiny, 1'000'000.0,
                                          FastOptions())
                   .ok());
}

TEST(SelectBestModelTest, PicksMinEmre) {
  const ModelSelectionResult result =
      SelectBestModelForVehicle({"BL", "LR", "RF"}, SimulatedVehicle(30),
                                500'000.0, FastOptions())
          .ValueOrDie();
  ASSERT_EQ(result.evaluations.size(), 3u);
  const double best = result.evaluations[result.best_index].emre;
  for (const VehicleEvaluation& eval : result.evaluations) {
    EXPECT_LE(best, eval.emre);
  }
}

TEST(SelectBestModelTest, EmptyListFails) {
  EXPECT_FALSE(
      SelectBestModelForVehicle({}, RegularVehicle(), 1000.0, FastOptions())
          .ok());
}

TEST(PerDayResidualsTest, ComputesCurve) {
  VehicleEvaluation eval;
  eval.test_truth = {3, 2, 1, 3, 2, 1};
  eval.test_predicted = {4, 2, 1, 5, 2, 1};
  const std::vector<double> curve = PerDayResiduals(eval, 1, 3);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0], 0.0);  // d=1
  EXPECT_DOUBLE_EQ(curve[1], 0.0);  // d=2
  EXPECT_DOUBLE_EQ(curve[2], 1.5);  // d=3
}

TEST(PerDayResidualsTest, MissingDaysAreNaN) {
  VehicleEvaluation eval;
  eval.test_truth = {1.0};
  eval.test_predicted = {1.0};
  const std::vector<double> curve = PerDayResiduals(eval, 1, 2);
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  EXPECT_TRUE(std::isnan(curve[1]));
}

/// Requires two evaluations to agree bit for bit on every reported number.
void ExpectSameEvaluation(const VehicleEvaluation& got,
                          const VehicleEvaluation& want,
                          const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(got.emre, want.emre) << label;
  EXPECT_EQ(got.eglobal, want.eglobal) << label;
  EXPECT_EQ(got.best_params, want.best_params) << label;
  EXPECT_EQ(got.test_truth, want.test_truth) << label;
  EXPECT_EQ(got.test_predicted, want.test_predicted) << label;
}

/// RF fits recorded by telemetry so far (0 with telemetry compiled out).
uint64_t RfFits() {
  const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
  const auto it = snapshot.counters.find("ml.fit.count.RF");
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Streaming one vehicle day by day through a memo: hits (null model) and
/// misses alike report exactly what a memo-less evaluation reports.
/// Time-shift re-sampling ties the shift offsets to the series length, so
/// the stream sees both.
TEST(FitMemoTest, HoldoutHitsEqualFreshEvaluations) {
  const data::DailySeries series = SimulatedVehicle(40);
  for (const char* algorithm : {"LR", "RF"}) {
    OldVehicleOptions options = FastOptions();
    options.window = 3;
    options.resampling_shifts = 1;
    FitMemo memo;
    OldVehicleOptions memo_options = options;
    memo_options.fit_memo = &memo;
    size_t hits = 0;
    size_t misses = 0;
    for (size_t n = 280; n < 320; ++n) {
      const data::DailySeries u = series.Slice(0, n);
      const std::string label =
          std::string(algorithm) + " days=" + std::to_string(n);
      const VehicleEvaluation fresh =
          EvaluateAlgorithmOnVehicle(algorithm, u, 500'000.0, options)
              .ValueOrDie();
      const VehicleEvaluation memoized =
          EvaluateAlgorithmOnVehicle(algorithm, u, 500'000.0, memo_options)
              .ValueOrDie();
      ExpectSameEvaluation(memoized, fresh, label);
      ++(memoized.model == nullptr ? hits : misses);
    }
    EXPECT_GT(hits, 0u) << algorithm;
    EXPECT_GT(misses, 0u) << algorithm;
  }
}

/// With tune=true a hit skips the whole grid search (no RF fit at all) and
/// returns the params it chose; a different grid seed is a different key
/// even on identical training bytes.
TEST(FitMemoTest, TunedHitSkipsGridSearch) {
  OldVehicleOptions options = FastOptions();
  options.tune = true;
  options.grid_budget = 0;
  FitMemo memo;
  options.fit_memo = &memo;
  const data::DailySeries u = SimulatedVehicle(20).Slice(0, 400);
  const VehicleEvaluation first =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, options).ValueOrDie();
  ASSERT_NE(first.model, nullptr);
  ASSERT_FALSE(first.best_params.empty());

  telemetry::SetEnabled(true);
  [[maybe_unused]] const uint64_t fits_before = RfFits();
  const VehicleEvaluation second =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, options).ValueOrDie();
  [[maybe_unused]] const uint64_t fits_after = RfFits();
  telemetry::SetEnabled(false);
  EXPECT_EQ(second.model, nullptr);
  ExpectSameEvaluation(second, first, "tuned hit");
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(fits_after, fits_before);
#endif

  OldVehicleOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  const VehicleEvaluation third =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, reseeded).ValueOrDie();
  EXPECT_NE(third.model, nullptr);
  reseeded.fit_memo = nullptr;
  ExpectSameEvaluation(
      third,
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, reseeded).ValueOrDie(),
      "reseeded");
}

/// The memo checks every test day's feature row, not just the day: a
/// context series edited only past the training window leaves the training
/// bytes (and so the key) unchanged but changes the test rows, which must
/// refit rather than replay stale predictions.
TEST(FitMemoTest, ChangedTestRowsMiss) {
  const data::DailySeries u = SimulatedVehicle(50).Slice(0, 400);
  const size_t split = static_cast<size_t>(0.7 * 400.0);
  std::vector<double> context(u.size());
  for (size_t t = 0; t < context.size(); ++t) {
    context[t] = 0.5 + 0.4 * std::sin(static_cast<double>(t) / 9.0);
  }
  std::vector<double> edited = context;
  for (size_t t = split + 2; t < edited.size(); ++t) edited[t] *= 0.5;

  OldVehicleOptions options = FastOptions();
  options.window = 2;
  options.context_forecast_days = 2;
  FitMemo memo;
  for (const char* algorithm : {"LR", "RF"}) {
    options.fit_memo = &memo;
    options.context = &context;
    ASSERT_NE(EvaluateAlgorithmOnVehicle(algorithm, u, 500'000.0, options)
                  .ValueOrDie()
                  .model,
              nullptr);
    options.context = &edited;
    const VehicleEvaluation memoized =
        EvaluateAlgorithmOnVehicle(algorithm, u, 500'000.0, options)
            .ValueOrDie();
    EXPECT_NE(memoized.model, nullptr) << algorithm;
    options.fit_memo = nullptr;
    ExpectSameEvaluation(
        memoized,
        EvaluateAlgorithmOnVehicle(algorithm, u, 500'000.0, options)
            .ValueOrDie(),
        algorithm);
  }
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
