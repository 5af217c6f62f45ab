#include "serve/serving_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/telemetry.h"
#include "core/scheduler.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace serve {
namespace {

constexpr double kTv = 500'000.0;

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

core::SchedulerOptions FastOptions(int num_threads = 0) {
  core::SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;
  options.num_threads = num_threads;
  return options;
}

data::DailySeries SimulatedVehicle(uint64_t seed, int days) {
  Rng rng(seed);
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  profile.maintenance_interval_s = kTv;
  Rng sim_rng(seed * 7 + 3);
  return telem::SimulateVehicle(profile, Day(0), days, 0.0, &sim_rng)
      .ValueOrDie()
      .utilization;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Byte content of a scheduler checkpoint, via a throwaway temp file.
std::string CheckpointBytes(const core::FleetScheduler& scheduler,
                            const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

/// Requires every forecast field to be bit-identical, in the same order.
void ExpectForecastsIdentical(
    const std::vector<core::MaintenanceForecast>& got,
    const std::vector<core::MaintenanceForecast>& want,
    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].vehicle_id, want[i].vehicle_id) << label << " #" << i;
    EXPECT_EQ(got[i].category, want[i].category) << label << " #" << i;
    EXPECT_EQ(got[i].model_name, want[i].model_name) << label << " #" << i;
    EXPECT_EQ(got[i].days_left, want[i].days_left)
        << label << " " << got[i].vehicle_id;
    EXPECT_EQ(got[i].usage_seconds_left, want[i].usage_seconds_left)
        << label << " " << got[i].vehicle_id;
    EXPECT_EQ(got[i].predicted_date, want[i].predicted_date)
        << label << " " << got[i].vehicle_id;
  }
}

/// One vehicle of the property fleet: a full series plus how much of it the
/// engine warm-starts on before the day-by-day replay.
struct VehicleSpec {
  std::string id;
  data::DailySeries series;
  size_t warm;
};

/// The fleet the property test replays. Covers every category transition
/// the engine must survive: two old vehicles (stable corpus members), one
/// vehicle crossing semi-new -> old mid-replay (its first completed cycle
/// joins the corpus and must dirty every cold-start consumer), one vehicle
/// crossing new -> semi-new, and one staying new throughout.
std::vector<VehicleSpec> PropertyFleet() {
  std::vector<VehicleSpec> fleet;
  fleet.push_back({"old1", SimulatedVehicle(101, 600), 560});
  fleet.push_back({"old2", SimulatedVehicle(102, 600), 560});
  // 15000 s/day: 250k (semi-new) after ~17 days, 500k (old) after ~34.
  fleet.push_back({"cross",
                   data::DailySeries(Day(0), std::vector<double>(48, 15'000.0)),
                   20});
  // 18000 s/day starting tiny: crosses T_v/2 during the replay.
  fleet.push_back({"rise",
                   data::DailySeries(Day(0), std::vector<double>(40, 18'000.0)),
                   8});
  // 500 s/day: stays new forever.
  fleet.push_back({"fresh",
                   data::DailySeries(Day(0), std::vector<double>(35, 500.0)),
                   5});
  return fleet;
}

/// Scheduler options exercising the tree learners (and with them binned
/// training and its caches): RF in the per-vehicle selection, XGB as the
/// unified cold-start model, small settings so the property replay stays
/// fast.
core::SchedulerOptions TreeOptions(int num_threads) {
  core::SchedulerOptions options = FastOptions(num_threads);
  options.algorithms = {"BL", "RF"};
  options.unified_algorithm = "XGB";
  // Selection is untuned (library defaults); only the cold-start models
  // take explicit params, trimmed for test speed.
  options.cold_start.model_params = {{"num_estimators", 6},
                                     {"num_iterations", 8},
                                     {"max_depth", 4},
                                     {"max_bins", 64},
                                     {"min_samples_leaf", 2}};
  return options;
}

/// A from-scratch batch run over exactly `ingested[id]` days per vehicle:
/// the ground truth the incremental engine must be bit-identical to.
core::FleetScheduler BatchScheduler(
    const std::vector<VehicleSpec>& fleet,
    const std::map<std::string, size_t>& ingested,
    const core::SchedulerOptions& options) {
  core::FleetScheduler scheduler(options);
  for (const VehicleSpec& v : fleet) {
    EXPECT_TRUE(scheduler.RegisterVehicle(v.id, v.series.start_date()).ok());
    const size_t days = ingested.at(v.id);
    if (days == 0) continue;
    EXPECT_TRUE(scheduler.IngestSeries(v.id, v.series.Slice(0, days)).ok());
  }
  EXPECT_TRUE(scheduler.TrainAll().ok());
  return scheduler;
}

/// The tentpole invariant (ISSUE 5 acceptance): random interleavings of
/// appends and refreshes produce forecasts bit-identical to a from-scratch
/// batch run over the same data, at 1 and 4 threads — including vehicles
/// that change category (and corpus membership) mid-replay.
TEST(ServingEngineTest, IncrementalMatchesBatchUnderRandomInterleavings) {
  for (const int threads : {1, 4}) {
    for (const uint64_t round : {1u, 2u}) {
      const std::vector<VehicleSpec> fleet = PropertyFleet();
      ServingEngine engine(FastOptions(threads));
      std::map<std::string, size_t> ingested;
      for (const VehicleSpec& v : fleet) {
        ASSERT_TRUE(engine.Register(v.id, v.series.start_date()).ok());
        if (v.warm > 0) {
          ASSERT_TRUE(
              engine.LoadHistory(v.id, v.series.Slice(0, v.warm)).ok());
        }
        ingested[v.id] = v.warm;
      }
      ASSERT_TRUE(engine.RefreshForecasts().ok());

      // The schedule depends only on (round) so both thread counts replay
      // the identical interleaving.
      Rng schedule(900 + round);
      const std::string label =
          "threads=" + std::to_string(threads) +
          " round=" + std::to_string(round);
      for (int step = 0; step < 30; ++step) {
        for (const VehicleSpec& v : fleet) {
          size_t& next = ingested[v.id];
          if (next >= v.series.size()) continue;
          // Vehicles advance at random, uneven rates.
          if (!schedule.Bernoulli(0.75)) continue;
          const Date day =
              v.series.start_date().AddDays(static_cast<int64_t>(next));
          ASSERT_TRUE(engine.Append(v.id, day, v.series[next]).ok())
              << label << " " << v.id;
          ++next;
        }
        if (schedule.Bernoulli(0.4)) {
          ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;
        }
      }
      ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;

      const core::FleetScheduler batch =
          BatchScheduler(fleet, ingested, FastOptions(threads));
      ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                               batch.FleetForecast().ValueOrDie(), label);
      // The trained state itself must match byte for byte, not just the
      // forecasts derived from it.
      EXPECT_EQ(CheckpointBytes(engine.scheduler(), "serve_inc.txt"),
                CheckpointBytes(batch, "serve_batch.txt"))
          << label;
    }
  }
}

/// The binned-training serving contract (docs/binned-training.md): with tree
/// learners and their binning caches in the loop, append/refresh
/// interleavings must stay checkpoint-byte-identical to a from-scratch batch
/// run, at 1 and 4 threads.
TEST(ServingEngineTest, BinnedInterleavingMatchesBatch) {
  for (const int threads : {1, 4}) {
    const std::vector<VehicleSpec> fleet = PropertyFleet();
    ServingEngine engine(TreeOptions(threads));
    std::map<std::string, size_t> ingested;
    for (const VehicleSpec& v : fleet) {
      ASSERT_TRUE(engine.Register(v.id, v.series.start_date()).ok());
      if (v.warm > 0) {
        ASSERT_TRUE(engine.LoadHistory(v.id, v.series.Slice(0, v.warm)).ok());
      }
      ingested[v.id] = v.warm;
    }
    ASSERT_TRUE(engine.RefreshForecasts().ok());

    Rng schedule(4400 + static_cast<uint64_t>(threads));
    const std::string label = "binned threads=" + std::to_string(threads);
    for (int step = 0; step < 12; ++step) {
      for (const VehicleSpec& v : fleet) {
        size_t& next = ingested[v.id];
        if (next >= v.series.size()) continue;
        if (!schedule.Bernoulli(0.75)) continue;
        const Date day =
            v.series.start_date().AddDays(static_cast<int64_t>(next));
        ASSERT_TRUE(engine.Append(v.id, day, v.series[next]).ok())
            << label << " " << v.id;
        ++next;
      }
      if (schedule.Bernoulli(0.4)) {
        ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;
      }
    }
    ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;

    const core::FleetScheduler batch =
        BatchScheduler(fleet, ingested, TreeOptions(threads));
    ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                             batch.FleetForecast().ValueOrDie(), label);
    EXPECT_EQ(CheckpointBytes(engine.scheduler(), "serve_inc_binned.txt"),
              CheckpointBytes(batch, "serve_batch_binned.txt"))
        << label;
  }
}

/// Completed maintenance cycles in the first `days` days of `series`.
size_t CyclesIn(const data::DailySeries& series, size_t days) {
  return core::DeriveSeries(series.Slice(0, days), kTv)
      .ValueOrDie()
      .cycles.size();
}

/// True when growing `series` from n - 1 to n days closes a cycle in the
/// deployment window (all n days) or in the 70 % holdout training window.
/// Only such an append adds a labelled training row: the target is the
/// number of days to the *next* maintenance.
bool AppendAddsLabel(const data::DailySeries& series, size_t n) {
  const auto split = [](size_t days) {
    return static_cast<size_t>(0.7 * static_cast<double>(days));
  };
  return CyclesIn(series, n) != CyclesIn(series, n - 1) ||
         CyclesIn(series, split(n)) != CyclesIn(series, split(n - 1));
}

/// First n >= `from` whose append adds (or, with `adds_label` false, does
/// not add) a labelled training row; 0 when none exists.
size_t FirstAppend(const data::DailySeries& series, size_t from,
                   bool adds_label) {
  for (size_t n = from; n <= series.size(); ++n) {
    if (AppendAddsLabel(series, n) == adds_label) return n;
  }
  return 0;
}

/// Name of the model serving `id` in `snapshot` ("" when unforecast).
std::string ModelNameOf(const FleetSnapshot& snapshot, const std::string& id) {
  for (const core::MaintenanceForecast& forecast : snapshot.forecasts) {
    if (forecast.vehicle_id == id) return forecast.model_name;
  }
  return "";
}

/// Current value of a telemetry counter (0 when never registered).
uint64_t CounterValue(const std::string& name) {
  const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Bin mappers are built once per vehicle and cached; appending usage must
/// invalidate exactly that vehicle's cache, and a series replacement must
/// also drop the unified-corpus cache. A mid-cycle append leaves both of
/// v1's training sets unchanged, so its refresh reuses every fit and bins
/// nothing; an append that labels a row refits and repopulates the cache.
TEST(ServingEngineTest, BinningCacheInvalidationFollowsIngest) {
  telemetry::SetEnabled(true);
  ServingEngine engine(TreeOptions(1));
  const data::DailySeries s1 = SimulatedVehicle(201, 600);
  const data::DailySeries s2 = SimulatedVehicle(202, 600);
  const size_t quiet = FirstAppend(s1, 560, /*adds_label=*/false);
  ASSERT_GT(quiet, 0u);
  const size_t labelling = FirstAppend(s1, quiet + 1, /*adds_label=*/true);
  ASSERT_GT(labelling, 0u);
  const auto append_through = [&](size_t days) {
    const VehicleServeState state = engine.CachedState("v1").ValueOrDie();
    for (size_t day = state.days_observed; day < days; ++day) {
      ASSERT_TRUE(engine
                      .Append("v1",
                              s1.start_date().AddDays(
                                  static_cast<int64_t>(day)),
                              s1[day])
                      .ok());
    }
  };
  const auto expect_matches_batch = [&](size_t days, const char* label) {
    core::FleetScheduler batch(TreeOptions(1));
    ASSERT_TRUE(batch.RegisterVehicle("v1", s1.start_date()).ok());
    ASSERT_TRUE(batch.RegisterVehicle("v2", s2.start_date()).ok());
    ASSERT_TRUE(batch.IngestSeries("v1", s1.Slice(0, days)).ok());
    ASSERT_TRUE(batch.IngestSeries("v2", s2).ok());
    ASSERT_TRUE(batch.TrainAll().ok());
    EXPECT_EQ(CheckpointBytes(engine.scheduler(), "cache_inc.txt"),
              CheckpointBytes(batch, "cache_batch.txt"))
        << label;
  };
  ASSERT_TRUE(engine.Register("v1", s1.start_date()).ok());
  ASSERT_TRUE(engine.Register("v2", s2.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", s1.Slice(0, quiet - 1)).ok());
  ASSERT_TRUE(engine.LoadHistory("v2", s2).ok());
  // Before any training there is nothing cached.
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  // RF wins v1's selection, so the mid-cycle refresh below has a holdout
  // and a deployment RF fit to reuse.
  ASSERT_EQ(ModelNameOf(*engine.Snapshot(), "v1"), "RF");

  const auto v1_cache = engine.scheduler().VehicleBinningCache("v1");
  ASSERT_NE(v1_cache, nullptr);
  EXPECT_GT(v1_cache->stats().lookups, 0u);
  EXPECT_GT(v1_cache->stats().entries, 0u);
  // Both old vehicles contribute first cycles, so the unified XGB model
  // trained through the shared corpus cache.
  const auto unified = engine.scheduler().UnifiedBinningCache();
  ASSERT_NE(unified, nullptr);
  EXPECT_GT(unified->stats().lookups, 0u);

  // An append dirties exactly the appended vehicle's mapper cache.
  append_through(quiet);
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  EXPECT_NE(engine.scheduler().VehicleBinningCache("v2"), nullptr);
  // The mid-cycle refresh recreates the cache but fits (and so bins)
  // nothing, and still trains exactly what a batch run trains.
  [[maybe_unused]] const uint64_t rf_fits_before =
      CounterValue("ml.fit.count.RF");
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const auto quiet_cache = engine.scheduler().VehicleBinningCache("v1");
  ASSERT_NE(quiet_cache, nullptr);
  EXPECT_EQ(quiet_cache->stats().lookups, 0u);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(CounterValue("ml.fit.count.RF"), rf_fits_before);
#endif
  expect_matches_batch(quiet, "mid-cycle append");

  // An append that labels a training row refits and repopulates it.
  append_through(labelling);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const auto rebuilt = engine.scheduler().VehicleBinningCache("v1");
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_GT(rebuilt->stats().entries, 0u);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_GT(CounterValue("ml.fit.count.RF"), rf_fits_before);
#endif
  expect_matches_batch(labelling, "labelling append");
  telemetry::SetEnabled(false);

  // Wholesale series replacement invalidates the corpus-level cache too:
  // the first cycle itself may have changed.
  core::FleetScheduler batch(TreeOptions(1));
  ASSERT_TRUE(batch.RegisterVehicle("v1", s1.start_date()).ok());
  ASSERT_TRUE(batch.IngestSeries("v1", s1).ok());
  ASSERT_TRUE(batch.TrainAll().ok());
  ASSERT_NE(batch.UnifiedBinningCache(), nullptr);
  EXPECT_GT(batch.UnifiedBinningCache()->stats().entries, 0u);
  ASSERT_TRUE(batch.IngestSeries("v1", s1).ok());
  EXPECT_EQ(batch.VehicleBinningCache("v1"), nullptr);
  EXPECT_EQ(batch.UnifiedBinningCache()->stats().entries, 0u);
}

TEST(ServingEngineTest, CachedStateMatchesBatchDerivation) {
  const data::DailySeries series = SimulatedVehicle(7, 600);
  ServingEngine engine(FastOptions());
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 550)).ok());
  for (size_t i = 550; i < series.size(); ++i) {
    ASSERT_TRUE(engine
                    .Append("v1",
                            series.start_date().AddDays(
                                static_cast<int64_t>(i)),
                            series[i])
                    .ok());
  }
  ASSERT_TRUE(engine.RefreshForecasts().ok());

  core::FleetScheduler batch(FastOptions());
  ASSERT_TRUE(batch.RegisterVehicle("v1", series.start_date()).ok());
  ASSERT_TRUE(batch.IngestSeries("v1", series).ok());
  ASSERT_TRUE(batch.TrainAll().ok());
  const core::MaintenanceForecast want = batch.Forecast("v1").ValueOrDie();

  // The O(1) cached mirror reproduces the full DeriveSeries walk bit for
  // bit: L_v(today) is the forecast's usage_seconds_left.
  const VehicleServeState state = engine.CachedState("v1").ValueOrDie();
  EXPECT_EQ(state.days_observed, series.size());
  EXPECT_EQ(state.usage_seconds_left, want.usage_seconds_left);
  EXPECT_TRUE(state.has_forecast);
  EXPECT_FALSE(state.dirty);
  EXPECT_GE(state.completed_cycles, 1u);
  double total = 0.0;
  for (size_t i = 0; i < series.size(); ++i) total += series[i];
  EXPECT_EQ(state.total_usage_s, total);
}

TEST(ServingEngineTest, DirtyTrackingRefreshesOnlyChangedVehicles) {
  ServingEngine engine(FastOptions());
  for (int v = 1; v <= 3; ++v) {
    const std::string id = std::string("v") + std::to_string(v);
    const data::DailySeries series = SimulatedVehicle(40 + v, 600);
    ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
    ASSERT_TRUE(engine.LoadHistory(id, series).ok());
  }
  EXPECT_EQ(engine.DirtyCount(), 3u);
  const RefreshStats first = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.refreshed, 3u);
  EXPECT_EQ(first.reused, 0u);
  EXPECT_TRUE(first.corpus_rebuilt);
  EXPECT_EQ(engine.DirtyCount(), 0u);

  // One appended day to one old vehicle dirties exactly that vehicle; its
  // corpus contribution is append-invariant, so nobody else retrains.
  ASSERT_TRUE(engine.Append("v2", Day(600), 9'000.0).ok());
  EXPECT_EQ(engine.DirtyCount(), 1u);
  const RefreshStats second = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(second.refreshed, 1u);
  EXPECT_EQ(second.reused, 2u);
  EXPECT_FALSE(second.corpus_rebuilt);
  EXPECT_EQ(engine.LastRefreshStats().epoch, 2u);

  // A clean fleet refresh is a no-op that still publishes a new epoch.
  const RefreshStats third = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(third.refreshed, 0u);
  EXPECT_EQ(third.reused, 3u);
}

TEST(ServingEngineTest, SnapshotsAreImmutableAndEpoched) {
  ServingEngine engine(FastOptions());
  const data::DailySeries series = SimulatedVehicle(55, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 599)).ok());

  const std::shared_ptr<const FleetSnapshot> empty = engine.Snapshot();
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_TRUE(empty->forecasts.empty());

  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const std::shared_ptr<const FleetSnapshot> one = engine.Snapshot();
  ASSERT_EQ(one->forecasts.size(), 1u);
  const double days_left_at_one = one->forecasts[0].days_left;

  ASSERT_TRUE(engine.Append("v1", Day(599), series[599]).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const std::shared_ptr<const FleetSnapshot> two = engine.Snapshot();
  EXPECT_EQ(two->epoch, 2u);
  EXPECT_EQ(engine.epoch(), 2u);

  // The older snapshot is untouched by the later refresh: a reader holding
  // it keeps a consistent view.
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_TRUE(empty->forecasts.empty());
  EXPECT_EQ(one->epoch, 1u);
  EXPECT_EQ(one->forecasts[0].days_left, days_left_at_one);
}

TEST(ServingEngineTest, ErrorContract) {
  ServingEngine engine(FastOptions());
  // Refresh on an empty fleet mirrors FleetForecast's contract.
  EXPECT_EQ(engine.RefreshForecasts().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Append("ghost", Day(0), 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.CachedState("ghost").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.Register("v1", Day(0)).ok());
  EXPECT_EQ(engine.Register("v1", Day(0)).code(),
            StatusCode::kAlreadyExists);
  // Failed appends leave the cached state untouched.
  EXPECT_TRUE(engine.Append("v1", Day(0), 1'000.0).ok());
  EXPECT_FALSE(engine.Append("v1", Day(5), 1'000.0).ok());  // gap
  EXPECT_FALSE(engine.Append("v1", Day(1), -3.0).ok());     // bad value
  const VehicleServeState state = engine.CachedState("v1").ValueOrDie();
  EXPECT_EQ(state.days_observed, 1u);
  EXPECT_EQ(state.total_usage_s, 1'000.0);
}

TEST(ServingEngineTest, GetForecastsBatchReadsFromOneSnapshot) {
  ServingEngine engine(FastOptions());
  const data::DailySeries series = SimulatedVehicle(31, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series).ok());
  // Registered but data-free: lands in the snapshot with no forecast.
  ASSERT_TRUE(engine.Register("empty", Day(0)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  // Registered after the refresh: not in the published snapshot at all.
  ASSERT_TRUE(engine.Register("late", Day(0)).ok());

  const std::vector<std::string> ids = {"v1", "ghost", "empty", "late"};
  const std::vector<Result<core::MaintenanceForecast>> results =
      engine.GetForecasts(ids);
  ASSERT_EQ(results.size(), 4u);

  // Request order is preserved; every entry comes from the same epoch-1
  // snapshot.
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0].ValueOrDie().vehicle_id, "v1");
  EXPECT_EQ(results[0].ValueOrDie().days_left,
            engine.Snapshot()->forecasts[0].days_left);
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(results[2].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(results[3].status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Warm-start refreshes (docs/warm-start.md)

/// Options that make every old vehicle warm-capable: the selection can only
/// pick RF, and cold starts use the XGB unified model.
core::SchedulerOptions WarmOptions(int num_threads = 1) {
  core::SchedulerOptions options = FastOptions(num_threads);
  options.algorithms = {"RF"};
  options.unified_algorithm = "XGB";
  options.cold_start.model_params = {{"num_estimators", 6},
                                     {"num_iterations", 8},
                                     {"max_depth", 4},
                                     {"max_bins", 64},
                                     {"min_samples_leaf", 2}};
  options.warm_start = true;
  options.warm_start_rounds = 4;
  return options;
}

TEST(ServingEngineWarmStartTest, AppendOnlyRefreshResumesEligibleVehicles) {
  ServingEngine engine(WarmOptions());
  const data::DailySeries series = SimulatedVehicle(301, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 590)).ok());
  // First refresh is necessarily cold: no cached model existed before it.
  const RefreshStats first = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(first.warm_started, 0u);
  ASSERT_EQ(engine.Snapshot()->forecasts.size(), 1u);
  ASSERT_EQ(engine.Snapshot()->forecasts[0].model_name, "RF");
  // The resumed ensemble is observable through the checkpoint bytes
  // growing; tree-count introspection is not part of the serve API.
  const size_t checkpoint_before =
      CheckpointBytes(engine.scheduler(), "warm_before.txt").size();

  // Append-only growth: the cached RF is eligible and must be resumed, not
  // retrained.
  for (int day = 590; day < 594; ++day) {
    ASSERT_TRUE(engine
                    .Append("v1", series.start_date().AddDays(day),
                            series[static_cast<size_t>(day)])
                    .ok());
  }
  const RefreshStats warm = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(warm.refreshed, 1u);
  EXPECT_EQ(warm.warm_started, 1u);
  // The vehicle keeps a live forecast and its resumed model grew.
  ASSERT_EQ(engine.Snapshot()->forecasts.size(), 1u);
  EXPECT_EQ(engine.Snapshot()->forecasts[0].model_name, "RF");
  EXPECT_GT(CheckpointBytes(engine.scheduler(), "warm_after.txt").size(),
            checkpoint_before);
}

TEST(ServingEngineWarmStartTest, LoadHistoryClearsWarmEligibility) {
  ServingEngine engine(WarmOptions());
  const data::DailySeries series = SimulatedVehicle(302, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 590)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  // A series replacement may rewrite history, so the cached model can no
  // longer be resumed: the next refresh must fall back to a cold retrain.
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 595)).ok());
  const RefreshStats stats = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(stats.refreshed, 1u);
  EXPECT_EQ(stats.warm_started, 0u);
  EXPECT_EQ(engine.Snapshot()->forecasts.size(), 1u);
}

TEST(ServingEngineWarmStartTest, DisabledFlagNeverWarmStarts) {
  core::SchedulerOptions options = WarmOptions();
  options.warm_start = false;
  ServingEngine engine(options);
  const data::DailySeries series = SimulatedVehicle(303, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 595)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  ASSERT_TRUE(
      engine.Append("v1", series.start_date().AddDays(595), series[595]).ok());
  const RefreshStats stats = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(stats.refreshed, 1u);
  EXPECT_EQ(stats.warm_started, 0u);
}

/// The serve.refresh.warm failpoint contract: a failed warm resume must
/// degrade to the cold retrain — the vehicle keeps a forecast and the
/// refresh succeeds — never to a dropped vehicle or a failed refresh.
TEST(ServingEngineWarmStartTest, WarmFailureDegradesToColdRetrain) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints not compiled in";
  }
  failpoints::DisarmAll();
  ServingEngine engine(WarmOptions());
  const data::DailySeries series = SimulatedVehicle(304, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 595)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  ASSERT_TRUE(
      engine.Append("v1", series.start_date().AddDays(595), series[595]).ok());

  ASSERT_TRUE(failpoints::Arm("serve.refresh.warm").ok());
  const Result<RefreshStats> stats = engine.RefreshForecasts();
  failpoints::DisarmAll();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.ValueOrDie().refreshed, 1u);
  EXPECT_EQ(stats.ValueOrDie().warm_started, 0u);
  ASSERT_EQ(engine.Snapshot()->forecasts.size(), 1u);
  EXPECT_EQ(engine.Snapshot()->forecasts[0].model_name, "RF");
}

/// Trains one vehicle on the first `days` days of `series` from scratch:
/// the batch reference a fit-memo reuse must reproduce byte for byte.
core::FleetScheduler FreshVehicle(const data::DailySeries& series,
                                  size_t days,
                                  const core::SchedulerOptions& options) {
  core::FleetScheduler scheduler(options);
  EXPECT_TRUE(scheduler.RegisterVehicle("v1", series.start_date()).ok());
  EXPECT_TRUE(scheduler.IngestSeries("v1", series.Slice(0, days)).ok());
  EXPECT_TRUE(scheduler.TrainAll().ok());
  return scheduler;
}

/// One vehicle streamed day by day across at least one cycle close: after
/// every refresh, reused and refitted models alike serialize to the bytes
/// of a fresh batch TrainAll and forecast identically, at 1 and 4 threads.
TEST(FitMemoTest, StreamedRefreshesMatchBatchAcrossACycleClose) {
  const data::DailySeries full = SimulatedVehicle(301, 480);
  // Stream 6 days either side of the first cycle close after day 400.
  size_t close = 401;
  while (close < full.size() &&
         CyclesIn(full, close) == CyclesIn(full, close - 1)) {
    ++close;
  }
  ASSERT_LT(close + 6, full.size());
  const data::DailySeries series = full.Slice(0, close + 6);
  const size_t start = close - 6;
  for (const int threads : {1, 4}) {
    telemetry::SetEnabled(true);
    [[maybe_unused]] const uint64_t holdout_before =
        CounterValue("scheduler.train.holdout_reused");
    [[maybe_unused]] const uint64_t model_before =
        CounterValue("scheduler.train.model_reused");
    ServingEngine engine(TreeOptions(threads));
    ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
    ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, start)).ok());
    ASSERT_TRUE(engine.RefreshForecasts().ok());
    for (size_t day = start; day < series.size(); ++day) {
      ASSERT_TRUE(engine
                      .Append("v1",
                              series.start_date().AddDays(
                                  static_cast<int64_t>(day)),
                              series[day])
                      .ok());
      ASSERT_TRUE(engine.RefreshForecasts().ok());
      const std::string label = "threads=" + std::to_string(threads) +
                                " days=" + std::to_string(day + 1);
      const core::FleetScheduler batch =
          FreshVehicle(series, day + 1, TreeOptions(threads));
      ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                               batch.FleetForecast().ValueOrDie(), label);
      EXPECT_EQ(CheckpointBytes(engine.scheduler(), "memo_inc.txt"),
                CheckpointBytes(batch, "memo_batch.txt"))
          << label;
    }
#ifndef NEXTMAINT_TELEMETRY_DISABLED
    // The stream exercised both halves of the memo.
    EXPECT_GT(CounterValue("scheduler.train.holdout_reused"), holdout_before);
    EXPECT_GT(CounterValue("scheduler.train.model_reused"), model_before);
#endif
    telemetry::SetEnabled(false);
  }
}

/// Every writer of a vehicle's model other than the memoized fit itself
/// (checkpoint loads, warm start, series replacement, the quarantine
/// fallback) makes the next training refit the deployed model; an
/// untouched vehicle retrained on unchanged data reuses both fits. The
/// checkpoints hold a model trained on a shorter history, so keeping a
/// loaded model instead of refitting would show in the bytes.
TEST(FitMemoTest, OtherModelWritersForceADeploymentRefit) {
  core::SchedulerOptions options = TreeOptions(1);
  options.algorithms = {"RF"};
  const data::DailySeries series = SimulatedVehicle(302, 300);
  const std::string want =
      CheckpointBytes(FreshVehicle(series, series.size(), options),
                      "memo_want.txt");
  const std::string legacy = ::testing::TempDir() + "/memo_legacy.txt";
  const std::string segmented = ::testing::TempDir() + "/memo_segmented.ckpt";
  std::remove(segmented.c_str());
  {
    const core::FleetScheduler older = FreshVehicle(series, 280, options);
    ASSERT_EQ(older.Forecast("v1").ValueOrDie().model_name, "RF");
    ASSERT_TRUE(older.SaveLegacyCheckpoint(legacy).ok());
    ASSERT_TRUE(older.SaveCheckpoint(segmented).ok());
    ASSERT_NE(CheckpointBytes(older, "memo_older.txt"), want);
  }
  core::FleetScheduler scheduler =
      FreshVehicle(series, series.size(), options);

  telemetry::SetEnabled(true);
  // Retrains `scheduler` and returns the {holdout reuses, model reuses, RF
  // fits} it took; the trained bytes must equal the fresh batch run's.
  using Counts = std::vector<uint64_t>;
  const auto retrain = [&](const std::string& label) {
    const uint64_t holdout = CounterValue("scheduler.train.holdout_reused");
    const uint64_t model = CounterValue("scheduler.train.model_reused");
    const uint64_t fits = CounterValue("ml.fit.count.RF");
    EXPECT_TRUE(scheduler.TrainAll().ok()) << label;
    EXPECT_EQ(CheckpointBytes(scheduler, "memo_got.txt"), want) << label;
    return Counts{CounterValue("scheduler.train.holdout_reused") - holdout,
                  CounterValue("scheduler.train.model_reused") - model,
                  CounterValue("ml.fit.count.RF") - fits};
  };
  std::map<std::string, Counts> counts;
  counts["unchanged"] = retrain("unchanged");
  ASSERT_TRUE(scheduler.LoadCheckpoint(legacy).ok());
  counts["eager load"] = retrain("eager load");
  ASSERT_TRUE(scheduler.LoadCheckpoint(segmented).ok());
  ASSERT_TRUE(scheduler.Forecast("v1").ok());  // materializes the segment
  counts["lazy load"] = retrain("lazy load");
  ASSERT_TRUE(scheduler.WarmStartVehicle("v1", 3).ValueOrDie());
  ASSERT_NE(CheckpointBytes(scheduler, "memo_warm.txt"), want);
  counts["warm start"] = retrain("warm start");
  ASSERT_TRUE(scheduler.IngestSeries("v1", series).ok());
  counts["series replacement"] = retrain("series replacement");
  if (failpoints::CompiledIn()) {
    ASSERT_TRUE(failpoints::Arm("scheduler.train_vehicle").ok());
    ASSERT_TRUE(scheduler.TrainAll().ok());
    failpoints::DisarmAll();
    ASSERT_EQ(scheduler.Forecast("v1").ValueOrDie().model_name,
              "BL_fallback");
    counts["quarantine fallback"] = retrain("quarantine fallback");
  }
  telemetry::SetEnabled(false);
  std::remove(legacy.c_str());
  std::remove(segmented.c_str());
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  // The holdout half survives every writer but a series replacement; the
  // deployment half survives none.
  for (const auto& [label, got] : counts) {
    const Counts expected = label == "unchanged" ? Counts{1, 1, 0}
                            : label == "series replacement" ? Counts{0, 0, 2}
                                                            : Counts{1, 0, 1};
    EXPECT_EQ(got, expected) << label;
  }
#endif
}

/// A winner flip keeps the deployment training set but changes the
/// algorithm fitted on it: the moved split changes the holdout scores while
/// the appended day labels no row of the full history. Both flips (RF -> LR
/// and back) must refit, never serve the other algorithm's memoized model.
TEST(FitMemoTest, WinnerFlipRefitsTheDeployedModel) {
  core::SchedulerOptions options = TreeOptions(1);
  options.algorithms = {"LR", "RF"};
  // Seed and window located by streaming: the winner flips RF -> LR -> RF
  // on days 402 and 403, neither of which closes a cycle.
  const data::DailySeries series = SimulatedVehicle(404, 405);
  ServingEngine engine(options);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 400)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  std::string previous = ModelNameOf(*engine.Snapshot(), "v1");
  size_t flips_on_unchanged_data = 0;
  for (size_t day = 400; day < series.size(); ++day) {
    ASSERT_TRUE(engine
                    .Append("v1",
                            series.start_date().AddDays(
                                static_cast<int64_t>(day)),
                            series[day])
                    .ok());
    ASSERT_TRUE(engine.RefreshForecasts().ok());
    const std::string label = "days=" + std::to_string(day + 1);
    EXPECT_EQ(CheckpointBytes(engine.scheduler(), "flip_inc.txt"),
              CheckpointBytes(FreshVehicle(series, day + 1, options),
                              "flip_batch.txt"))
        << label;
    const std::string current = ModelNameOf(*engine.Snapshot(), "v1");
    if (current != previous &&
        CyclesIn(series, day + 1) == CyclesIn(series, day)) {
      ++flips_on_unchanged_data;
    }
    previous = current;
  }
  EXPECT_GE(flips_on_unchanged_data, 2u);
}

}  // namespace
}  // namespace serve
}  // namespace nextmaint
