// paper_batch: the paper's own computation plus the nightly fleet retrain.
//
// Inputs: the fixed 24-vehicle x 1735-day reference fleet, written as one
// "date,utilization_s" CSV per vehicle. The seed permutes the order in
// which vehicles are loaded, ingested and evaluated; no output may depend
// on it.
// Set-up: the CLI's load path for every CSV (ReadCsvFile + AggregateDaily
// + Clean), then RegisterVehicle + IngestSeries into a fresh scheduler.
// One pass (the unit of work_s): the Table 1 grid (BL/LR/LSVR/RF/XGB x
// trained-all/trained-last29, W=0, one EvaluateAlgorithmOnVehicle call per
// old vehicle, each one timed op), then TrainAll + FleetForecast with the
// CLI defaults on a freshly ingested scheduler.
// Check: every pass's Table 1 cells and fleet forecasts match the
// fingerprints recorded in expected/paper_batch.txt.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/parallel.h"
#include "core/category.h"
#include "core/dataset_builder.h"
#include "core/old_vehicle.h"
#include "core/series.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "ml/binned_dataset.h"
#include "ml/registry.h"
#include "workloads.h"

namespace fleetbench {
namespace {

namespace core = nextmaint::core;
namespace ml = nextmaint::ml;
namespace telem = nextmaint::telem;
namespace telemetry = nextmaint::telemetry;

const char* const kAlgorithms[] = {"BL", "LR", "LSVR", "RF", "XGB"};
constexpr int kSetUpSamples = 5;

struct Fingerprints {
  std::string table1;
  std::string forecast;
};

/// Reads "<mode> <table1> <forecast>" lines; '#' starts a comment.
bool LoadExpected(const std::string& path, const std::string& mode,
                  Fingerprints* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string m, table1, forecast;
    if (fields >> m >> table1 >> forecast && m == mode) {
      *out = Fingerprints{table1, forecast};
      return true;
    }
  }
  return false;
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> evaluate_ms;
  std::string table1_fp;
  std::string forecast_fp;
  double rf_last29_emre = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Writes one "date,utilization_s" CSV per vehicle (the layout
/// `nextmaint simulate` writes) and returns the paths in fleet order.
std::vector<std::string> WriteFleetCsvs(const telem::Fleet& fleet,
                                        const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::vector<std::string> paths;
  for (const telem::VehicleHistory& v : fleet.vehicles) {
    paths.push_back(dir + "/" + v.profile.id + ".csv");
    std::FILE* out = std::fopen(paths.back().c_str(), "w");
    if (out == nullptr) {
      DieIfError(nextmaint::Status::IOError("cannot write " + paths.back()),
                 "write fleet CSV");
    }
    std::fprintf(out, "date,utilization_s\n");
    for (size_t d = 0; d < v.utilization.size(); ++d) {
      std::fprintf(out, "%s,%.6f\n",
                   v.utilization.start_date()
                       .AddDays(static_cast<int64_t>(d))
                       .ToString()
                       .c_str(),
                   v.utilization[d]);
    }
    std::fclose(out);
  }
  return paths;
}

/// The CLI's per-vehicle load path: parse, aggregate per day, clean.
nextmaint::data::DailySeries LoadVehicleCsv(const std::string& path) {
  auto table = nextmaint::data::ReadCsvFile(path);
  DieIfError(table.status(), "read vehicle CSV");
  auto series = nextmaint::data::AggregateDaily(table.ValueOrDie(), "date",
                                                "utilization_s");
  DieIfError(series.status(), "aggregate vehicle CSV");
  nextmaint::data::DailySeries out = std::move(series).ValueOrDie();
  nextmaint::data::Clean(&out);
  return out;
}

/// Set-up: loads every vehicle CSV in seeded order and ingests it into a
/// fresh scheduler.
std::unique_ptr<core::FleetScheduler> Ingest(
    const telem::Fleet& fleet, const std::vector<std::string>& csv_paths,
    const std::vector<size_t>& order, double* seconds) {
  auto scheduler = std::make_unique<core::FleetScheduler>(CliDefaultOptions());
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span("data.ingest");
    for (size_t index : order) {
      const std::string& id = fleet.vehicles[index].profile.id;
      const nextmaint::data::DailySeries series =
          LoadVehicleCsv(csv_paths[index]);
      DieIfError(scheduler->RegisterVehicle(id, series.start_date()),
                 "register vehicle");
      DieIfError(scheduler->IngestSeries(id, series), "ingest series");
    }
  }
  *seconds = SecondsSince(start);
  return scheduler;
}

/// One pass over an already ingested scheduler. `old_order` lists old
/// vehicles in seeded order.
Pass RunPass(const telem::Fleet& fleet, const std::vector<size_t>& old_order,
             core::FleetScheduler& scheduler, uint64_t pass_id) {
  Pass pass;
  // cells[(algorithm, regime, vehicle id)] = (emre, eglobal)
  std::map<std::tuple<std::string, int, std::string>,
           std::pair<double, double>>
      cells;
  const Clock::time_point start = Clock::now();
  ScopedSpan pass_span("paper_batch.pass", pass_id);
  {
    ScopedSpan grid_span("core.table1_grid", pass_id);
    core::OldVehicleOptions options;
    options.window = 0;
    options.tune = false;
    options.grid_budget = 0;
    options.resampling_shifts = 2;
    // Vehicle-major order spreads every algorithm's calls over the whole
    // pass, so a host burst slows a few calls of each algorithm rather than
    // every call of one (which would move p50_ms by a whole mode).
    for (size_t index : old_order) {
      const telem::VehicleHistory& v = fleet.vehicles[index];
      for (const char* algorithm : kAlgorithms) {
        for (int regime = 0; regime < 2; ++regime) {
          options.train_on_last29_only = regime == 1;
          const Clock::time_point t0 = Clock::now();
          nextmaint::Result<core::VehicleEvaluation> eval = [&] {
            ScopedSpan span("core.EvaluateAlgorithmOnVehicle", pass_id);
            return core::EvaluateAlgorithmOnVehicle(
                algorithm, v.utilization, v.profile.maintenance_interval_s,
                options);
          }();
          pass.evaluate_ms.push_back(SecondsSince(t0) * 1e3);
          ++pass.attempted;
          if (!eval.ok()) {
            ++pass.failed;
            std::printf("evaluate %s on %s failed: %s\n", algorithm,
                        v.profile.id.c_str(),
                        eval.status().ToString().c_str());
            continue;
          }
          cells[{algorithm, regime, v.profile.id}] = {
              eval.ValueOrDie().emre, eval.ValueOrDie().eglobal};
        }
      }
    }
  }
  std::vector<core::MaintenanceForecast> forecasts;
  {
    ScopedSpan span("core.TrainAll", pass_id);
    ++pass.attempted;
    if (!scheduler.TrainAll().ok()) ++pass.failed;
  }
  {
    ScopedSpan span("core.FleetForecast", pass_id);
    auto result = scheduler.FleetForecast();
    ++pass.attempted;
    if (result.ok()) {
      forecasts = std::move(result).ValueOrDie();
    } else {
      ++pass.failed;
    }
  }
  pass.seconds = SecondsSince(start);

  Fingerprint fp;
  double rf_sum = 0.0;
  size_t rf_n = 0;
  for (const auto& [key, value] : cells) {
    fp.String(std::get<0>(key));
    fp.U64(static_cast<uint64_t>(std::get<1>(key)));
    fp.String(std::get<2>(key));
    fp.Double(value.first);
    fp.Double(value.second);
    if (std::get<0>(key) == "RF" && std::get<1>(key) == 1) {
      rf_sum += value.first;  // vehicle-id order: seed-independent sum
      ++rf_n;
    }
  }
  pass.table1_fp = fp.Hex();
  pass.forecast_fp = ForecastFingerprint(forecasts);
  pass.rf_last29_emre = rf_n > 0 ? rf_sum / static_cast<double>(rf_n) : 0.0;
  return pass;
}

/// Per-layer probes outside the timed passes: series derivation, binning
/// and the RF/XGB fit scaling (1 thread / pinned pool) on one vehicle's
/// W=6 dataset.
void RunProbes(const telem::Fleet& fleet, const std::vector<size_t>& order,
               Report& report) {
  const core::SchedulerOptions cli = CliDefaultOptions();
  core::DatasetOptions dataset_options;
  dataset_options.window = cli.window;
  dataset_options.target_filter = core::DaySet::Last29();
  core::ResamplingOptions resampling;
  resampling.num_shifts = cli.selection.resampling_shifts;

  double derive_s = 0.0, bin_s = 0.0;
  std::vector<ml::Dataset> datasets;
  for (size_t index : order) {
    const telem::VehicleHistory& v = fleet.vehicles[index];
    const Clock::time_point t0 = Clock::now();
    nextmaint::Result<ml::Dataset> dataset = [&] {
      ScopedSpan span("core.DeriveSeries+BuildResampledDataset");
      nextmaint::Result<core::VehicleSeries> series = core::DeriveSeries(
          v.utilization, v.profile.maintenance_interval_s);
      if (!series.ok()) return nextmaint::Result<ml::Dataset>(series.status());
      return core::BuildResampledDataset(v.utilization,
                                         v.profile.maintenance_interval_s,
                                         dataset_options, resampling);
    }();
    derive_s += SecondsSince(t0);
    report.Op(dataset.ok());
    if (!dataset.ok()) continue;
    datasets.push_back(std::move(dataset).ValueOrDie());
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span("ml.BinMapper+BinnedDataset");
      ml::BinMapper mapper;
      mapper.Compute(datasets.back().x(), 256);
      ml::BinnedDataset binned;
      binned.Build(datasets.back().x(), mapper, kPoolThreads);
    }
    bin_s += SecondsSince(t1);
  }
  Layer(report, "core.derive_s", derive_s);
  Layer(report, "ml.bin_s", bin_s);
  if (datasets.empty()) return;

  // Fit scaling on the largest dataset: 1-thread fit time / pinned-pool
  // fit time; below 1 means the threads made the fit slower.
  const ml::Dataset* reference = &datasets.front();
  for (const ml::Dataset& d : datasets) {
    if (d.num_rows() > reference->num_rows()) reference = &d;
  }
  for (const char* algorithm : {"RF", "XGB"}) {
    double seconds[2] = {0.0, 0.0};
    const int threads[2] = {1, kPoolThreads};
    for (int i = 0; i < 2; ++i) {
      nextmaint::ThreadPool::SetDefaultThreadCount(threads[i]);
      std::vector<double> samples;
      for (int rep = 0; rep < 3; ++rep) {
        auto model = ml::MakeRegressor(algorithm);
        DieIfError(model.status(), "make regressor");
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span("ml.Regressor::Fit(scaling probe)");
        report.Op(model.ValueOrDie()->Fit(*reference).ok());
        samples.push_back(SecondsSince(t0));
      }
      seconds[i] = Median(samples);
    }
    nextmaint::ThreadPool::SetDefaultThreadCount(kPoolThreads);
    Layer(report, std::string("ml.fit_scaling.") + algorithm,
          seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0);
    Note("probe: %s fit %.4f s at 1 thread, %.4f s at %d (%zu rows)",
         algorithm, seconds[0], seconds[1], kPoolThreads,
         reference->num_rows());
  }
}

}  // namespace

void RunPaperBatch(const RunOptions& options, Report& report) {
  // `fleet` holds the series exactly as the system loads them from the
  // CSVs, so Table 1 and TrainAll see the same inputs.
  telem::Fleet fleet = ReferenceFleet(options.smoke);
  const std::string csv_dir =
      options.work_dir + "/paper_batch-" + std::to_string(::getpid());
  const std::vector<std::string> csv_paths = WriteFleetCsvs(fleet, csv_dir);
  for (size_t i = 0; i < fleet.vehicles.size(); ++i) {
    fleet.vehicles[i].utilization = LoadVehicleCsv(csv_paths[i]);
  }
  const std::vector<size_t> order =
      Permutation(fleet.vehicles.size(), options.seed);
  std::vector<size_t> old_order;
  for (size_t index : order) {
    const telem::VehicleHistory& v = fleet.vehicles[index];
    auto category = core::CategorizeUsage(v.utilization,
                                          v.profile.maintenance_interval_s);
    if (category.ok() && category.ValueOrDie() == core::VehicleCategory::kOld) {
      old_order.push_back(index);
    }
  }
  Note("paper_batch: %zu vehicles (%zu old), order seed %llu",
       fleet.vehicles.size(), old_order.size(),
       static_cast<unsigned long long>(options.seed));

  const std::string mode = options.smoke ? "smoke" : "full";
  Fingerprints expected;
  const bool have_expected =
      LoadExpected(options.expected_path, mode, &expected);

  EndToEnd e2e;
  const uint64_t rss_base = ResetPeakRss();

  double untraced_headline = 0.0;
  const Clock::time_point run_start = Clock::now();
  const double phase_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<Pass> passes;
  telemetry::MetricsSnapshot traced_delta;
  std::shared_ptr<core::FleetScheduler> last_scheduler;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = options.trace && phase == 1;
    if (traced) {
      untraced_headline = Median(e2e.work_s);
      e2e.work_s.clear();
      BeginTracedPhase();
    }
    const telemetry::MetricsSnapshot before = telemetry::Snapshot();
    const Clock::time_point phase_start = Clock::now();
    uint64_t pass_id = passes.size() + 1;
    do {
      // Set-up is sampled before every pass, so its median spans the run.
      std::shared_ptr<core::FleetScheduler> scheduler;
      for (int i = 0; i < kSetUpSamples; ++i) {
        double ingest_s = 0.0;
        scheduler.reset();
        scheduler = Ingest(fleet, csv_paths, order, &ingest_s);
        e2e.setup_s.push_back(ingest_s);
      }
      Pass pass = RunPass(fleet, old_order, *scheduler, pass_id++);
      e2e.work_s.push_back(pass.seconds);
      e2e.op_ms.insert(e2e.op_ms.end(), pass.evaluate_ms.begin(),
                       pass.evaluate_ms.end());
      report.Ops(pass.attempted, pass.failed);
      const Quantiles evaluate = Summarize(pass.evaluate_ms, 0.9);
      Note("pass %zu: %.4f s, evaluate p50 %.4f ms p90 %.4f ms, table1 %s, "
           "forecast %s",
           passes.size() + 1, pass.seconds, evaluate.p50, evaluate.tail,
           pass.table1_fp.c_str(), pass.forecast_fp.c_str());
      passes.push_back(std::move(pass));
      last_scheduler = std::move(scheduler);
    } while (SecondsSince(phase_start) < phase_seconds);
    if (traced) traced_delta = telemetry::SnapshotDelta(before, telemetry::Snapshot());
  }
  e2e.rss_growth_bytes = PeakRssGrowth(rss_base);
  Note("measured %.2f s", SecondsSince(run_start));
  std::error_code ec;
  std::filesystem::remove_all(csv_dir, ec);

  if (options.record) {
    std::ofstream out(options.expected_path, std::ios::app);
    out << mode << " " << passes.front().table1_fp << " "
        << passes.front().forecast_fp << "\n";
    Note("recorded %s fingerprints to %s", mode.c_str(),
         options.expected_path.c_str());
  }
  if (!have_expected && !options.record) {
    report.CheckFailed("no recorded " + mode + " fingerprints in " +
                       options.expected_path);
  }
  for (const Pass& pass : passes) {
    if (!have_expected) break;
    report.Check(pass.table1_fp == expected.table1,
                 "table1 fingerprint " + pass.table1_fp + " != expected " +
                     expected.table1);
    report.Check(pass.forecast_fp == expected.forecast,
                 "forecast fingerprint " + pass.forecast_fp +
                     " != expected " + expected.forecast);
  }
  Note("emre_days (RF trained-last29 E_MRE{1..29}): %.6f",
       passes.front().rf_last29_emre);
  Note("batch_s: median %.4f s over %zu passes", Median(e2e.work_s),
       e2e.work_s.size());

  if (!options.trace) {
    ReportEndToEnd("evaluate", e2e, Summarize(e2e.op_ms, 0.9), report);
    return;
  }
  ReportModelLayer(traced_delta, report);
  Layer(report, "quality.emre_days", passes.front().rf_last29_emre);
  const auto spans = Tracer::Get().Summarize();
  auto span_total = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  Layer(report, "core.evaluate_s", span_total("core.EvaluateAlgorithmOnVehicle"));
  Layer(report, "core.train_all_s", span_total("core.TrainAll"));
  Layer(report, "data.ingest_s", span_total("data.ingest"));
  Layer(report, "core.selection_s",
        HistogramSum(traced_delta, "scheduler.train.selection.seconds"));
  Layer(report, "core.unified_s",
        SpanSeconds(traced_delta, "scheduler.train.unified"));
  size_t lookups = 0, hits = 0;
  for (const std::string& id : last_scheduler->VehicleIds()) {
    if (auto cache = last_scheduler->VehicleBinningCache(id)) {
      lookups += cache->stats().lookups;
      hits += cache->stats().hits;
    }
  }
  if (auto cache = last_scheduler->UnifiedBinningCache()) {
    lookups += cache->stats().lookups;
    hits += cache->stats().hits;
  }
  Layer(report, "ml.binning_cache.hit_ratio",
        lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
  RunProbes(fleet, order, report);
  EndTracedRun(options, untraced_headline, Median(e2e.work_s), report);
}

}  // namespace fleetbench
