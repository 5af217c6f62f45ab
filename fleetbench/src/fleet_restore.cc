// fleet_restore: the storage layer at fleet scale.
//
// Inputs: 100k vehicles x 45 days of synthetic utilization (a pure
// function of the seed). Preparation, not timed: the system ingests and
// trains the fleet and saves its own checkpoint.
// One cycle: a fresh scheduler registers and ingests the fleet and runs
// LoadCheckpoint (setup_s), then FleetForecast over the whole fleet with
// lazy materialisation (work_s), then SaveVehicleCheckpoint for a fixed
// sample of vehicles (each one a timed op: p50_ms / tail_ms), then a full
// SaveCheckpoint that the next cycle restores from.
// Check: every cycle's forecasts equal the ones taken before the first
// save, bit for bit.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "workloads.h"

namespace fleetbench {
namespace {

namespace core = nextmaint::core;
namespace telemetry = nextmaint::telemetry;
namespace fs = std::filesystem;

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

std::unique_ptr<core::FleetScheduler> Ingest(
    const std::vector<std::vector<double>>& base) {
  ScopedSpan span("data.ingest");
  auto scheduler = std::make_unique<core::FleetScheduler>(LargeFleetOptions());
  for (size_t v = 0; v < base.size(); ++v) {
    DieIfError(scheduler->RegisterVehicle(LargeFleetId(v), LargeFleetStart()),
               "register vehicle");
    DieIfError(scheduler->IngestSeries(
                   LargeFleetId(v),
                   nextmaint::data::DailySeries(LargeFleetStart(), base[v])),
               "ingest series");
  }
  return scheduler;
}

struct CycleTimes {
  std::vector<double> ingest_s, load_s, load_anon_mb, load_file_mb;
  std::vector<double> save_s, bytes_per_save;
};

}  // namespace

void RunFleetRestore(const RunOptions& options, Report& report) {
  const size_t vehicles = options.smoke ? 3000 : 100'000;
  const size_t sample_size = options.smoke ? 8 : 25;
  std::vector<std::vector<double>> base(vehicles);
  for (size_t v = 0; v < vehicles; ++v) {
    for (int d = 0; d < kLargeFleetDays; ++d) {
      base[v].push_back(LargeFleetUsage(options.seed, v, d));
    }
  }
  std::vector<std::string> sample;
  for (size_t j = 0; j < sample_size; ++j) {
    sample.push_back(LargeFleetId(Mix64(options.seed ^ (0x5a3e0000ULL + j)) %
                                  vehicles));
  }
  const std::string checkpoint =
      options.work_dir + "/fleet-" + std::to_string(options.seed) + ".ckpt";

  // Preparation: the system trains and saves its own checkpoint.
  std::vector<core::MaintenanceForecast> before;
  {
    std::unique_ptr<core::FleetScheduler> prep = Ingest(base);
    DieIfError(prep->TrainAll(), "prepare: TrainAll");
    auto forecasts = prep->FleetForecast();
    DieIfError(forecasts.status(), "prepare: FleetForecast");
    before = std::move(forecasts).ValueOrDie();
    DieIfError(prep->SaveCheckpoint(checkpoint), "prepare: SaveCheckpoint");
  }
  std::sort(before.begin(), before.end(),
            [](const core::MaintenanceForecast& a,
               const core::MaintenanceForecast& b) {
              return a.vehicle_id < b.vehicle_id;
            });
  const uint64_t checkpoint_bytes = FileSize(checkpoint);
  Note("fleet_restore: %zu vehicles x %d days, checkpoint %.1f MB, "
       "%zu-vehicle save sample",
       vehicles, kLargeFleetDays, Mb(checkpoint_bytes), sample_size);
  // Hand the preparation's heap back so the RSS growth below is the
  // restore's own.
  ::malloc_trim(0);

  EndToEnd e2e;
  CycleTimes times;
  const uint64_t rss_base = ResetPeakRss();

  double untraced_headline = 0.0;
  telemetry::MetricsSnapshot traced_delta;
  const double phase_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  uint64_t cycle_id = 0;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = options.trace && phase == 1;
    if (traced) {
      untraced_headline = Median(e2e.work_s);
      e2e.work_s.clear();
      times = CycleTimes();
      BeginTracedPhase();
    }
    const telemetry::MetricsSnapshot snapshot_before = telemetry::Snapshot();
    const Clock::time_point phase_start = Clock::now();
    do {
      ++cycle_id;
      ScopedSpan cycle_span("fleet_restore.cycle", cycle_id);
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<core::FleetScheduler> scheduler = Ingest(base);
      times.ingest_s.push_back(SecondsSince(t0));
      const uint64_t anon0 = RssAnonBytes(), file0 = RssFileBytes();
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan span("storage.LoadCheckpoint", cycle_id);
        report.Check(scheduler->LoadCheckpoint(checkpoint).ok(),
                     "LoadCheckpoint failed");
      }
      times.load_s.push_back(SecondsSince(t1));
      e2e.setup_s.push_back(SecondsSince(t0));
      times.load_anon_mb.push_back(Mb(RssAnonBytes()) - Mb(anon0));
      times.load_file_mb.push_back(Mb(RssFileBytes()) - Mb(file0));

      const Clock::time_point t2 = Clock::now();
      nextmaint::Result<std::vector<core::MaintenanceForecast>> after = [&] {
        ScopedSpan span("core.FleetForecast", cycle_id);
        return scheduler->FleetForecast();
      }();
      e2e.work_s.push_back(SecondsSince(t2));
      report.Check(after.ok(), "FleetForecast after restore failed");
      if (after.ok()) {
        std::vector<core::MaintenanceForecast> got =
            std::move(after).ValueOrDie();
        std::sort(got.begin(), got.end(),
                  [](const core::MaintenanceForecast& a,
                     const core::MaintenanceForecast& b) {
                    return a.vehicle_id < b.vehicle_id;
                  });
        size_t mismatches = got.size() == before.size() ? 0 : 1;
        for (size_t i = 0; i < std::min(got.size(), before.size()); ++i) {
          if (!SameForecast(got[i], before[i])) ++mismatches;
        }
        report.Check(mismatches == 0, "restored forecasts differ on " +
                                          std::to_string(mismatches) +
                                          " vehicles");
      }

      const uint64_t size_before = FileSize(checkpoint);
      for (const std::string& id : sample) {
        const Clock::time_point t3 = Clock::now();
        ScopedSpan span("storage.SaveVehicleCheckpoint", cycle_id);
        report.Op(scheduler->SaveVehicleCheckpoint(checkpoint, id).ok());
        e2e.op_ms.push_back(SecondsSince(t3) * 1e3);
      }
      times.bytes_per_save.push_back(
          static_cast<double>(FileSize(checkpoint) - size_before) /
          static_cast<double>(sample.size()));

      const Clock::time_point t4 = Clock::now();
      {
        ScopedSpan span("storage.SaveCheckpoint", cycle_id);
        report.Check(scheduler->SaveCheckpoint(checkpoint).ok(),
                     "SaveCheckpoint failed");
      }
      times.save_s.push_back(SecondsSince(t4));
    } while (SecondsSince(phase_start) < phase_seconds);
    if (traced) {
      traced_delta =
          telemetry::SnapshotDelta(snapshot_before, telemetry::Snapshot());
    }
  }
  e2e.rss_growth_bytes = PeakRssGrowth(rss_base);
  report.Check(FileSize(checkpoint) == checkpoint_bytes,
               "full save changed the checkpoint size");
  std::error_code ec;
  fs::remove(checkpoint, ec);
  Note("cycles %llu: ingest %.4f s, load %.4f s, forecast %.4f s, full "
       "save %.4f s (medians)",
       static_cast<unsigned long long>(cycle_id), Median(times.ingest_s),
       Median(times.load_s), Median(e2e.work_s), Median(times.save_s));

  if (!options.trace) {
    ReportEndToEnd("save_vehicle", e2e, Summarize(e2e.op_ms, 0.9), report);
    return;
  }
  ReportModelLayer(traced_delta, report);
  Layer(report, "storage.load_s", Median(times.load_s));
  Layer(report, "storage.load_rss_anon_mb", Median(times.load_anon_mb));
  Layer(report, "storage.load_rss_file_mb", Median(times.load_file_mb));
  Layer(report, "storage.materializations",
        static_cast<double>(CounterValue(
            traced_delta, "scheduler.checkpoint.lazy_materializations")));
  Layer(report, "storage.bytes_per_vehicle_save", Median(times.bytes_per_save));
  Layer(report, "storage.checkpoint_bytes",
        static_cast<double>(checkpoint_bytes));
  Layer(report, "storage.checkpoint_save_s", Median(times.save_s));
  Layer(report, "data.ingest_s", Median(times.ingest_s));
  EndTracedRun(options, untraced_headline, Median(e2e.work_s), report);
}

}  // namespace fleetbench
