#ifndef NEXTMAINT_BENCH_HARNESS_H_
#define NEXTMAINT_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "core/old_vehicle.h"
#include "telematics/fleet.h"

/// \file harness.h
/// Shared setup for the experiment benches: the reference fleet (the
/// synthetic stand-in for the paper's 24-vehicle / 4-year dataset), helpers
/// to evaluate an algorithm across every old vehicle, and table printing.
///
/// Every bench honours three environment variables:
///   NEXTMAINT_BENCH_FULL=1     run the paper-fidelity configuration (grid
///                              search + full resampling; minutes per table)
///   NEXTMAINT_BENCH_SEED=N     override the fleet seed
///   NEXTMAINT_BENCH_THREADS=N  train on N threads (default 1 so timings
///                              stay comparable across runs; results are
///                              bit-identical at any N)

namespace nextmaint {
namespace bench {

/// Configuration of a reproduction run.
struct BenchConfig {
  int num_vehicles = 24;
  int num_days = 1735;  // Jan 2015 .. Sep 2019
  double maintenance_interval_s = 2'000'000.0;
  uint64_t seed = 20150101;
  /// Grid-search tuning on/off (the FULL env flag turns it on).
  bool tune = false;
  int grid_budget = 0;
  int resampling_shifts = 2;
  /// Threads for model training (process-wide default pool size). 1 keeps
  /// the timing columns comparable with the paper's serial runs.
  int num_threads = 1;
};

/// Reads the environment and builds the effective config. Also applies
/// `num_threads` to the process-wide thread pool so every model trained by
/// the bench inherits it.
BenchConfig ConfigFromEnv();

/// Simulates the reference fleet for a config (aborts on failure: benches
/// have no meaningful degraded mode).
telem::Fleet MakeReferenceFleet(const BenchConfig& config);

/// Indices of the vehicles categorized as old under the config's T_v.
std::vector<size_t> OldVehicleIndices(const telem::Fleet& fleet,
                                      double maintenance_interval_s);

/// Mean E_MRE / E_Global of one algorithm across a set of vehicles, plus
/// bookkeeping about skipped vehicles and training time.
struct FleetEvaluation {
  std::string algorithm;
  double mean_emre = 0.0;
  double mean_eglobal = 0.0;
  double mean_train_seconds = 0.0;
  size_t vehicles_evaluated = 0;
  size_t vehicles_skipped = 0;
  /// One evaluation per vehicle that succeeded, in fleet order.
  std::vector<core::VehicleEvaluation> per_vehicle;
};

/// Evaluates `algorithm` on every listed vehicle with the given options,
/// averaging E_MRE/E_Global across vehicles (the paper's aggregation).
/// Vehicles that cannot be evaluated (no completed test cycle) are counted
/// as skipped — with the reference fleet there should be none.
Result<FleetEvaluation> EvaluateOnFleet(const std::string& algorithm,
                                        const telem::Fleet& fleet,
                                        const std::vector<size_t>& vehicles,
                                        const core::OldVehicleOptions& options);

/// The five algorithms of the paper, in table order.
const std::vector<std::string>& PaperAlgorithms();

/// Prints a markdown-ish table row; helpers keep bench outputs uniform.
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);

/// Peak resident-set size of this process in bytes (Linux VmHWM from
/// /proc/self/status). 0 when the value cannot be read (non-Linux, proc
/// unmounted); benches then report their RSS fields as 0 rather than
/// failing.
uint64_t PeakRssBytes();
/// Current anonymous (heap) and file-backed (mmap, text) resident bytes,
/// RssAnon and RssFile from /proc/self/status; 0 when unreadable.
uint64_t RssAnonBytes();
uint64_t RssFileBytes();

/// Resets the kernel's peak-RSS watermark to the *current* RSS by writing
/// "5" to /proc/self/clear_refs, so a subsequent PeakRssBytes() reflects
/// only growth since the reset. Returns false when the kernel refuses the
/// write (old kernels, restricted procfs) — callers should then flag their
/// RSS deltas as unreset rather than asserting on them.
bool ResetPeakRss();

/// RAII metrics report for one figure/table run: snapshots the registry at
/// construction and, when telemetry is enabled (NEXTMAINT_METRICS=1),
/// prints the delta accumulated during the run at destruction. With
/// telemetry disabled it is a no-op, so bench timings are unaffected.
class MetricsReport {
 public:
  explicit MetricsReport(std::string title);
  ~MetricsReport();

  MetricsReport(const MetricsReport&) = delete;
  MetricsReport& operator=(const MetricsReport&) = delete;

 private:
  std::string title_;
  telemetry::MetricsSnapshot before_;
};

}  // namespace bench
}  // namespace nextmaint

#endif  // NEXTMAINT_BENCH_HARNESS_H_
