#ifndef FLEETBENCH_WORKLOADS_H_
#define FLEETBENCH_WORKLOADS_H_

// The four workloads and the helpers they share. Each Run* function
// generates its inputs from the seed, sets the system up, measures for
// RunOptions::seconds, checks the outputs and fills the report: the
// end-to-end metrics untraced, the per-layer metrics when traced.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/telemetry.h"
#include "core/scheduler.h"
#include "telematics/fleet.h"

namespace fleetbench {

void RunPaperBatch(const RunOptions& options, Report& report);
void RunRefreshStream(const RunOptions& options, Report& report);
void RunFleetRestore(const RunOptions& options, Report& report);

/// Every per-layer metric, in the order BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& PerLayerMetrics();
/// Pre-fills every per-layer metric with 0 so a traced run always carries
/// the full set.
void ZeroPerLayerMetrics(Report& report);
/// Unit of a per-layer metric (aborts on an unknown name).
const char* PerLayerUnit(const std::string& name);
/// Report::Metric with the unit looked up from PerLayerMetrics().
void Layer(Report& report, const std::string& name, double value);

/// Fills the end-to-end metrics every workload shares.
struct EndToEnd {
  std::vector<double> setup_s;  // one sample per set-up
  std::vector<double> work_s;   // one sample per unit of bulk work
  std::vector<double> op_ms;    // one sample per timed operation
  uint64_t rss_growth_bytes = 0;
};
/// `ops` gives p50_ms / tail_ms, usually Summarize(e2e.op_ms, target).
void ReportEndToEnd(const std::string& op_label, const EndToEnd& e2e,
                    const Quantiles& ops, Report& report);

/// Scheduler options of `nextmaint forecast` with no flags: W=6, BL/LR/RF
/// selection, XGB Model_Uni, last-29 training, 2 re-sampling shifts — on
/// the pinned pool.
nextmaint::core::SchedulerOptions CliDefaultOptions();

/// The cheap large-fleet configuration of `bench_fleet_load` (T_v = 300k
/// s, W = 3, BL selection, LR Model_Uni, no re-sampling): every vehicle of
/// a 45-day fleet is old and trains on its own history.
nextmaint::core::SchedulerOptions LargeFleetOptions();
inline constexpr double kLargeFleetTv = 300'000.0;
inline constexpr int kLargeFleetDays = 45;

/// The paper's 24-vehicle x 1735-day reference fleet (fixed seed); the
/// smoke fleet is 6 x 900 days.
nextmaint::telem::Fleet ReferenceFleet(bool smoke);

/// One day of synthetic large-fleet utilization, a pure function of
/// (seed, vehicle, day) so every process regenerates identical inputs.
double LargeFleetUsage(uint64_t seed, uint64_t vehicle, uint64_t day);
std::string LargeFleetId(uint64_t vehicle);
nextmaint::Date LargeFleetStart();

/// Field-by-field, bit-exact forecast equality.
bool SameForecast(const nextmaint::core::MaintenanceForecast& a,
                  const nextmaint::core::MaintenanceForecast& b);
/// Order-independent fingerprint (sorted by vehicle id).
std::string ForecastFingerprint(
    std::vector<nextmaint::core::MaintenanceForecast> forecasts);

/// Telemetry accessors over a snapshot delta (0 when absent).
double HistogramSum(const nextmaint::telemetry::MetricsSnapshot& snapshot,
                    const std::string& name);
uint64_t HistogramCount(const nextmaint::telemetry::MetricsSnapshot& snapshot,
                        const std::string& name);
uint64_t CounterValue(const nextmaint::telemetry::MetricsSnapshot& snapshot,
                      const std::string& name);
double SpanSeconds(const nextmaint::telemetry::MetricsSnapshot& snapshot,
                   const std::string& name);

/// Emits the ml.fit_* / ml.predict_s.* metrics from a telemetry delta.
void ReportModelLayer(const nextmaint::telemetry::MetricsSnapshot& delta,
                      Report& report);

/// Enables telemetry and the span tracer for the traced phase.
void BeginTracedPhase();
/// Writes the span dump to the work directory and emits the
/// trace.overhead_share metric (traced / untraced headline - 1).
void EndTracedRun(const RunOptions& options, double untraced_headline,
                  double traced_headline, Report& report);

}  // namespace fleetbench

#endif  // FLEETBENCH_WORKLOADS_H_
