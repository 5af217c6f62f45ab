#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "workloads.h"

namespace fleetbench {

namespace core = nextmaint::core;
namespace telemetry = nextmaint::telemetry;

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"ml.fit_s.LR", "s"},
      {"ml.fit_s.LSVR", "s"},
      {"ml.fit_s.RF", "s"},
      {"ml.fit_s.XGB", "s"},
      {"ml.fit_count.LR", "count"},
      {"ml.fit_count.LSVR", "count"},
      {"ml.fit_count.RF", "count"},
      {"ml.fit_count.XGB", "count"},
      {"ml.fit_rows.LR", "count"},
      {"ml.fit_rows.LSVR", "count"},
      {"ml.fit_rows.RF", "count"},
      {"ml.fit_rows.XGB", "count"},
      {"ml.predict_s.RF", "s"},
      {"ml.predict_s.XGB", "s"},
      {"ml.fit_scaling.RF", "ratio"},
      {"ml.fit_scaling.XGB", "ratio"},
      {"ml.bin_s", "s"},
      {"ml.binning_cache.hit_ratio", "ratio"},
      {"core.evaluate_s", "s"},
      {"core.train_all_s", "s"},
      {"core.selection_s", "s"},
      {"core.unified_s", "s"},
      {"core.derive_s", "s"},
      {"quality.emre_days", "days"},
      {"serve.refresh_s", "s"},
      {"serve.retrained_per_refresh", "ratio"},
      {"serve.unified_retrains", "count"},
      {"daemon.read_us", "us"},
      {"daemon.append_ack_us", "us"},
      {"transport.read_overhead_us", "us"},
      {"protocol.encode_us", "us"},
      {"protocol.decode_us", "us"},
      {"daemon.queue_depth_max", "count"},
      {"daemon.overloaded_share", "share"},
      {"daemon.auto_refreshes", "count"},
      {"daemon.refresh_ms", "ms"},
      {"storage.load_s", "s"},
      {"storage.load_rss_anon_mb", "MB"},
      {"storage.load_rss_file_mb", "MB"},
      {"storage.materializations", "count"},
      {"storage.bytes_per_vehicle_save", "bytes"},
      {"storage.checkpoint_bytes", "bytes"},
      {"storage.checkpoint_save_s", "s"},
      {"data.ingest_s", "s"},
      {"trace.overhead_share", "share"},
  };
  return kMetrics;
}

void ZeroPerLayerMetrics(Report& report) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    report.Metric(spec.name, 0.0, spec.unit);
  }
}

const char* PerLayerUnit(const std::string& name) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (name == spec.name) return spec.unit;
  }
  std::fprintf(stderr, "fleetbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void Layer(Report& report, const std::string& name, double value) {
  report.Metric(name, value, PerLayerUnit(name));
}

void ReportEndToEnd(const std::string& op_label, const EndToEnd& e2e,
                    const Quantiles& ops, Report& report) {
  const double setup = Median(e2e.setup_s);
  const double work = Median(e2e.work_s);
  Note("setup: median %.4f s over %zu set-ups", setup, e2e.setup_s.size());
  Note("work: median %.4f s over %zu units (min %.4f, max %.4f)", work,
       e2e.work_s.size(),
       e2e.work_s.empty() ? 0.0
                          : *std::min_element(e2e.work_s.begin(), e2e.work_s.end()),
       e2e.work_s.empty() ? 0.0
                          : *std::max_element(e2e.work_s.begin(), e2e.work_s.end()));
  Note("%s: n=%zu p50 %.4f ms, %s %.4f ms", op_label.c_str(), ops.n,
       ops.p50, QuantileLabel(ops.tail_q).c_str(), ops.tail);
  report.Metric("setup_s", setup, "s");
  report.Metric("work_s", work, "s");
  report.Metric("p50_ms", ops.p50, "ms");
  report.Metric("tail_ms", ops.tail, "ms");
  report.Metric("peak_rss_mb", Mb(e2e.rss_growth_bytes), "MB");
  report.Metric("success_share", report.SuccessShare(), "share");
}

core::SchedulerOptions CliDefaultOptions() {
  core::SchedulerOptions options;
  options.maintenance_interval_s = 2'000'000.0;
  options.window = 6;
  options.num_threads = kPoolThreads;
  options.selection.tune = false;
  options.selection.train_on_last29_only = true;
  options.selection.resampling_shifts = 2;
  return options;
}

core::SchedulerOptions LargeFleetOptions() {
  core::SchedulerOptions options;
  options.maintenance_interval_s = kLargeFleetTv;
  options.window = 3;
  options.algorithms = {"BL"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.train_on_last29_only = true;
  options.selection.resampling_shifts = 0;
  options.num_threads = kPoolThreads;
  return options;
}

nextmaint::telem::Fleet ReferenceFleet(bool smoke) {
  nextmaint::telem::FleetOptions options;
  options.num_vehicles = smoke ? 6 : 24;
  options.num_days = 1735;
  options.maintenance_interval_s = 2'000'000.0;
  options.seed = 20150101;
  options.start_date = nextmaint::Date::FromYmd(2015, 1, 1).ValueOrDie();
  nextmaint::Result<nextmaint::telem::Fleet> fleet =
      nextmaint::telem::SimulateFleet(options);
  DieIfError(fleet.status(), "simulate reference fleet");
  return std::move(fleet).ValueOrDie();
}

double LargeFleetUsage(uint64_t seed, uint64_t vehicle, uint64_t day) {
  // ~15k s/day against T_v = 300k s: two completed cycles in 45 days.
  return 12'000.0 + 6'000.0 * UnitDouble(seed, vehicle, day);
}

std::string LargeFleetId(uint64_t vehicle) {
  return "truck-" + std::to_string(vehicle);
}

nextmaint::Date LargeFleetStart() {
  return nextmaint::Date::FromYmd(2016, 1, 1).ValueOrDie();
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool SameForecast(const core::MaintenanceForecast& a,
                  const core::MaintenanceForecast& b) {
  return a.vehicle_id == b.vehicle_id && a.category == b.category &&
         a.model_name == b.model_name && SameBits(a.days_left, b.days_left) &&
         a.predicted_date == b.predicted_date &&
         SameBits(a.usage_seconds_left, b.usage_seconds_left);
}

std::string ForecastFingerprint(
    std::vector<core::MaintenanceForecast> forecasts) {
  std::sort(forecasts.begin(), forecasts.end(),
            [](const core::MaintenanceForecast& a,
               const core::MaintenanceForecast& b) {
              return a.vehicle_id < b.vehicle_id;
            });
  Fingerprint fp;
  for (const core::MaintenanceForecast& f : forecasts) {
    fp.String(f.vehicle_id);
    fp.U64(static_cast<uint64_t>(f.category));
    fp.String(f.model_name);
    fp.Double(f.days_left);
    fp.String(f.predicted_date.ToString());
    fp.Double(f.usage_seconds_left);
  }
  return fp.Hex();
}

double HistogramSum(const telemetry::MetricsSnapshot& snapshot,
                    const std::string& name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
}

uint64_t HistogramCount(const telemetry::MetricsSnapshot& snapshot,
                        const std::string& name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0 : it->second.count;
}

uint64_t CounterValue(const telemetry::MetricsSnapshot& snapshot,
                      const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double SpanSeconds(const telemetry::MetricsSnapshot& snapshot,
                   const std::string& name) {
  double total = 0.0;
  for (const telemetry::SpanRecord& span : snapshot.spans) {
    if (span.name == name) total += span.seconds;
  }
  return total;
}

void ReportModelLayer(const telemetry::MetricsSnapshot& delta,
                      Report& report) {
  for (const char* algorithm : {"LR", "LSVR", "RF", "XGB"}) {
    const std::string a = algorithm;
    Layer(report, "ml.fit_s." + a, HistogramSum(delta, "ml.fit.seconds." + a));
    Layer(report, "ml.fit_count." + a,
          static_cast<double>(CounterValue(delta, "ml.fit.count." + a)));
    Layer(report, "ml.fit_rows." + a,
          static_cast<double>(CounterValue(delta, "ml.fit.rows." + a)));
  }
  for (const char* algorithm : {"RF", "XGB"}) {
    const std::string a = algorithm;
    Layer(report, "ml.predict_s." + a,
          HistogramSum(delta, "ml.predict_batch.seconds." + a));
  }
}

void BeginTracedPhase() {
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(true);
  Tracer::Get().Enable(true);
}

void EndTracedRun(const RunOptions& options, double untraced_headline,
                  double traced_headline, Report& report) {
  Tracer::Get().Enable(false);
  telemetry::SetEnabled(false);
  const double overhead = untraced_headline > 0.0
                              ? traced_headline / untraced_headline - 1.0
                              : 0.0;
  Note("trace: headline untraced %.6g, traced %.6g, overhead %+.2f%%",
       untraced_headline, traced_headline, overhead * 100.0);
  Layer(report, "trace.overhead_share", overhead);
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (Tracer::Get().Dump(path)) {
    Note("trace: %zu spans written to %s", Tracer::Get().size(),
         path.c_str());
  }
  for (const auto& [name, totals] : Tracer::Get().Summarize()) {
    Note("span %-40s n=%-6llu total %.4f s self %.4f s", name.c_str(),
         static_cast<unsigned long long>(totals.count), totals.total_s,
         totals.self_s);
  }
}

}  // namespace fleetbench
