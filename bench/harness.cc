#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "common/parallel.h"
#include "core/category.h"

namespace nextmaint {
namespace bench {

BenchConfig ConfigFromEnv() {
  BenchConfig config;
  const char* full = std::getenv("NEXTMAINT_BENCH_FULL");
  if (full != nullptr && std::strcmp(full, "1") == 0) {
    config.tune = true;
    config.grid_budget = 1;
    config.resampling_shifts = 5;
  }
  const char* seed = std::getenv("NEXTMAINT_BENCH_SEED");
  if (seed != nullptr) {
    config.seed = static_cast<uint64_t>(std::strtoull(seed, nullptr, 10));
  }
  const char* threads = std::getenv("NEXTMAINT_BENCH_THREADS");
  if (threads != nullptr) {
    config.num_threads =
        std::max(1, static_cast<int>(std::strtol(threads, nullptr, 10)));
  }
  ThreadPool::SetDefaultThreadCount(config.num_threads);
  return config;
}

telem::Fleet MakeReferenceFleet(const BenchConfig& config) {
  telem::FleetOptions options;
  options.num_vehicles = config.num_vehicles;
  options.num_days = config.num_days;
  options.maintenance_interval_s = config.maintenance_interval_s;
  options.seed = config.seed;
  options.start_date = Date::FromYmd(2015, 1, 1).ValueOrDie();
  Result<telem::Fleet> fleet = telem::SimulateFleet(options);
  NM_CHECK_MSG(fleet.ok(), fleet.status().ToString().c_str());
  return std::move(fleet).ValueOrDie();
}

std::vector<size_t> OldVehicleIndices(const telem::Fleet& fleet,
                                      double maintenance_interval_s) {
  std::vector<size_t> old;
  for (size_t i = 0; i < fleet.vehicles.size(); ++i) {
    const Result<core::VehicleCategory> category = core::CategorizeUsage(
        fleet.vehicles[i].utilization, maintenance_interval_s);
    if (category.ok() &&
        category.ValueOrDie() == core::VehicleCategory::kOld) {
      old.push_back(i);
    }
  }
  return old;
}

Result<FleetEvaluation> EvaluateOnFleet(
    const std::string& algorithm, const telem::Fleet& fleet,
    const std::vector<size_t>& vehicles,
    const core::OldVehicleOptions& options) {
  if (vehicles.empty()) {
    return Status::InvalidArgument("no vehicles to evaluate");
  }
  FleetEvaluation out;
  out.algorithm = algorithm;
  double emre_sum = 0.0, eglobal_sum = 0.0, time_sum = 0.0;
  for (size_t index : vehicles) {
    const telem::VehicleHistory& vehicle = fleet.vehicles[index];
    Result<core::VehicleEvaluation> eval = core::EvaluateAlgorithmOnVehicle(
        algorithm, vehicle.utilization, vehicle.profile.maintenance_interval_s,
        options);
    if (!eval.ok()) {
      ++out.vehicles_skipped;
      std::fprintf(stderr, "  [skip] %s on %s: %s\n", algorithm.c_str(),
                   vehicle.profile.id.c_str(),
                   eval.status().ToString().c_str());
      continue;
    }
    core::VehicleEvaluation value = std::move(eval).ValueOrDie();
    emre_sum += value.emre;
    eglobal_sum += value.eglobal;
    time_sum += value.train_seconds;
    ++out.vehicles_evaluated;
    out.per_vehicle.push_back(std::move(value));
  }
  if (out.vehicles_evaluated == 0) {
    return Status::InvalidArgument("every vehicle was skipped for " +
                                   algorithm);
  }
  const double n = static_cast<double>(out.vehicles_evaluated);
  out.mean_emre = emre_sum / n;
  out.mean_eglobal = eglobal_sum / n;
  out.mean_train_seconds = time_sum / n;
  return out;
}

const std::vector<std::string>& PaperAlgorithms() {
  static const std::vector<std::string>* const kAlgorithms =
      new std::vector<std::string>{  // nextmaint-lint: allow(naked-new)
          "BL", "LR", "LSVR", "RF", "XGB"};
  return *kAlgorithms;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%-14s", i == 0 ? "" : " | ", columns[i].c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s--------------", i == 0 ? "" : "-+-");
  }
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-14s", i == 0 ? "" : " | ", cells[i].c_str());
  }
  std::printf("\n");
}

namespace {

/// The "<field>: <n> kB" line of /proc/self/status, in bytes; 0 when it
/// cannot be read.
uint64_t ProcStatusBytes(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  uint64_t bytes = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    unsigned long long kib = 0;
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':' &&
        std::sscanf(line + field_len + 1, " %llu kB", &kib) == 1) {
      bytes = static_cast<uint64_t>(kib) * 1024;
      break;
    }
  }
  std::fclose(status);
  return bytes;
}

}  // namespace

uint64_t PeakRssBytes() { return ProcStatusBytes("VmHWM"); }
uint64_t RssAnonBytes() { return ProcStatusBytes("RssAnon"); }
uint64_t RssFileBytes() { return ProcStatusBytes("RssFile"); }

bool ResetPeakRss() {
  std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w");
  if (clear_refs == nullptr) return false;
  const bool ok = std::fputs("5", clear_refs) >= 0;
  return (std::fclose(clear_refs) == 0) && ok;
}

MetricsReport::MetricsReport(std::string title) : title_(std::move(title)) {
  if (telemetry::Enabled()) before_ = telemetry::Snapshot();
}

MetricsReport::~MetricsReport() {
  if (!telemetry::Enabled()) return;
  const telemetry::MetricsSnapshot delta =
      telemetry::SnapshotDelta(before_, telemetry::Snapshot());
  std::printf("\n--- metrics: %s ---\n%s", title_.c_str(),
              telemetry::RenderText(delta).c_str());
}

}  // namespace bench
}  // namespace nextmaint
