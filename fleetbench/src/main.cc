// fleetbench: the repository's benchmark driver.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--work-dir DIR] [--expected FILE]
//              [--record-fingerprints]
//
// Workloads: paper_batch, refresh_stream, fleet_restore (see README.md).
// The last stdout line is the JSON result; every other line is a
// human-readable note.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "workloads.h"

namespace {

using fleetbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload "
               "paper_batch|refresh_stream|fleet_restore "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR] "
               "[--expected FILE] [--record-fingerprints]\n");
  return 2;
}

/// Refuses builds whose timings would mean nothing: unoptimised or
/// sanitizer builds, or telemetry compiled out (no traced run possible).
bool BuildIsBenchmarkable() {
  bool ok = true;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "fleetbench: refusing an unoptimised build\n");
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "fleetbench: refusing a sanitizer build\n");
  ok = false;
#endif
  if (std::strlen(FLEETBENCH_SANITIZE) != 0) {
    std::fprintf(stderr, "fleetbench: refusing NEXTMAINT_SANITIZE=%s\n",
                 FLEETBENCH_SANITIZE);
    ok = false;
  }
  if (std::strcmp(FLEETBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "fleetbench: refusing build type '%s'\n",
                 FLEETBENCH_BUILD_TYPE);
    ok = false;
  }
  if (!FLEETBENCH_TELEMETRY) {
    std::fprintf(stderr, "fleetbench: telemetry is compiled out\n");
    ok = false;
  }
  return ok;
}

/// Checks of the raw-sample quantile rules (run by test_fleetbench.py).
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test failed: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const fleetbench::Quantiles q100 = fleetbench::Summarize(hundred, 0.99);
  expect(q100.n == 100 && q100.p50 == 50.0, "p50 of 1..100 is 50");
  expect(q100.tail_q == 0.9 && q100.tail == 90.0,
         "1..100 supports p90 (ten beyond), not p99");
  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  const fleetbench::Quantiles q99 = fleetbench::Summarize(ninety_nine, 0.99);
  expect(q99.tail_q == 0.75, "99 samples support p75, not p90");
  std::vector<double> many(5000);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<double>(i);
  expect(fleetbench::Summarize(many, 0.99).tail_q == 0.99,
         "5000 samples capped at p99");
  expect(fleetbench::Summarize(many).tail_q == 0.99,
         "5000 samples leave fewer than ten beyond p99.9");
  expect(fleetbench::Summarize({7.0}).tail == 7.0, "one sample");
  expect(fleetbench::Median({1.0, 3.0, 2.0, 4.0}) == 2.5, "even median");
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return SelfTest();
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--record-fingerprints") {
      record = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--expected" && has_value) {
      options.expected_path = argv[++i];
    } else {
      return Usage();
    }
  }
  options.record = record;
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  if (!BuildIsBenchmarkable()) return 3;

  if (options.work_dir.empty()) options.work_dir = ".bench_build/run";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (options.expected_path.empty()) {
    options.expected_path = "fleetbench/expected/paper_batch.txt";
  }

  // End-to-end runs keep telemetry off; the traced phase turns it on.
  nextmaint::telemetry::SetEnabled(false);
  nextmaint::ThreadPool::SetDefaultThreadCount(fleetbench::kPoolThreads);
  fleetbench::Note(
      "fleetbench %s seed=%llu seconds=%g trace=%d smoke=%d pool=%d "
      "nproc=%u build=%s compiler='%s' flags='%s' telemetry=%d "
      "failpoints=%d sanitize='%s'",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0,
      nextmaint::ThreadPool::DefaultThreadCount(),
      std::thread::hardware_concurrency(), FLEETBENCH_BUILD_TYPE,
      FLEETBENCH_COMPILER, FLEETBENCH_CXX_FLAGS, FLEETBENCH_TELEMETRY ? 1 : 0,
      FLEETBENCH_FAILPOINTS ? 1 : 0, FLEETBENCH_SANITIZE);

  fleetbench::Report report;
  // A traced run reports every per-layer metric; layers the workload does
  // not exercise stay at 0.
  if (options.trace) fleetbench::ZeroPerLayerMetrics(report);
  if (options.workload == "paper_batch") {
    fleetbench::RunPaperBatch(options, report);
  } else if (options.workload == "refresh_stream") {
    fleetbench::RunRefreshStream(options, report);
  } else if (options.workload == "fleet_restore") {
    fleetbench::RunFleetRestore(options, report);
  } else {
    return Usage();
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "fleetbench: no operation was attempted\n");
    return 1;
  }
  report.Print();
  return 0;
}
