#ifndef FLEETBENCH_BENCH_UTIL_H_
#define FLEETBENCH_BENCH_UTIL_H_

// Shared plumbing of the fleet benchmark: run options, raw-sample
// percentiles, peak-RSS accounting, the result report printed as the last
// stdout line, deterministic input hashing and the in-memory span tracer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Thread-pool size every workload and probe pins (training pool, daemon
/// scheduler, fleet fan-out). The generator never uses more threads.
inline constexpr int kPoolThreads = 4;

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Per-layer run: telemetry on, spans recorded, per-layer metrics out.
  bool trace = false;
  /// Small sizes for the benchmark's own tests.
  bool smoke = false;
  /// Expected paper_batch fingerprints.
  std::string expected_path;
  /// Append this run's paper_batch fingerprints to expected_path.
  bool record = false;
  /// Scratch directory inside the checkout (sockets, checkpoints, trace).
  std::string work_dir;
};

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(q * n). `sorted` must be non-empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// Median and tail of raw per-operation samples. `tail_q` is the highest
/// level from {0.999, 0.99, 0.9, 0.75, 0.5}, capped at `max_q`, that
/// leaves at least ten samples above its rank (0.5 when none does).
struct Quantiles {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
};
Quantiles Summarize(std::vector<double> samples, double max_q = 0.999);

/// "p90" / "p99.9" style label of a quantile level.
std::string QuantileLabel(double q);

double Median(std::vector<double> values);

/// Peak resident set (VmHWM) and current RssAnon / RssFile, in bytes,
/// from /proc/self/status; 0 when unreadable.
uint64_t PeakRssBytes();
uint64_t RssAnonBytes();
uint64_t RssFileBytes();
/// Resets VmHWM to the current RSS (writes "5" to /proc/self/clear_refs)
/// and returns it, the baseline for PeakRssGrowth.
uint64_t ResetPeakRss();
/// Peak-RSS growth above `baseline`.
uint64_t PeakRssGrowth(uint64_t baseline);

inline double Mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The result object: counts, correctness and named metrics. Print()
/// writes it as one JSON line, the last line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation, failed when `ok` is false.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a failed correctness check (counted as a failed operation).
  void CheckFailed(const std::string& what);
  /// Records a correctness check; failure is counted as above.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double SuccessShare() const;

  void Print() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Human-readable progress line on stdout (never the last line).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Deterministic input generation: SplitMix64 finaliser and a uniform
/// double in [0, 1) keyed by (seed, a, b).
uint64_t Mix64(uint64_t x);
double UnitDouble(uint64_t seed, uint64_t a, uint64_t b);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<size_t> Permutation(size_t n, uint64_t seed);

/// FNV-1a over bytes; doubles are hashed by bit pattern.
class Fingerprint {
 public:
  void Bytes(const void* data, size_t size);
  void String(const std::string& s);
  void Double(double value);
  void U64(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Aborts the run (exit 1, no result line) on a set-up error: a workload
/// whose inputs cannot even be prepared has nothing to report.
void DieIfError(const nextmaint::Status& status, const char* what);

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around the public calls it makes (never inside the program);
/// each carries its name, start and end (seconds since the tracer epoch),
/// the id of the enclosing span on the same thread and a request id.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t request = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };
  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;
    /// Duration minus the part of it covered by child spans.
    double self_s = 0.0;
  };

  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);

  /// Per-name totals computed from the span tree.
  std::map<std::string, Totals> Summarize() const;
  /// Writes every span as JSON lines to `path`.
  bool Dump(const std::string& path) const;
  size_t size() const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_ = 0;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_BENCH_UTIL_H_
