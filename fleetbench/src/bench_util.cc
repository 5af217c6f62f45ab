#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace fleetbench {

double NearestRank(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Quantiles Summarize(std::vector<double> samples, double max_q) {
  Quantiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = NearestRank(samples, 0.5);
  out.tail = out.p50;
  for (double q : {0.999, 0.99, 0.9, 0.75}) {
    if (q > max_q + 1e-12) continue;
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
    if (samples.size() >= rank + 10) {
      out.tail_q = q;
      out.tail = NearestRank(samples, q);
      break;
    }
  }
  return out;
}

std::string QuantileLabel(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "p%g", q * 100.0);
  return buffer;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

uint64_t StatusFieldKb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      kib = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return kib;
}

}  // namespace

uint64_t PeakRssBytes() { return StatusFieldKb("VmHWM") * 1024; }
uint64_t RssAnonBytes() { return StatusFieldKb("RssAnon") * 1024; }
uint64_t RssFileBytes() { return StatusFieldKb("RssFile") * 1024; }

uint64_t ResetPeakRss() {
  if (std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", clear_refs);
    std::fclose(clear_refs);
  }
  return PeakRssBytes();
}

uint64_t PeakRssGrowth(uint64_t baseline) {
  const uint64_t peak = PeakRssBytes();
  return peak > baseline ? peak - baseline : 0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Report::CheckFailed(const std::string& what) {
  correct_ = false;
  Op(false);
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    Op(true);
  } else {
    CheckFailed(what);
  }
}

double Report::SuccessShare() const {
  if (attempted_ == 0) return 0.0;
  return 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void Report::Print() const {
  std::string json = "{\"correct\": ";
  json += correct_ && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    const double v = std::isfinite(entry.value) ? entry.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            entry.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double UnitDouble(uint64_t seed, uint64_t a, uint64_t b) {
  const uint64_t h = Mix64(Mix64(Mix64(seed) ^ a) ^ (b * 0x2545f4914f6cdd1dULL));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(Mix64(seed ^ (i * 0x9e37ULL)) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

void Fingerprint::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::String(const std::string& s) {
  U64(s.size());
  Bytes(s.data(), s.size());
}

void Fingerprint::Double(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void Fingerprint::U64(uint64_t value) { Bytes(&value, sizeof(value)); }

std::string Fingerprint::Hex() const {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

void DieIfError(const nextmaint::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "fleetbench: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

namespace {

std::mutex g_tracer_mu;
thread_local std::vector<uint64_t> t_open_spans;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

Tracer& Tracer::Get() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  const double now =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  span.request = request;
  span.name = name;
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  t_open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  const double now =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  spans_[id - 1].end = now;
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  // Children of one parent never overlap (they run on the parent's
  // thread), so the covered part is the sum of the children's durations.
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_time[span.parent] += span.end - span.start;
  }
  std::map<std::string, Totals> totals;
  for (const Span& span : spans_) {
    Totals& t = totals[span.name];
    const double duration = span.end - span.start;
    t.count += 1;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - child_time[span.id]);
  }
  return totals;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(), span.start, span.end);
  }
  return std::fclose(out) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  return spans_.size();
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) id_ = tracer.Begin(name, request);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) Tracer::Get().End(id_);
}

}  // namespace fleetbench
