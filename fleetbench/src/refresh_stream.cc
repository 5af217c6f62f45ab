// refresh_stream: the serving write path, one appended day at a time.
//
// Inputs: the reference fleet with its last 40 days per vehicle held back;
// the seed permutes the round-robin order of the collector.
// Set-up (setup_s): a FleetDaemon in this process (1 shard, CLI-default
// models) — Start + warm LoadHistory of every vehicle + the first Refresh
// + Unix-socket bind.
// Timed op (p50_ms / tail_ms): one closed-loop round trip of a collector
// client over the socket (protocol frames, transport, shard queue) —
// Append one held-back day for the next vehicle, Refresh, then GetForecast
// for that vehicle, which must carry the new epoch.
// The stream runs in rounds: one held-back day for every vehicle, so after
// k rounds each vehicle holds k appended days whatever the seed's order.
// Work (work_s) and check: a batch TrainAll + FleetForecast over the same
// data must equal the daemon's snapshot bit for bit — after set-up and
// after every round of the untraced stream. Each batch run is one work_s
// sample; the median of about ten spread over the run rides out host
// bursts that a few samples would not.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <variant>

#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/socket_server.h"
#include "workloads.h"

namespace fleetbench {
namespace {

namespace core = nextmaint::core;
namespace protocol = nextmaint::serve::protocol;
namespace serve = nextmaint::serve;
namespace telem = nextmaint::telem;
namespace telemetry = nextmaint::telemetry;

constexpr size_t kMinOps = 100;

serve::DaemonOptions StreamDaemonOptions() {
  serve::DaemonOptions options;
  options.scheduler = CliDefaultOptions();
  options.shards = 1;
  options.max_queue = 1024;
  options.batch_window = 0;
  return options;
}

struct StreamState {
  // Base histories (held-back days removed), seeded vehicle order.
  std::vector<protocol::LoadHistoryRequest> base;
  // held_back[i]: the withheld days of base[i]'s vehicle.
  std::vector<std::vector<double>> held_back;
  // appended[i]: held-back days already acknowledged.
  std::vector<size_t> appended;

  /// The next held-back day of slot `i` as an Append.
  protocol::AppendRequest NextAppend(size_t i) const {
    protocol::AppendRequest append;
    append.vehicle_id = base[i].vehicle_id;
    append.day = base[i].start_day.AddDays(
        static_cast<int64_t>(base[i].values.size() + appended[i]));
    append.seconds = held_back[i][appended[i]];
    return append;
  }
};

/// The daemon, its socket transport and the collector's connection.
struct Served {
  std::unique_ptr<serve::FleetDaemon> daemon;
  std::unique_ptr<serve::SocketServer> server;
  serve::DaemonClient client;

  ~Served() {
    client.Close();
    if (server) server->Stop();
  }
};

/// Starts a daemon, warm-loads + refreshes it and binds its socket;
/// returns nullptr on any failure (counted by the caller).
std::unique_ptr<Served> SetUp(
    const std::vector<protocol::LoadHistoryRequest>& base,
    const std::string& socket_path, double* seconds) {
  std::vector<protocol::LoadHistoryRequest> requests = base;
  auto served = std::make_unique<Served>();
  const Clock::time_point start = Clock::now();
  ScopedSpan span("refresh_stream.setup");
  served->daemon = std::make_unique<serve::FleetDaemon>(StreamDaemonOptions());
  if (!served->daemon->Start().ok()) return nullptr;
  std::vector<std::future<protocol::Response>> pending;
  for (protocol::LoadHistoryRequest& request : requests) {
    pending.push_back(served->daemon->SubmitAsync(std::move(request)));
  }
  for (auto& future : pending) {
    if (!std::holds_alternative<protocol::AckResponse>(future.get())) {
      return nullptr;
    }
  }
  const protocol::Response refreshed =
      served->daemon->Execute(protocol::RefreshRequest{});
  if (!std::holds_alternative<protocol::RefreshDoneResponse>(refreshed)) {
    return nullptr;
  }
  served->server = std::make_unique<serve::SocketServer>(
      served->daemon.get(), serve::SocketServerOptions{socket_path, -1});
  if (!served->server->Start().ok()) return nullptr;
  *seconds = SecondsSince(start);
  if (!served->client.ConnectUnix(socket_path).ok()) return nullptr;
  return served;
}

/// One collector round trip for vehicle slot `i`. Returns false when any
/// step fails or the read does not carry the refreshed epoch.
bool StreamOne(serve::DaemonClient& client, StreamState& state, size_t i,
               uint64_t request_id, uint64_t* retrained) {
  ScopedSpan op_span("refresh_stream.op", request_id);
  const protocol::AppendRequest append = state.NextAppend(i);
  {
    ScopedSpan span("transport.DaemonClient::Append", request_id);
    if (!client.Append(append.vehicle_id, append.day, append.seconds).ok()) {
      return false;
    }
  }
  state.appended[i] += 1;
  nextmaint::Result<protocol::RefreshDoneResponse> done = [&] {
    ScopedSpan span("transport.DaemonClient::Refresh", request_id);
    return client.Refresh();
  }();
  if (!done.ok()) return false;
  *retrained += done.ValueOrDie().refreshed;
  nextmaint::Result<protocol::ForecastBatchResponse> batch = [&] {
    ScopedSpan span("transport.DaemonClient::GetForecasts", request_id);
    return client.GetForecasts({append.vehicle_id});
  }();
  return batch.ok() && batch.ValueOrDie().entries.size() == 1 &&
         batch.ValueOrDie().entries[0].status_code ==
             nextmaint::StatusCode::kOk &&
         batch.ValueOrDie().entries[0].epoch == done.ValueOrDie().epoch;
}

/// Batch reference over the streamed data: TrainAll + FleetForecast.
std::vector<core::MaintenanceForecast> BatchReference(
    const StreamState& state, double* seconds, bool* ok) {
  core::FleetScheduler scheduler(CliDefaultOptions());
  for (size_t i = 0; i < state.base.size(); ++i) {
    const protocol::LoadHistoryRequest& base = state.base[i];
    std::vector<double> values = base.values;
    values.insert(values.end(), state.held_back[i].begin(),
                  state.held_back[i].begin() +
                      static_cast<std::ptrdiff_t>(state.appended[i]));
    DieIfError(scheduler.RegisterVehicle(base.vehicle_id, base.start_day),
               "register vehicle");
    DieIfError(scheduler.IngestSeries(
                   base.vehicle_id,
                   nextmaint::data::DailySeries(base.start_day, values)),
               "ingest series");
  }
  const Clock::time_point start = Clock::now();
  ScopedSpan span("core.TrainAll+FleetForecast(reference)");
  std::vector<core::MaintenanceForecast> forecasts;
  *ok = scheduler.TrainAll().ok();
  auto result = scheduler.FleetForecast();
  *seconds = SecondsSince(start);
  if (result.ok()) {
    forecasts = std::move(result).ValueOrDie();
  } else {
    *ok = false;
  }
  return forecasts;
}

/// Compares the daemon's current snapshot with a batch run over the data
/// it has acknowledged; the batch run is one work_s sample.
void CheckAgainstBatch(const serve::FleetDaemon& daemon,
                       const StreamState& state, EndToEnd& e2e,
                       Report& report) {
  std::map<std::string, core::MaintenanceForecast> served;
  for (const core::MaintenanceForecast& f :
       daemon.engine(0).Snapshot()->forecasts) {
    served[f.vehicle_id] = f;
  }
  double seconds = 0.0;
  bool ok = false;
  const std::vector<core::MaintenanceForecast> expected =
      BatchReference(state, &seconds, &ok);
  e2e.work_s.push_back(seconds);
  report.Check(ok, "batch reference TrainAll/FleetForecast failed");
  size_t mismatches = expected.size() == served.size() ? 0 : 1;
  for (const core::MaintenanceForecast& f : expected) {
    auto it = served.find(f.vehicle_id);
    if (it == served.end() || !SameForecast(it->second, f)) ++mismatches;
  }
  report.Check(mismatches == 0, "served snapshot differs from batch on " +
                                    std::to_string(mismatches) + " vehicles");
}

/// Per-layer probes of the read and append paths: in-process Execute,
/// HandleFrame and the socket round trip; frame encode/decode; and the
/// in-process append acknowledgement (held-back days, so the closing check
/// covers them).
void RunProbes(Served& served, StreamState& state, Report& report) {
  const int n = 2000;
  serve::FleetDaemon& daemon = *served.daemon;
  auto read_of = [&state](int i) {
    std::vector<std::string> ids;
    for (int k = 0; k < 4; ++k) {
      ids.push_back(state.base[(i * 4 + k) % state.base.size()].vehicle_id);
    }
    return protocol::Request(protocol::GetForecastRequest{ids});
  };
  std::vector<double> execute_us, frame_us, socket_us, append_us;
  double encode_s = 0.0, decode_s = 0.0;
  for (int i = 0; i < n; ++i) {
    const protocol::Request request = read_of(i);
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span("serve.FleetDaemon::Execute(GetForecast)", i + 1);
      report.Op(std::holds_alternative<protocol::ForecastBatchResponse>(
          daemon.Execute(request)));
    }
    execute_us.push_back(SecondsSince(t) * 1e6);
    t = Clock::now();
    const std::vector<uint8_t> frame = protocol::EncodeRequest(request);
    encode_s += SecondsSince(t);
    const std::span<const uint8_t> payload(frame.data() + 4, frame.size() - 4);
    t = Clock::now();
    std::vector<uint8_t> reply;
    {
      ScopedSpan span("serve.FleetDaemon::HandleFrame(GetForecast)", i + 1);
      reply = daemon.HandleFrame(payload);
    }
    frame_us.push_back(SecondsSince(t) * 1e6);
    t = Clock::now();
    const bool decoded =
        reply.size() > 4 &&
        protocol::DecodeResponse(std::span<const uint8_t>(reply.data() + 4,
                                                          reply.size() - 4))
            .ok();
    decode_s += SecondsSince(t);
    report.Op(decoded);
    t = Clock::now();
    {
      ScopedSpan span("transport.DaemonClient::RoundTrip(GetForecast)", i + 1);
      report.Op(served.client.RoundTrip(request).ok());
    }
    socket_us.push_back(SecondsSince(t) * 1e6);
  }
  for (size_t j = 0; j < 2 * state.base.size(); ++j) {
    const size_t i = j % state.base.size();
    if (state.appended[i] >= state.held_back[i].size()) continue;
    const Clock::time_point t = Clock::now();
    protocol::Response response;
    {
      ScopedSpan span("serve.FleetDaemon::Execute(Append)", j + 1);
      response = daemon.Execute(state.NextAppend(i));
    }
    append_us.push_back(SecondsSince(t) * 1e6);
    const bool ok = std::holds_alternative<protocol::AckResponse>(response);
    report.Op(ok);
    if (ok) state.appended[i] += 1;
  }
  const double execute = Summarize(execute_us).p50;
  const double socket = Summarize(socket_us).p50;
  Note("probe: read p50 in process %.2f us, HandleFrame %.2f us, socket "
       "%.2f us; append ack p50 %.2f us",
       execute, Summarize(frame_us).p50, socket, Summarize(append_us).p50);
  Layer(report, "daemon.read_us", execute);
  Layer(report, "daemon.append_ack_us", Summarize(append_us).p50);
  Layer(report, "transport.read_overhead_us", socket - execute);
  Layer(report, "protocol.encode_us", encode_s / n * 1e6);
  Layer(report, "protocol.decode_us", decode_s / n * 1e6);
}

}  // namespace

void RunRefreshStream(const RunOptions& options, Report& report) {
  const size_t held_back_days = options.smoke ? 12 : 40;
  const telem::Fleet fleet = ReferenceFleet(options.smoke);
  StreamState state;
  for (size_t index : Permutation(fleet.vehicles.size(), options.seed)) {
    const telem::VehicleHistory& v = fleet.vehicles[index];
    const std::vector<double>& all = v.utilization.values();
    const size_t keep = all.size() - held_back_days;
    protocol::LoadHistoryRequest request;
    request.vehicle_id = v.profile.id;
    request.start_day = v.utilization.start_date();
    request.values.assign(all.begin(),
                          all.begin() + static_cast<std::ptrdiff_t>(keep));
    state.base.push_back(std::move(request));
    state.held_back.emplace_back(
        all.begin() + static_cast<std::ptrdiff_t>(keep), all.end());
  }
  state.appended.assign(state.base.size(), 0);
  const std::string socket_path =
      options.work_dir + "/stream-" + std::to_string(::getpid()) + ".sock";
  Note("refresh_stream: %zu vehicles, %zu held-back days each",
       state.base.size(), held_back_days);

  EndToEnd e2e;
  const uint64_t rss_base = ResetPeakRss();

  // Set-up is sampled three times: twice here (one daemon alive at a
  // time) and once after the stream, so the median spans the run.
  std::unique_ptr<Served> served;
  auto set_up = [&] {
    served.reset();
    double seconds = 0.0;
    served = SetUp(state.base, socket_path, &seconds);
    report.Check(served != nullptr, "daemon set-up failed");
    if (served != nullptr) e2e.setup_s.push_back(seconds);
    return served != nullptr;
  };
  if (!set_up() || !set_up()) {
    ReportEndToEnd("refresh", e2e, Summarize(e2e.op_ms, 0.9), report);
    return;
  }

  // The set-up snapshot must already equal batch.
  CheckAgainstBatch(*served->daemon, state, e2e, report);

  double untraced_headline = 0.0;
  uint64_t refreshes = 0, retrained = 0;
  uint64_t queue_depth_max = 0;
  telemetry::MetricsSnapshot traced_delta;
  size_t cursor = 0;
  const size_t fleet_size = state.base.size();
  const size_t capacity = fleet_size * held_back_days;
  const double phase_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = options.trace && phase == 1;
    if (traced) {
      untraced_headline = Summarize(e2e.op_ms).p50;
      e2e.op_ms.clear();
      refreshes = retrained = 0;
      BeginTracedPhase();
    }
    // The traced phase samples the shard queue every 5 ms.
    std::atomic<bool> sampling{traced};
    std::thread sampler([&] {
      while (sampling.load()) {
        for (const protocol::ShardStats& s : served->daemon->Stats().shards) {
          queue_depth_max = std::max<uint64_t>(queue_depth_max, s.queue_depth);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    const telemetry::MetricsSnapshot before = telemetry::Snapshot();
    // The phase streams for phase_seconds (batch checks not counted). p90
    // needs 100 samples (ten beyond it): keep streaming past the deadline
    // until a phase has them, within three times the deadline.
    double streamed_s = 0.0;
    const size_t phase_first = cursor;
    while (cursor + fleet_size <= capacity &&
           (streamed_s < phase_seconds ||
            (cursor - phase_first < kMinOps &&
             streamed_s < 3.0 * phase_seconds))) {
      for (size_t i = 0; i < fleet_size; ++i, ++cursor) {
        const Clock::time_point t0 = Clock::now();
        const bool ok =
            StreamOne(served->client, state, i, cursor + 1, &retrained);
        const double seconds = SecondsSince(t0);
        streamed_s += seconds;
        e2e.op_ms.push_back(seconds * 1e3);
        report.Op(ok);
        ++refreshes;
      }
      if (!options.trace) {
        CheckAgainstBatch(*served->daemon, state, e2e, report);
      }
    }
    sampling.store(false);
    sampler.join();
    if (traced) {
      traced_delta = telemetry::SnapshotDelta(before, telemetry::Snapshot());
      RunProbes(*served, state, report);
    }
  }
  Note("streamed %zu appended days", cursor);

  // Traced runs check once at the end, after the probes' appends: the
  // final snapshot equals a batch run over the same data.
  if (options.trace) {
    report.Check(served->client.Refresh().ok(), "closing refresh failed");
    CheckAgainstBatch(*served->daemon, state, e2e, report);
  }
  set_up();
  served.reset();
  e2e.rss_growth_bytes = PeakRssGrowth(rss_base);

  if (!options.trace) {
    ReportEndToEnd("refresh", e2e, Summarize(e2e.op_ms, 0.9), report);
    return;
  }
  ReportModelLayer(traced_delta, report);
  Layer(report, "serve.refresh_s",
        HistogramSum(traced_delta, "serve.refresh.seconds"));
  Layer(report, "serve.retrained_per_refresh",
        retrained > 0 ? static_cast<double>(refreshes) / retrained : 0.0);
  Layer(report, "serve.unified_retrains",
        static_cast<double>(
            CounterValue(traced_delta, "serve.refresh.corpus_rebuilds")));
  Layer(report, "core.unified_s",
        SpanSeconds(traced_delta, "scheduler.train.unified"));
  Layer(report, "core.selection_s",
        HistogramSum(traced_delta, "scheduler.train.selection.seconds"));
  Layer(report, "daemon.queue_depth_max", static_cast<double>(queue_depth_max));
  Layer(report, "daemon.overloaded_share",
        static_cast<double>(
            CounterValue(traced_delta, "serve.daemon.overloaded")) /
            static_cast<double>(std::max<uint64_t>(1, refreshes)));
  Layer(report, "daemon.auto_refreshes",
        static_cast<double>(
            CounterValue(traced_delta, "serve.daemon.auto_refreshes")));
  const uint64_t daemon_refreshes =
      HistogramCount(traced_delta, "serve.daemon.refresh.seconds");
  Layer(report, "daemon.refresh_ms",
        daemon_refreshes > 0
            ? HistogramSum(traced_delta, "serve.daemon.refresh.seconds") /
                  daemon_refreshes * 1e3
            : 0.0);
  EndTracedRun(options, untraced_headline, Summarize(e2e.op_ms).p50, report);
}

}  // namespace fleetbench
