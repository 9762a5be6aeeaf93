// serve-tenants: a spawned `bundlemined --workers=4 --threads=1` serves four
// tenant sessions, one connection each, each owning a small market: two
// standard and two heavy-tail. Every session loops in closed loop: an
// update with a two-delta batch on a seed-chosen item, then a resolve of
// pure- and mixed-matching at θ = 0.05. The only workload with writes beside
// reads, with market, serve and incremental-resolve reuse, or with requests
// contending on the Engine's shared pool.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "market/market_stream.h"
#include "scenario/artifact_writer.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/strings.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using namespace bundlemine;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kTenants = 4;
constexpr int kDaemonWorkers = 4;
constexpr double kTheta = 0.05;
constexpr const char* kResolveSpec =
    "name=live;methods=pure-matching,mixed-matching;axis:theta=0.05";
// Traced runs time this many update+resolve rounds of tenant 0 alone.
constexpr int kLoneRounds = 5;
constexpr double kReadySeconds = 60.0;
constexpr double kCallTimeoutSeconds = 120.0;

struct Tenant {
  int index = 0;
  std::string session;
  std::string market;
  DatasetSpec dataset;
  std::shared_ptr<const RatingsDataset> initial;  // In-process copy.
  std::unique_ptr<DeltaSource> deltas;
};

// Tenants 0 and 1 are standard small markets; 2 and 3 heavy-tail
// (lognormal activity σ = 1.1, popularity exponent 1.4). Freq methods never
// run on the heavy-tail ones (see WORKLOADS.md). The markets are fixed;
// --seed drives the delta stream.
Tenant MakeTenant(int t) {
  Tenant tenant;
  tenant.index = t;
  tenant.session = StrFormat("tenant-%d", t);
  tenant.market = StrFormat("market-%d", t);
  tenant.dataset.profile = "small";
  tenant.dataset.seed = kInstanceSeed + static_cast<std::uint64_t>(t % 2);
  if (t >= 2) {
    tenant.dataset.activity_sigma = 1.1;
    tenant.dataset.popularity_exponent = 1.4;
  }
  return tenant;
}

std::string DatasetJson(const DatasetSpec& d) {
  JsonValue out = JsonValue::Object();
  out.Set("profile", JsonValue::Str(d.profile));
  out.Set("seed", JsonValue::Int(static_cast<std::int64_t>(d.seed)));
  out.Set("lambda", JsonValue::Double(d.lambda));
  if (d.activity_sigma) {
    out.Set("activity_sigma", JsonValue::Double(*d.activity_sigma));
  }
  if (d.popularity_exponent) {
    out.Set("popularity_exponent", JsonValue::Double(*d.popularity_exponent));
  }
  return out.Dump(0);
}

std::string Envelope(const char* kind, const Tenant& t, std::int64_t id) {
  return StrFormat(
      "{\"kind\":\"%s\",\"v\":2,\"id\":%lld,\"session\":\"%s\","
      "\"market\":\"%s\"",
      kind, static_cast<long long>(id), t.session.c_str(), t.market.c_str());
}

std::string LoadLine(const Tenant& t, std::int64_t id) {
  return Envelope("update", t, id) + ",\"load\":" + DatasetJson(t.dataset) +
         "}";
}

std::string UpdateLine(const Tenant& t, std::int64_t id,
                       const std::vector<MarketDelta>& deltas) {
  return Envelope("update", t, id) + ",\"deltas\":" + DeltasJson(deltas) + "}";
}

std::string ResolveLine(const Tenant& t, std::int64_t id) {
  return Envelope("resolve", t, id) + ",\"spec\":\"" + kResolveSpec + "\"}";
}

// The parsed response when it is a success document, else nullopt.
std::optional<JsonValue> OkResponse(const StatusOr<std::string>& line) {
  if (!line.ok()) return std::nullopt;
  std::optional<JsonValue> doc = JsonParse(*line);
  if (!doc.has_value() || doc->kind() != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  const JsonValue* ok = doc->FindMember("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::kBool || !ok->AsBool()) {
    return std::nullopt;
  }
  return doc;
}

std::int64_t IntAt(const JsonValue& doc, std::initializer_list<const char*> path) {
  const JsonValue* node = &doc;
  for (const char* key : path) {
    if (node->kind() != JsonValue::Kind::kObject) return 0;
    node = node->FindMember(key);
    if (node == nullptr) return 0;
  }
  return node->kind() == JsonValue::Kind::kInt ? node->AsInt() : 0;
}

// One spawned bundlemined, reaped with wait4 so its peak RSS is its own.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap();
    }
  }

  // Spawns `binary` listening on an ephemeral port; waits for its port file.
  bool Start(const std::string& binary, const std::string& dir, int index) {
    const std::string port_file = StrFormat("%s/daemon-%d.port", dir.c_str(), index);
    const std::string log_file = StrFormat("%s/daemon-%d.log", dir.c_str(), index);
    unlink(port_file.c_str());
    std::vector<std::string> args = {
        binary, "--port=0", "--port-file=" + port_file,
        StrFormat("--workers=%d", kDaemonWorkers), "--threads=1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "cannot spawn %s\n", binary.c_str());
      return false;
    }
    const auto start = Clock::now();
    while (SecondsSince(start) < kReadySeconds) {
      // The daemon writes "<port>\n" once listening; a line without its
      // newline may still be being written.
      std::ifstream in(port_file);
      std::string text;
      if (std::getline(in, text) && !in.eof()) {
        port_ = std::atoi(text.c_str());
        if (port_ > 0) return true;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::fprintf(stderr, "bundlemined did not become ready (see %s)\n",
                 log_file.c_str());
    return false;
  }

  int port() const { return port_; }

  // Drains the daemon over the wire and reaps it; returns its peak RSS in
  // MB (-1 when it had to be killed).
  double Stop() {
    bool drained = false;
    if (StatusOr<WireClient> client = WireClient::Connect("127.0.0.1", port_);
        client.ok()) {
      client->set_call_timeout(kCallTimeoutSeconds);
      drained = OkResponse(client->Call("{\"kind\":\"shutdown\"}")).has_value();
    }
    if (!drained) kill(pid_, SIGKILL);
    const double rss = Reap();
    return drained ? rss : -1.0;
  }

 private:
  double Reap() {
    int status = 0;
    struct rusage usage {};
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

// What one session saw, in order.
struct SessionLog {
  std::vector<std::vector<MarketDelta>> batches;
  std::vector<std::int64_t> versions;  // Served version after each batch.
  std::vector<double> update_s;
  std::vector<double> resolve_s;
  std::vector<double> resolve_bytes;
  double last_end_s = 0.0;  // Offset of the last completion in the phase.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t pairs_evaluated = 0;
  std::int64_t pairs_reused = 0;
  std::string last_resolve;  // The newest served resolve response line.
};

// One closed-loop round of a session: update, then resolve.
void Round(WireClient* client, const Tenant& tenant, Rng* rng,
           std::int64_t id, Tracer* tracer, Clock::time_point phase_start,
           SessionLog* log) {
  std::vector<MarketDelta> batch = tenant.deltas->Next(rng);
  const std::string update = UpdateLine(tenant, 2 * id, batch);
  auto start = Clock::now();
  std::optional<JsonValue> updated;
  {
    ScopedSpan span(tracer, "request.update", id);
    updated = OkResponse(client->Call(update));
  }
  log->update_s.push_back(SecondsSince(start));
  ++log->attempted;
  if (!updated.has_value()) {
    ++log->failed;
    return;
  }
  log->batches.push_back(std::move(batch));
  log->versions.push_back(IntAt(*updated, {"version"}));

  start = Clock::now();
  StatusOr<std::string> line = [&] {
    ScopedSpan span(tracer, "request.resolve", id);
    return client->Call(ResolveLine(tenant, 2 * id + 1));
  }();
  log->resolve_s.push_back(SecondsSince(start));
  log->last_end_s = SecondsSince(phase_start);
  ++log->attempted;
  const std::optional<JsonValue> resolved = OkResponse(line);
  if (!resolved.has_value()) {
    ++log->failed;
    return;
  }
  log->resolve_bytes.push_back(static_cast<double>(line->size()));
  log->pairs_evaluated += IntAt(*resolved, {"incremental", "pairs_evaluated"});
  log->pairs_reused += IntAt(*resolved, {"incremental", "pairs_reused"});
  log->last_resolve = std::move(*line);
}

std::vector<double> Pooled(const std::vector<SessionLog>& logs,
                           std::vector<double> SessionLog::*field) {
  std::vector<double> out;
  for (const SessionLog& log : logs) {
    out.insert(out.end(), (log.*field).begin(), (log.*field).end());
  }
  return out;
}

// Set-up: spawn a daemon, connect one client per tenant and load every
// tenant's market.
bool SetUpDaemon(const RunOptions& run, const std::vector<Tenant>& tenants,
                 int index, Daemon* daemon, std::vector<WireClient>* clients,
                 Tracer* tracer) {
  ScopedSpan span(tracer, "setup", index);
  if (!daemon->Start(run.daemon, run.out_dir, index)) return false;
  clients->clear();
  for (const Tenant& tenant : tenants) {
    StatusOr<WireClient> client = WireClient::Connect("127.0.0.1", daemon->port());
    if (!client.ok()) return false;
    client->set_call_timeout(kCallTimeoutSeconds);
    ScopedSpan load(tracer, "setup.load", index, span.id());
    if (!OkResponse(client->Call(LoadLine(tenant, 0))).has_value()) {
      std::fprintf(stderr, "loading %s failed\n", tenant.market.c_str());
      return false;
    }
    clients->push_back(std::move(*client));
  }
  return true;
}

// A tenant's market rebuilt in-process from its session log.
struct Replica {
  std::unique_ptr<MarketStream> market;
  StatusOr<ResolveResponse> resolved = Status::Internal("not resolved");
  bool match = false;  // Final artifact equals the last served one.
  std::vector<double> call_s;
  std::vector<double> cell_max;
  std::vector<double> cell_sum;
  std::vector<double> apply_s;
  std::vector<double> snapshot_s;
  std::vector<double> dirty;
};

// Feeds `log`'s batches to a fresh MarketStream and resolves it on its own
// Engine, configured like the daemon's; after every batch when
// `every_batch`, else once at the end.
Replica ReplayTenant(const Tenant& tenant, const SessionLog& log,
                     const ScenarioSpec& spec, bool every_batch,
                     Tracer* tracer) {
  Replica r;
  Engine engine;
  r.market = std::make_unique<MarketStream>(tenant.market);
  bool ok = r.market->Load(*tenant.initial).ok();
  ResolveRequest request;
  request.market = r.market.get();
  request.spec = spec;
  const std::int64_t id = tenant.index;
  for (std::size_t b = 0; b < log.batches.size() && ok; ++b) {
    const std::uint64_t before = r.market->version();
    {
      ScopedSpan span(tracer, "market.apply", id);
      const auto start = Clock::now();
      const StatusOr<std::uint64_t> version = r.market->Apply(log.batches[b]);
      r.apply_s.push_back(SecondsSince(start));
      ok = version.ok() &&
           static_cast<std::int64_t>(*version) == log.versions[b];
    }
    if (!every_batch && b + 1 < log.batches.size()) continue;
    {
      ScopedSpan span(tracer, "market.snapshot", id);
      const auto start = Clock::now();
      (void)r.market->TakeSnapshot();  // Timed for its cost alone.
      r.snapshot_s.push_back(SecondsSince(start));
    }
    const std::vector<char> touched = r.market->ItemsTouchedSince(before);
    r.dirty.push_back(static_cast<double>(std::count_if(
        touched.begin(), touched.end(), [](char c) { return c != 0; })));
    {
      ScopedSpan span(tracer, "api.resolve", id);
      const auto start = Clock::now();
      r.resolved = engine.Resolve(request);
      r.call_s.push_back(SecondsSince(start));
    }
    if (!r.resolved.ok()) return r;
    const CellTotals totals = Totals(r.resolved->result);
    r.cell_max.push_back(totals.max_s);
    r.cell_sum.push_back(totals.sum_s);
  }
  if (!ok || !r.resolved.ok() || log.last_resolve.empty()) return r;
  const std::optional<JsonValue> served = JsonParse(log.last_resolve);
  const JsonValue* artifact =
      served.has_value() ? served->FindMember("artifact") : nullptr;
  r.match = artifact != nullptr &&
            artifact->Dump(0) == SweepArtifact(r.resolved->result).Dump(0);
  return r;
}

}  // namespace

bool RunServeTenants(const RunOptions& run, Tracer* tracer, Report* report) {
  std::string error;
  std::optional<ScenarioSpec> spec = ParseScenarioSpec(kResolveSpec, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "bad resolve spec: %s\n", error.c_str());
    return false;
  }

  // The in-process side: each tenant's dataset, the delta source and the
  // starting state of its in-process replica.
  Engine reference;
  std::vector<Tenant> tenants;
  LayerMetrics m;
  for (int t = 0; t < kTenants; ++t) {
    Tenant tenant = MakeTenant(t);
    auto start = Clock::now();
    StatusOr<std::shared_ptr<const RatingsDataset>> dataset =
        reference.Dataset(tenant.dataset);
    if (!dataset.ok()) return false;
    m.data_generate_s += SecondsSince(start);
    start = Clock::now();
    // Timed for data.wtp_s; the daemon derives its own matrices.
    (void)WtpMatrix::FromRatings(**dataset, tenant.dataset.lambda);
    m.data_wtp_s += SecondsSince(start);
    tenant.initial = *dataset;
    tenant.deltas = std::make_unique<DeltaSource>(**dataset);
    tenants.push_back(std::move(tenant));
  }

  // Set up kSetups times; every daemon but the last is drained and reaped.
  Daemon daemons[kSetups];
  std::vector<WireClient> clients;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    const auto start = Clock::now();
    if (!SetUpDaemon(run, tenants, s, &daemons[s], &clients, tracer)) {
      return false;
    }
    setups.push_back(SecondsSince(start));
    if (s + 1 < kSetups) {
      clients.clear();
      // Only the kept daemon's peak RSS is reported.
      (void)daemons[s].Stop();
    }
  }
  Daemon& daemon = daemons[kSetups - 1];

  // Warm-up: one cold resolve per tenant, so the timed phase sees the
  // incremental path.
  for (int t = 0; t < kTenants; ++t) {
    report->Attempt(OkResponse(clients[static_cast<std::size_t>(t)].Call(
                                   ResolveLine(tenants[static_cast<std::size_t>(t)], 1)))
                        .has_value());
  }

  std::vector<SessionLog> logs(kTenants);
  const std::size_t spans_before = tracer->size();
  const auto phase_start = Clock::now();
  {
    std::vector<std::thread> sessions;
    for (int t = 0; t < kTenants; ++t) {
      sessions.emplace_back([&, t] {
        const std::size_t i = static_cast<std::size_t>(t);
        Rng rng(run.seed * 7919 + static_cast<std::uint64_t>(t));
        for (std::int64_t round = 1; SecondsSince(phase_start) < run.seconds;
             ++round) {
          Round(&clients[i], tenants[i], &rng, round, tracer, phase_start,
                &logs[i]);
        }
      });
    }
    for (std::thread& session : sessions) session.join();
  }
  EndToEnd e2e;
  e2e.setup_s = Median(setups);
  e2e.latencies = Pooled(logs, &SessionLog::resolve_s);
  for (const SessionLog& log : logs) {
    e2e.phase_s = std::max(e2e.phase_s, log.last_end_s);
  }
  const std::vector<double> updates = Pooled(logs, &SessionLog::update_s);
  const std::size_t phase_spans = tracer->size() - spans_before;

  // Traced runs: tenant 0 alone, for the contention ratio.
  std::vector<double> lone;
  if (run.trace) {
    Rng rng(run.seed * 7919 + 1000003);
    const auto lone_start = Clock::now();
    for (int round = 0; round < kLoneRounds; ++round) {
      const std::size_t before = logs[0].resolve_s.size();
      Round(&clients[0], tenants[0], &rng, 100000 + round, tracer, lone_start,
            &logs[0]);
      if (logs[0].resolve_s.size() > before) lone.push_back(logs[0].resolve_s.back());
    }
  }

  std::optional<JsonValue> stats = OkResponse(clients[0].Call("{\"kind\":\"stats\"}"));
  report->Attempt(stats.has_value());
  clients.clear();
  e2e.peak_rss_mb = daemon.Stop();
  if (e2e.peak_rss_mb < 0.0) {
    std::fprintf(stderr, "bundlemined did not drain on shutdown\n");
    return false;
  }
  for (const SessionLog& log : logs) report->Count(log.attempted, log.failed);

  // Correctness: each tenant's final served artifact equals an in-process
  // Engine::Resolve over a MarketStream fed the same deltas. Untraced runs
  // check the tenants in parallel; traced runs replay them one at a time,
  // resolving after every batch, which times the in-process sequence.
  std::vector<Replica> replicas(kTenants);
  auto replay = [&](int t) {
    const std::size_t i = static_cast<std::size_t>(t);
    replicas[i] = ReplayTenant(tenants[i], logs[i], *spec, run.trace, tracer);
  };
  if (run.trace) {
    for (int t = 0; t < kTenants; ++t) replay(t);
  } else {
    std::vector<std::thread> checks;
    for (int t = 0; t < kTenants; ++t) checks.emplace_back(replay, t);
    for (std::thread& check : checks) check.join();
  }
  std::vector<double> call_s;
  std::vector<double> cell_max;
  std::vector<double> cell_sum;
  std::vector<double> apply_s;
  std::vector<double> snapshot_s;
  std::vector<double> dirty;
  for (int t = 0; t < kTenants; ++t) {
    const Replica& r = replicas[static_cast<std::size_t>(t)];
    if (!r.match) {
      std::fprintf(stderr, "%s: served artifact differs from the in-process "
                   "resolve\n", tenants[static_cast<std::size_t>(t)].session.c_str());
    }
    report->Attempt(r.match);
    call_s.insert(call_s.end(), r.call_s.begin(), r.call_s.end());
    cell_max.insert(cell_max.end(), r.cell_max.begin(), r.cell_max.end());
    cell_sum.insert(cell_sum.end(), r.cell_sum.begin(), r.cell_sum.end());
    apply_s.insert(apply_s.end(), r.apply_s.begin(), r.apply_s.end());
    snapshot_s.insert(snapshot_s.end(), r.snapshot_s.begin(), r.snapshot_s.end());
    dirty.insert(dirty.end(), r.dirty.begin(), r.dirty.end());
  }
  MarketStream* market0 = replicas[0].market.get();
  const StatusOr<ResolveResponse>& final0 = replicas[0].resolved;

  std::int64_t evaluated = 0;
  std::int64_t reused = 0;
  for (const SessionLog& log : logs) {
    evaluated += log.pairs_evaluated;
    reused += log.pairs_reused;
  }
  if (!run.trace) {
    AddEndToEnd(e2e, "resolve", report);
    report->Note(StrFormat("%-18s %12.6f %-4s n=%zu (client-side; the metric "
                           "is market.apply_s)",
                           "update_p50_s", Median(updates), "s", updates.size()));
    return true;
  }
  if (!final0.ok()) return false;
  NoteTraceOverhead(phase_spans, e2e.phase_s, report);

  {
    ScopedSpan replay(tracer, "replay", -1);
    const MarketStream::Snapshot snapshot = market0->TakeSnapshot();
    const WtpMatrix wtp =
        WtpMatrix::FromRatings(*snapshot.dataset, tenants[0].dataset.lambda);
    m.round_one = ReplayRoundOne(wtp, kTheta, BundlingStrategy::kMixed, tracer,
                                 replay.id());
    // Tenant 0 is a standard market; mining never runs on heavy-tail data.
    m.mining = ReplayMining(wtp, tracer, replay.id());
  }
  const CellTotals totals = Totals(final0->result);
  m.core_solve_s = Median(cell_sum);
  m.core_pairs_evaluated = totals.stats.pairs_evaluated;
  m.core_rounds = totals.stats.rounds;
  m.core_merges = totals.stats.merges;
  m.api_call_s = Median(call_s);
  // Cold resolves of tenant 0's final market at 1 and 4 threads.
  double cold_s[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    Engine::Options options;
    options.threads = i == 0 ? 1 : kDaemonWorkers;
    Engine cold(options);
    ResolveRequest request;
    request.market = market0;
    request.spec = *spec;
    ScopedSpan span(tracer, i == 0 ? "cold.resolve.1" : "cold.resolve.4", -1);
    const auto start = Clock::now();
    if (!cold.Resolve(request).ok()) return false;
    cold_s[i] = SecondsSince(start);
  }
  m.core_thread_speedup = cold_s[0] / cold_s[1];
  std::vector<double> other;
  for (std::size_t i = 0; i < call_s.size() && i < cell_sum.size(); ++i) {
    other.push_back(call_s[i] - cell_sum[i]);
  }
  m.core_other_s = Median(other);
  m.scenario_cell_max_s = Median(cell_max);
  m.scenario_cell_sum_s = m.core_solve_s;
  // The daemon's engine runs a resolve's cells on one thread.
  m.scenario_imbalance = m.scenario_cell_max_s / m.scenario_cell_sum_s;
  std::string artifact;
  m.scenario_artifact_s = MedianSeconds(5, [&] {
    ScopedSpan span(tracer, "scenario.artifact", -1);
    artifact = SweepArtifactJson(final0->result);
  });
  m.scenario_artifact_bytes = static_cast<std::int64_t>(artifact.size());
  if (stats.has_value()) {
    const JsonValue& s = *stats;
    const std::int64_t dh = IntAt(s, {"stats", "dataset_cache", "hits"});
    const std::int64_t dm = IntAt(s, {"stats", "dataset_cache", "misses"});
    const std::int64_t wh = IntAt(s, {"stats", "wtp_cache", "hits"});
    const std::int64_t wm = IntAt(s, {"stats", "wtp_cache", "misses"});
    const std::int64_t rh = IntAt(s, {"stats", "resolve_cache", "hits"});
    const std::int64_t rm = IntAt(s, {"stats", "resolve_cache", "misses"});
    m.api_dataset_hit_share = Share(dh, dh + dm);
    m.api_wtp_hit_share = Share(wh, wh + wm);
    m.api_resolve_hit_share = Share(rh, rh + rm);
    m.serve_rejected =
        IntAt(s, {"stats", "requests", "resolve", "rejected"}) +
        IntAt(s, {"stats", "requests", "update", "rejected"});
  }
  m.api_reuse_share = Share(reused, reused + evaluated);
  m.market = MarketReplay{Median(apply_s), Median(snapshot_s), Median(dirty)};
  const std::string line = ResolveLine(tenants[0], 1);
  m.serve_parse_s = MedianSeconds(201, [&] {
    ScopedSpan span(tracer, "serve.parse", -1);
    (void)ParseWireRequest(line);  // Timed for its cost alone.
  });
  m.serve_encode_s = MedianSeconds(5, [&] {
    ScopedSpan span(tracer, "serve.encode", -1);
    // Timed for its cost alone.
    (void)ResolveResponseJson(WireEnvelope{}, *final0).Dump(0);
  });
  m.serve_response_bytes = static_cast<std::int64_t>(
      Median(Pooled(logs, &SessionLog::resolve_bytes)));
  const double served_p50 = Median(e2e.latencies);
  m.serve_wait_s =
      served_p50 - m.api_call_s - m.serve_parse_s - m.serve_encode_s;

  const double lone_p50 = Median(lone);
  report->Note(StrFormat(
      "baseline ratio: %d-tenant vs lone-tenant resolve p50 = %.3f s / %.3f s "
      "= %.2fx (n=%zu / n=%zu)",
      kTenants, served_p50, lone_p50, lone_p50 > 0 ? served_p50 / lone_p50 : 0.0,
      e2e.latencies.size(), lone.size()));
  report->Note(StrFormat(
      "baseline ratio: resolve pair reuse = %lld / %lld pairs = %.3f "
      "(api.reuse_share)",
      static_cast<long long>(reused), static_cast<long long>(reused + evaluated),
      m.api_reuse_share));
  report->Note(StrFormat(
      "serve.wait_s = %.4f s of resolve p50 %.4f s (%.0f%%); in-process "
      "resolve %.4f s",
      m.serve_wait_s, served_p50, 100.0 * m.serve_wait_s / served_p50,
      m.api_call_s));
  AddPerLayer(m, report);
  return true;
}

}  // namespace perfbench
