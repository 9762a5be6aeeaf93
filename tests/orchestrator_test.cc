// Fleet orchestration tests: the coordinator must always end a run in one of
// exactly two states — a merged artifact byte-identical to the unsharded
// sweep, or a typed terminal error — no matter which failure class the fault
// injector throws at it. An in-process BundleServer fleet exercises clean
// runs, every wire-level fault (synthetic failure, connection drop,
// truncated/corrupt reply, reply delayed past the timeout), straggler
// stealing, retry exhaustion, and unreachable fleets; real forked
// bundlemined processes cover worker death mid-shard (SIGKILL has no
// in-process equivalent). The run report's accounting is validated against
// the per-shard assignment logs it summarizes.

#include <stdlib.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/artifact_writer.h"
#include "serve/fault_injection.h"
#include "serve/fleet_spawn.h"
#include "serve/orchestrator.h"
#include "serve/server.h"
#include "sweep_test_util.h"
#include "util/json.h"

namespace bundlemine {
namespace {

// TSan instrumentation slows cell solves by roughly an order of magnitude;
// timing-window tests scale their budgets so "delayed past the timeout"
// keeps meaning the injected delay, not an honestly slow solve.
#if defined(__SANITIZE_THREAD__)
constexpr double kSanitizerTimeScale = 10.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kSanitizerTimeScale = 10.0;
#else
constexpr double kSanitizerTimeScale = 1.0;
#endif
#else
constexpr double kSanitizerTimeScale = 1.0;
#endif

// A loaded box stretches honest solves the same way TSan does, so the
// timing windows additionally scale by the run-queue pressure sampled once
// at suite start (capped — a pathological load average must not inflate the
// injected delays past the ctest timeout). ctest runs this suite RUN_SERIAL
// so sibling tests are not the load source, but external load still counts.
double DetectedLoadScale() {
  double loadavg[1] = {0.0};
  if (getloadavg(loadavg, 1) != 1) return 1.0;
  const double cores =
      std::max(1.0, static_cast<double>(std::thread::hardware_concurrency()));
  const double pressure = loadavg[0] / cores;
  return std::clamp(pressure, 1.0, 4.0);
}

const double kTimeScale = kSanitizerTimeScale * DetectedLoadScale();

constexpr const char* kTinySpecText =
    "scale=tiny;seed=7;methods=components,mixed-greedy;axis:theta=-0.05,0,0.05";

// The byte-identity oracle: what `configurator_cli --sweep --json` renders
// for the same spec.
std::string DirectSweepBytes(const std::string& spec_text) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(spec_text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return SweepArtifactJson(RunFullSweep(*spec));
}

// An in-process fleet of BundleServers on ephemeral loopback ports.
class Fleet {
 public:
  explicit Fleet(int size, int queue_workers = 2) {
    for (int i = 0; i < size; ++i) {
      ServeOptions options;
      options.workers = queue_workers;
      servers_.push_back(std::make_unique<BundleServer>(options));
      Status status = servers_.back()->ListenTcp(0);
      EXPECT_TRUE(status.ok()) << status.ToString();
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
    }
  }

  const std::vector<FleetWorker>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<BundleServer>> servers_;
  std::vector<FleetWorker> endpoints_;
};

// Fast-failure option defaults so fault tests retry in milliseconds, with
// timing knobs generous enough for a slow sanitizer build on a busy runner.
OrchestratorOptions FastOptions() {
  OrchestratorOptions options;
  options.shard_count = 4;
  options.max_attempts = 4;
  options.shard_timeout_seconds = 30.0;
  options.backoff_initial_seconds = 0.01;
  options.backoff_cap_seconds = 0.05;
  options.steal_after_seconds = 60.0;  // No stealing unless a test asks.
  return options;
}

FaultInjector MustParse(const std::string& spec) {
  StatusOr<FaultInjector> faults = FaultInjector::Parse(spec);
  EXPECT_TRUE(faults.ok()) << faults.status().ToString();
  return std::move(*faults);
}

std::int64_t TotalsField(const JsonValue& report, const std::string& key) {
  return report.FindMember("totals")->FindMember(key)->AsInt();
}

// ---------------------------------------------------------------------------
// Fault-spec grammar.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ParsesEveryAction) {
  FaultInjector faults = MustParse(
      "drop@shard2, delay:250ms@shard4, delay:1.5s@shard5, truncate@shard0, "
      "corrupt@shard1, fail:3@shard2, kill-worker:1@shard2");
  EXPECT_FALSE(faults.empty());

  FaultDecision drop = faults.OnDispatch(2, 0);
  EXPECT_TRUE(drop.drop_connection);
  EXPECT_TRUE(drop.fail_before_send);    // fail:3 also targets shard 2.
  EXPECT_EQ(drop.kill_worker, 1);        // So does kill-worker:1.
  EXPECT_DOUBLE_EQ(faults.OnDispatch(4, 0).delay_reply_seconds, 0.25);
  EXPECT_DOUBLE_EQ(faults.OnDispatch(5, 0).delay_reply_seconds, 1.5);
  EXPECT_TRUE(faults.OnDispatch(0, 0).truncate_reply);
  EXPECT_TRUE(faults.OnDispatch(1, 0).corrupt_reply);
}

TEST(FaultInjectorTest, SingleShotRulesFireOnFirstAttemptOnly) {
  FaultInjector faults = MustParse("drop@shard0,fail:2@shard1");
  EXPECT_TRUE(faults.OnDispatch(0, 0).drop_connection);
  EXPECT_FALSE(faults.OnDispatch(0, 1).drop_connection);  // Retry is clean.
  // fail:2 hits the first two attempts, then the shard recovers.
  EXPECT_TRUE(faults.OnDispatch(1, 0).fail_before_send);
  EXPECT_TRUE(faults.OnDispatch(1, 1).fail_before_send);
  EXPECT_FALSE(faults.OnDispatch(1, 2).fail_before_send);
  EXPECT_EQ(faults.TotalFired(), 3);
}

TEST(FaultInjectorTest, RejectsMalformedRulesWithTheRuleNamed) {
  const char* bad[] = {
      "drop",                    // No @shard target.
      "drop@shard-1",            // Negative shard.
      "drop:oops@shard1",        // Parameter on a parameterless action.
      "delay:fast@shard1",       // Unparsable duration.
      "fail:0@shard1",           // Count below 1.
      "kill-worker@shard1",      // Missing worker index.
      "explode@shard1",          // Unknown action.
      "drop@shard1,,drop@shard2" // Empty rule.
  };
  for (const char* spec : bad) {
    StatusOr<FaultInjector> faults = FaultInjector::Parse(spec);
    EXPECT_FALSE(faults.ok()) << spec;
    EXPECT_EQ(faults.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_NE(FaultInjector::Parse("explode@shard1").status().message().find(
                "explode"),
            std::string::npos);
  EXPECT_TRUE(FaultInjector::Parse("").ok());
  EXPECT_TRUE(FaultInjector::Parse("  ")->empty());
}

// ---------------------------------------------------------------------------
// Clean runs.
// ---------------------------------------------------------------------------

TEST(OrchestratorTest, CleanRunIsByteIdenticalToDirectSweep) {
  Fleet fleet(2);
  FleetOrchestrator orchestrator(fleet.endpoints(), FastOptions());
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));
  EXPECT_EQ(TotalsField(result->report, "retries"), 0);
  EXPECT_EQ(TotalsField(result->report, "reassignments"), 0);
  EXPECT_EQ(TotalsField(result->report, "steals"), 0);
  EXPECT_EQ(result->report.FindMember("completed_shards")->AsInt(), 4);
  EXPECT_FALSE(result->report.FindMember("aborted")->AsBool());
}

TEST(OrchestratorTest, ShardCountDefaultsAndClampsToTheGrid) {
  Fleet fleet(2);
  OrchestratorOptions options = FastOptions();
  options.shard_count = 99;  // Grid has 6 cells; must clamp to 6 shards.
  FleetOrchestrator orchestrator(fleet.endpoints(), options);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.FindMember("shard_count")->AsInt(), 6);
  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));
}

TEST(OrchestratorTest, ReportAccountingMatchesTheAssignmentLogs) {
  Fleet fleet(2);
  FaultInjector faults = MustParse("fail:1@shard0,drop@shard2");
  FleetOrchestrator orchestrator(fleet.endpoints(), FastOptions(), &faults);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const JsonValue& report = result->report;
  EXPECT_EQ(report.FindMember("schema")->AsString(),
            "bundlemine.orchestrate-report");
  EXPECT_EQ(report.FindMember("schema_version")->AsInt(), 1);
  EXPECT_EQ(report.FindMember("workers")->size(), 2u);
  EXPECT_GT(report.FindMember("wall_seconds")->AsDouble(), 0.0);

  // totals.retries must equal the per-shard attempt overage, and every
  // shard's assignments list must match its attempt count.
  std::int64_t expected_retries = 0;
  const JsonValue* shards = report.FindMember("shards");
  ASSERT_EQ(shards->size(), 4u);
  for (std::size_t i = 0; i < shards->size(); ++i) {
    const JsonValue& shard = shards->at(i);
    EXPECT_TRUE(shard.FindMember("completed")->AsBool());
    const std::int64_t attempts = shard.FindMember("attempts")->AsInt();
    expected_retries += std::max<std::int64_t>(0, attempts - 1);
    EXPECT_EQ(shard.FindMember("assignments")->size(),
              static_cast<std::size_t>(attempts));
  }
  EXPECT_EQ(TotalsField(report, "retries"), expected_retries);
  EXPECT_EQ(expected_retries, 2);  // One injected failure per faulted shard.
  EXPECT_EQ(TotalsField(report, "faults_injected"), 2);
}

// ---------------------------------------------------------------------------
// Fault classes: each must end byte-identical after recovery.
// ---------------------------------------------------------------------------

class OrchestratorFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OrchestratorFaultTest, RecoversToByteIdenticalArtifact) {
  Fleet fleet(2);
  FaultInjector faults = MustParse(GetParam());
  FleetOrchestrator orchestrator(fleet.endpoints(), FastOptions(), &faults);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));
  EXPECT_GE(TotalsField(result->report, "retries"), 1);
  EXPECT_GE(TotalsField(result->report, "faults_injected"), 1);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFaultClass, OrchestratorFaultTest,
    ::testing::Values("fail:2@shard1",           // Synthetic, no wire traffic.
                      "drop@shard0",             // Connection drop pre-reply.
                      "truncate@shard2",         // Reply cut mid-line.
                      "corrupt@shard1",          // Reply framing corrupted.
                      "drop@shard0,truncate@shard1,corrupt@shard2,"
                      "fail:1@shard3"),          // Every shard faulted at once.
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(OrchestratorTest, ReplyDelayedPastTimeoutIsRetriedAfterDeadline) {
  Fleet fleet(2);
  OrchestratorOptions options = FastOptions();
  options.shard_timeout_seconds = 0.4 * kTimeScale;
  // The injected delay outlasts the attempt budget deterministically.
  FaultInjector faults = MustParse(
      "delay:" + std::to_string(static_cast<int>(1200 * kTimeScale)) +
      "ms@shard1");
  FleetOrchestrator orchestrator(fleet.endpoints(), options, &faults);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));

  // The timed-out attempt is on record as DEADLINE_EXCEEDED with a straggler
  // probe verdict, and the retry completed the shard.
  const JsonValue& shard = result->report.FindMember("shards")->at(1);
  EXPECT_GE(shard.FindMember("attempts")->AsInt(), 2);
  const JsonValue* assignments = shard.FindMember("assignments");
  bool saw_deadline = false;
  for (std::size_t i = 0; i < assignments->size(); ++i) {
    const JsonValue& assignment = assignments->at(i);
    if (assignment.FindMember("outcome")->AsString() == "DEADLINE_EXCEEDED") {
      saw_deadline = true;
      const JsonValue* probe = assignment.FindMember("probe");
      ASSERT_NE(probe, nullptr);
      EXPECT_FALSE(probe->AsString().empty());
    }
  }
  EXPECT_TRUE(saw_deadline);
}

TEST(OrchestratorTest, IdleWorkerStealsFromAStraggler) {
  Fleet fleet(2);
  OrchestratorOptions options = FastOptions();
  options.shard_count = 2;
  options.steal_after_seconds = 0.15 * kTimeScale;
  // Shard 0's first attempt sleeps well past the steal window while shard 1
  // finishes, so the idle worker must duplicate shard 0 and win the race.
  FaultInjector faults = MustParse(
      "delay:" + std::to_string(static_cast<int>(2500 * kTimeScale)) +
      "ms@shard0");
  FleetOrchestrator orchestrator(fleet.endpoints(), options, &faults);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));
  EXPECT_GE(TotalsField(result->report, "steals"), 1);

  // The straggling copy's result arrived after the steal won and is on
  // record as discarded — never merged twice.
  const JsonValue* assignments =
      result->report.FindMember("shards")->at(0).FindMember("assignments");
  int discarded = 0;
  for (std::size_t i = 0; i < assignments->size(); ++i) {
    if (assignments->at(i).FindMember("outcome")->AsString() == "discarded") {
      ++discarded;
    }
  }
  EXPECT_EQ(discarded, 1);
}

// ---------------------------------------------------------------------------
// Typed terminal errors — never a silently partial artifact.
// ---------------------------------------------------------------------------

TEST(OrchestratorTest, RetryExhaustionIsATypedTerminalError) {
  Fleet fleet(2);
  OrchestratorOptions options = FastOptions();
  options.max_attempts = 3;
  FaultInjector faults = MustParse("fail:99@shard1");
  FleetOrchestrator orchestrator(fleet.endpoints(), options, &faults);
  JsonValue failure_report;
  StatusOr<OrchestrateResult> result =
      orchestrator.Run(kTinySpecText, &failure_report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("unservable"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard 1"), std::string::npos);

  // The failure report still records the attempts that were made.
  ASSERT_EQ(failure_report.kind(), JsonValue::Kind::kObject);
  EXPECT_TRUE(failure_report.FindMember("aborted")->AsBool());
  EXPECT_EQ(failure_report.FindMember("shards")->at(1)
                .FindMember("attempts")->AsInt(),
            3);
  ASSERT_NE(failure_report.FindMember("terminal_error"), nullptr);
  EXPECT_EQ(failure_report.FindMember("terminal_error")
                ->FindMember("code")->AsString(),
            "UNAVAILABLE");
}

TEST(OrchestratorTest, UnreachableFleetRetiresWorkersAndAborts) {
  // Grab two ephemeral ports that nothing listens on by binding and
  // immediately destroying servers.
  std::vector<FleetWorker> dead;
  for (int i = 0; i < 2; ++i) {
    BundleServer server((ServeOptions()));
    ASSERT_TRUE(server.ListenTcp(0).ok());
    dead.push_back({"127.0.0.1", server.port()});
  }
  OrchestratorOptions options = FastOptions();
  options.worker_dead_after = 2;
  FleetOrchestrator orchestrator(dead, options);
  JsonValue failure_report;
  StatusOr<OrchestrateResult> result =
      orchestrator.Run(kTinySpecText, &failure_report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("retired"), std::string::npos)
      << result.status().ToString();

  const JsonValue* workers = failure_report.FindMember("workers");
  ASSERT_EQ(workers->size(), 2u);
  for (std::size_t i = 0; i < workers->size(); ++i) {
    EXPECT_TRUE(workers->at(i).FindMember("retired")->AsBool());
  }
}

TEST(OrchestratorTest, BadSpecFailsBeforeAnyDispatch) {
  Fleet fleet(1);
  FleetOrchestrator orchestrator(fleet.endpoints(), FastOptions());
  StatusOr<OrchestrateResult> result =
      orchestrator.Run("scale=nonsense;axis:theta=0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OrchestratorTest, EmptyFleetIsInvalid) {
  FleetOrchestrator orchestrator({}, FastOptions());
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Worker death — real processes (an in-process server cannot be SIGKILLed).
// ---------------------------------------------------------------------------

TEST(OrchestratorProcessTest, SurvivesWorkerDeathMidShard) {
#ifndef BUNDLEMINE_BUNDLEMINED_PATH
  GTEST_SKIP() << "bundlemined path not wired into the build";
#else
  SpawnOptions spawn_options;
  spawn_options.binary = BUNDLEMINE_BUNDLEMINED_PATH;
  std::vector<std::unique_ptr<SpawnedWorker>> spawned;
  std::vector<FleetWorker> fleet;
  for (int i = 0; i < 2; ++i) {
    StatusOr<SpawnedWorker> worker = SpawnedWorker::Spawn(spawn_options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    spawned.push_back(std::make_unique<SpawnedWorker>(std::move(*worker)));
    fleet.push_back({"127.0.0.1", spawned.back()->port()});
    EXPECT_TRUE(spawned.back()->running());
  }

  // SIGKILL worker 0 the first time shard 1 is dispatched. Whichever worker
  // draws that dispatch, worker 0 is gone from that point on and the rest of
  // the run (including any of worker 0's in-flight or future shards) must be
  // absorbed by worker 1.
  FaultInjector faults = MustParse("kill-worker:0@shard1");
  faults.set_kill_handler([&spawned](int worker) {
    ASSERT_EQ(worker, 0);
    spawned[0]->Kill();
  });

  OrchestratorOptions options = FastOptions();
  options.shard_timeout_seconds = 10.0;
  FleetOrchestrator orchestrator(fleet, options, &faults);
  StatusOr<OrchestrateResult> result = orchestrator.Run(kTinySpecText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SweepArtifactJson(result->merged), DirectSweepBytes(kTinySpecText));
  EXPECT_FALSE(spawned[0]->running());
  EXPECT_GE(TotalsField(result->report, "retries"), 1);

  spawned[1]->Shutdown();
  EXPECT_FALSE(spawned[1]->running());
#endif
}

TEST(OrchestratorProcessTest, SpawnReportsExecFailureAsUnavailable) {
  SpawnOptions options;
  options.binary = "/nonexistent/bundlemined";
  options.ready_timeout_seconds = 5.0;
  StatusOr<SpawnedWorker> worker = SpawnedWorker::Spawn(options);
  ASSERT_FALSE(worker.ok());
  EXPECT_EQ(worker.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace bundlemine
