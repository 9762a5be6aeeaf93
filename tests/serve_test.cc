// Serving-layer tests: wire-protocol parsing (strict, typed errors for every
// malformed shape), the bounded admission queue, and the BundleServer end to
// end over real loopback connections — concurrent clients receiving
// responses byte-identical to direct Engine calls, typed queue-overflow
// rejections, deadline propagation through the queue, malformed input that
// leaves the connection serving, and shutdown draining every admitted
// request before the server stops.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/bounded_queue.h"
#include "util/json.h"

namespace bundlemine {
namespace {

constexpr const char* kTinySpecText =
    "scale=tiny;seed=7;methods=components,mixed-greedy;axis:theta=-0.05,0,0.05";

// Resolve exercises the incremental matching path, so its spec uses the
// matching bundler (the pair-outcome cache lives there, not in greedy).
constexpr const char* kResolveSpecText =
    "scale=tiny;seed=7;methods=components,pure-matching;axis:theta=-0.05,0,0.05";

std::string SolveLine(std::int64_t id, const std::string& method, double theta,
                      std::uint64_t seed) {
  JsonValue request = JsonValue::Object();
  request.Set("kind", JsonValue::Str("solve"));
  request.Set("id", JsonValue::Int(id));
  request.Set("method", JsonValue::Str(method));
  JsonValue dataset = JsonValue::Object();
  dataset.Set("profile", JsonValue::Str("tiny"));
  dataset.Set("seed", JsonValue::Int(7));
  dataset.Set("lambda", JsonValue::Double(1.0));
  request.Set("dataset", std::move(dataset));
  request.Set("theta", JsonValue::Double(theta));
  JsonValue options = JsonValue::Object();
  options.Set("seed", JsonValue::Int(static_cast<std::int64_t>(seed)));
  request.Set("options", std::move(options));
  return request.Dump(0);
}

std::string SweepLine(std::int64_t id, const std::string& shard) {
  JsonValue request = JsonValue::Object();
  request.Set("kind", JsonValue::Str("sweep"));
  request.Set("id", JsonValue::Int(id));
  request.Set("spec", JsonValue::Str(kTinySpecText));
  if (!shard.empty()) request.Set("shard", JsonValue::Str(shard));
  return request.Dump(0);
}

WireEnvelope IdEnvelope(std::int64_t id) {
  WireEnvelope envelope;
  envelope.id = id;
  return envelope;
}

SolveRequest TinySolveRequest(const std::string& method, double theta,
                              std::uint64_t seed) {
  SolveRequest request;
  request.method = method;
  DatasetSpec dataset;
  dataset.profile = "tiny";
  dataset.seed = 7;
  dataset.lambda = 1.0;
  request.dataset = dataset;
  request.theta = theta;
  request.options.seed = seed;
  return request;
}

// What a direct Engine call would serialize to for the same request — the
// byte-identity oracle for served responses.
std::string ExpectedSolveLine(Engine& engine, std::int64_t id,
                              const std::string& method, double theta,
                              std::uint64_t seed) {
  StatusOr<SolveResponse> response =
      engine.Solve(TinySolveRequest(method, theta, seed));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return SolveResponseJson(IdEnvelope(id), *response).Dump(0);
}

std::string ExpectedSweepLine(Engine& engine, std::int64_t id,
                              int shard_index, int shard_count) {
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(kTinySpecText);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  SweepRequest request;
  request.spec = *spec;
  request.shard_index = shard_index;
  request.shard_count = shard_count;
  StatusOr<SweepResponse> response = engine.Sweep(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return SweepResponseJson(IdEnvelope(id), *response).Dump(0);
}

// Expects an {"ok":false} response line whose error code is `code` and
// whose message contains `needle`.
void ExpectErrorResponse(const std::string& line, const std::string& code,
                         const std::string& needle) {
  std::optional<JsonValue> response = JsonParse(line);
  ASSERT_TRUE(response) << line;
  const JsonValue* ok = response->FindMember("ok");
  ASSERT_NE(ok, nullptr) << line;
  EXPECT_FALSE(ok->AsBool()) << line;
  const JsonValue* error = response->FindMember("error");
  ASSERT_NE(error, nullptr) << line;
  EXPECT_EQ(error->FindMember("code")->AsString(), code) << line;
  EXPECT_NE(error->FindMember("message")->AsString().find(needle),
            std::string::npos)
      << line;
}

// ---------------------------------------------------------------------------
// Wire-protocol parsing.
// ---------------------------------------------------------------------------

TEST(WireProtocolTest, ParsesFullSolveRequest) {
  StatusOr<WireRequest> request = ParseWireRequest(
      R"({"kind":"solve","id":9,"method":"mixed-greedy",)"
      R"("dataset":{"profile":"small","seed":11,"lambda":1.5,)"
      R"("activity_sigma":1.2,"genres_per_user":3},)"
      R"("theta":0.1,"k":4,"levels":50,)"
      R"("options":{"threads":2,"deadline_seconds":0.25,"seed":99}})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, WireKind::kSolve);
  ASSERT_TRUE(request->envelope.id.has_value());
  EXPECT_EQ(*request->envelope.id, 9);
  EXPECT_FALSE(request->envelope.v_explicit);
  EXPECT_TRUE(request->envelope.session.empty());
  EXPECT_EQ(request->solve.method, "mixed-greedy");
  ASSERT_TRUE(request->solve.dataset.has_value());
  EXPECT_EQ(request->solve.dataset->profile, "small");
  EXPECT_EQ(request->solve.dataset->seed, 11u);
  EXPECT_DOUBLE_EQ(request->solve.dataset->lambda, 1.5);
  ASSERT_TRUE(request->solve.dataset->activity_sigma.has_value());
  EXPECT_DOUBLE_EQ(*request->solve.dataset->activity_sigma, 1.2);
  EXPECT_FALSE(request->solve.dataset->background_mass.has_value());
  ASSERT_TRUE(request->solve.dataset->genres_per_user.has_value());
  EXPECT_EQ(*request->solve.dataset->genres_per_user, 3);
  EXPECT_DOUBLE_EQ(request->solve.theta, 0.1);
  EXPECT_EQ(request->solve.max_bundle_size, 4);
  EXPECT_EQ(request->solve.price_levels, 50);
  EXPECT_EQ(request->solve.options.threads, 2);
  EXPECT_DOUBLE_EQ(request->solve.options.deadline_seconds, 0.25);
  EXPECT_EQ(request->solve.options.seed, 99u);
}

TEST(WireProtocolTest, ParsesSweepRequestWithShard) {
  StatusOr<WireRequest> request = ParseWireRequest(
      R"({"kind":"sweep","spec":"fig2-theta","shard":"1/4",)"
      R"("options":{"threads":3}})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, WireKind::kSweep);
  EXPECT_FALSE(request->envelope.id.has_value());
  EXPECT_EQ(request->sweep_spec, "fig2-theta");
  EXPECT_EQ(request->shard_index, 1);
  EXPECT_EQ(request->shard_count, 4);
  EXPECT_EQ(request->sweep_options.threads, 3);
}

TEST(WireProtocolTest, ParsesVersionedEnvelopeWithSession) {
  StatusOr<WireRequest> request = ParseWireRequest(
      R"({"kind":"ping","id":3,"v":1,"session":"tenant-a.7"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->envelope.v, 1);
  EXPECT_TRUE(request->envelope.v_explicit);
  ASSERT_TRUE(request->envelope.id.has_value());
  EXPECT_EQ(*request->envelope.id, 3);
  EXPECT_EQ(request->envelope.session, "tenant-a.7");
}

TEST(WireProtocolTest, RejectsUnsupportedVersionAndBadSessions) {
  // v2 became speakable when the market envelope landed; v3 is the first
  // unsupported version now.
  StatusOr<WireRequest> v2 = ParseWireRequest(R"({"kind":"ping","v":2})");
  ASSERT_TRUE(v2.ok()) << v2.status().message();
  EXPECT_EQ(v2->envelope.v, 2);
  StatusOr<WireRequest> v3 = ParseWireRequest(R"({"kind":"ping","v":3})");
  ASSERT_FALSE(v3.ok());
  EXPECT_NE(v3.status().message().find("unsupported protocol version 3"),
            std::string::npos);
  // The envelope of a rejected request is still recoverable for the error
  // response.
  WireEnvelope envelope;
  StatusOr<WireRequest> bad =
      ParseWireRequest(R"({"kind":"ping","id":7,"v":3})", &envelope);
  ASSERT_FALSE(bad.ok());
  ASSERT_TRUE(envelope.id.has_value());
  EXPECT_EQ(*envelope.id, 7);
  EXPECT_EQ(envelope.v, 3);

  const char* bad_sessions[] = {
      R"({"kind":"ping","session":""})",
      R"({"kind":"ping","session":"has space"})",
      R"({"kind":"ping","session":7})",
  };
  for (const char* line : bad_sessions) {
    StatusOr<WireRequest> parsed = ParseWireRequest(line);
    EXPECT_FALSE(parsed.ok()) << line;
  }
  const std::string too_long = std::string(R"({"kind":"ping","session":")") +
                               std::string(kMaxSessionChars + 1, 'a') + "\"}";
  EXPECT_FALSE(ParseWireRequest(too_long).ok());
}

TEST(WireProtocolTest, ParsesUpdateRequestWithLoadAndDeltas) {
  StatusOr<WireRequest> request = ParseWireRequest(
      R"({"kind":"update","id":4,"load":{"profile":"tiny","seed":7},)"
      R"("deltas":[)"
      R"({"op":"add_user","ratings":[{"item":2,"stars":4}]},)"
      R"({"op":"remove_user","user":1},)"
      R"({"op":"add_rating","user":0,"item":3,"stars":5},)"
      R"({"op":"update_rating","user":0,"item":3,"stars":2},)"
      R"({"op":"remove_rating","user":0,"item":3},)"
      R"({"op":"scale_price","item":2,"factor":2.0},)"
      R"({"op":"set_price","item":2,"price":9.5}]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, WireKind::kUpdate);
  ASSERT_TRUE(request->load.has_value());
  EXPECT_EQ(request->load->profile, "tiny");
  EXPECT_EQ(request->load->seed, 7u);
  ASSERT_EQ(request->deltas.size(), 7u);
  EXPECT_EQ(request->deltas[0].op, MarketDeltaOp::kAddUser);
  ASSERT_EQ(request->deltas[0].ratings.size(), 1u);
  EXPECT_EQ(request->deltas[0].ratings[0].item, 2);
  EXPECT_EQ(request->deltas[1].op, MarketDeltaOp::kRemoveUser);
  EXPECT_EQ(request->deltas[1].user, 1);
  EXPECT_EQ(request->deltas[2].op, MarketDeltaOp::kAddRating);
  EXPECT_DOUBLE_EQ(request->deltas[2].stars, 5.0);
  EXPECT_EQ(request->deltas[5].op, MarketDeltaOp::kScalePrice);
  EXPECT_DOUBLE_EQ(request->deltas[5].value, 2.0);
  EXPECT_EQ(request->deltas[6].op, MarketDeltaOp::kSetPrice);
  EXPECT_DOUBLE_EQ(request->deltas[6].value, 9.5);
}

TEST(WireProtocolTest, RejectsBadUpdateShapes) {
  struct Case {
    const char* line;
    const char* needle;
  };
  const Case cases[] = {
      {R"({"kind":"update"})", "'load' object and/or"},
      {R"({"kind":"update","deltas":[{"op":"frob"}]})", "unknown op 'frob'"},
      {R"({"kind":"update","deltas":[{"user":1}]})", "needs an 'op'"},
      {R"({"kind":"update","deltas":[7]})", "delta 0 must be an object"},
      {R"({"kind":"update","deltas":[{"op":"add_rating","user":1,"item":2}]})",
       "needs field 'stars'"},
      {R"({"kind":"update","deltas":[{"op":"set_price","item":2}]})",
       "needs field 'price'"},
      {R"({"kind":"update","deltas":[{"op":"remove_user","stars":1}]})",
       "unknown delta 0 field 'stars'"},
  };
  for (const Case& c : cases) {
    StatusOr<WireRequest> request = ParseWireRequest(c.line);
    ASSERT_FALSE(request.ok()) << c.line;
    EXPECT_NE(request.status().message().find(c.needle), std::string::npos)
        << c.line << " → " << request.status().message();
  }
}

TEST(WireProtocolTest, ParsesResolveAndBatchRequests) {
  StatusOr<WireRequest> resolve = ParseWireRequest(
      R"({"kind":"resolve","id":5,"spec":"fig2-theta",)"
      R"("options":{"threads":2}})");
  ASSERT_TRUE(resolve.ok()) << resolve.status().ToString();
  EXPECT_EQ(resolve->kind, WireKind::kResolve);
  EXPECT_EQ(resolve->resolve_spec, "fig2-theta");
  EXPECT_EQ(resolve->resolve_options.threads, 2);

  StatusOr<WireRequest> batch = ParseWireRequest(
      R"({"kind":"batch","id":6,"requests":[)"
      R"({"method":"components","dataset":{"profile":"tiny"}},)"
      R"({"method":"mixed-greedy","dataset":{"profile":"tiny"},"theta":0.1}]})");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->kind, WireKind::kBatch);
  ASSERT_EQ(batch->batch.size(), 2u);
  EXPECT_EQ(batch->batch[0].method, "components");
  EXPECT_EQ(batch->batch[1].method, "mixed-greedy");
  EXPECT_DOUBLE_EQ(batch->batch[1].theta, 0.1);

  // Entries are bare solve payloads — no nested envelope.
  StatusOr<WireRequest> nested = ParseWireRequest(
      R"({"kind":"batch","requests":[)"
      R"({"id":1,"method":"components","dataset":{"profile":"tiny"}}]})");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("batch entry 0"), std::string::npos);
  EXPECT_FALSE(ParseWireRequest(R"({"kind":"batch","requests":[]})").ok());
  EXPECT_FALSE(ParseWireRequest(R"({"kind":"resolve","spec":""})").ok());
}

TEST(WireProtocolTest, RejectsMalformedShapesWithTypedErrors) {
  struct Case {
    const char* line;
    const char* needle;
  };
  const Case cases[] = {
      {R"({"kind":"ping")", "malformed request JSON"},        // Truncated.
      {"[1,2,3]", "must be a JSON object"},
      {R"({"id":1})", "needs a 'kind'"},                      // Kind missing.
      {R"({"kind":"frobnicate"})", "unknown request kind"},
      {R"({"kind":"solve","dataset":{"profile":"tiny"}})", "'method'"},
      {R"({"kind":"solve","method":"mixed-greedy"})", "'dataset'"},
      {R"({"kind":"sweep"})", "'spec'"},
      {R"({"kind":"sweep","spec":"fig2-theta","shard":"9/4"})", "shard"},
      {R"({"kind":"solve","method":"x","dataset":{"profile":"tiny"},"bogus":1})",
       "unknown solve request field 'bogus'"},
      {R"({"kind":"solve","method":7,"dataset":{"profile":"tiny"}})",
       "'method' must be a string"},
      {R"({"kind":"ping","id":"one"})", "'id' must be an integer"},
      {R"({"kind":"ping","payload":1})", "unknown control request field"},
  };
  for (const Case& c : cases) {
    StatusOr<WireRequest> request = ParseWireRequest(c.line);
    ASSERT_FALSE(request.ok()) << c.line;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(request.status().message().find(c.needle), std::string::npos)
        << c.line << " → " << request.status().message();
  }
}

TEST(WireProtocolTest, RejectsOversizedRequestBeforeParsing) {
  std::string line(kMaxWireRequestBytes + 1, 'x');
  StatusOr<WireRequest> request = ParseWireRequest(line);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().message().find("oversized request"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounded admission queue.
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoWithCapacityRejection) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Full: immediate, non-blocking.
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 4);
}

TEST(BoundedQueueTest, ZeroCapacityRejectsEverything) {
  BoundedQueue<int> queue(0);
  EXPECT_FALSE(queue.TryPush(1));
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(2));   // Closed: admission over.
  EXPECT_EQ(queue.Pop(), 1);        // Admitted items still drain.
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesBlockedPopper) {
  BoundedQueue<int> queue(1);
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_EQ(queue.Pop(), std::nullopt);
    woke = true;
  });
  queue.Close();
  popper.join();
  EXPECT_TRUE(woke);
}

// ---------------------------------------------------------------------------
// End-to-end serving.
// ---------------------------------------------------------------------------

std::unique_ptr<BundleServer> StartServer(ServeOptions options) {
  auto server = std::make_unique<BundleServer>(options);
  Status status = server->ListenTcp(0);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return server;
}

WireClient ConnectTo(const BundleServer& server) {
  StatusOr<WireClient> client = WireClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(ServeTest, ConcurrentClientsGetResponsesByteIdenticalToDirectEngine) {
  ServeOptions options;
  options.workers = 3;
  options.queue_depth = 64;
  std::unique_ptr<BundleServer> server = StartServer(options);

  // Oracle responses from a direct Engine, computed up front.
  Engine engine;
  struct Exchange {
    std::string request;
    std::string expected;
  };
  constexpr int kClients = 4;
  std::vector<std::vector<Exchange>> sessions(kClients);
  for (int c = 0; c < kClients; ++c) {
    const double theta = 0.05 * c - 0.05;
    const std::int64_t base = 100 * (c + 1);
    sessions[c].push_back(
        {SolveLine(base, "mixed-greedy", theta, 42),
         ExpectedSolveLine(engine, base, "mixed-greedy", theta, 42)});
    sessions[c].push_back({SweepLine(base + 1, c % 2 == 0 ? "0/2" : "1/2"),
                           ExpectedSweepLine(engine, base + 1, c % 2, 2)});
    sessions[c].push_back(
        {SolveLine(base + 2, "pure-matching", theta, 7),
         ExpectedSolveLine(engine, base + 2, "pure-matching", theta, 7)});
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      WireClient client = ConnectTo(*server);
      for (const Exchange& exchange : sessions[c]) {
        StatusOr<std::string> response = client.Call(exchange.request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(*response, exchange.expected);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  // The four connections shared one catalog: the server materialized the
  // tiny dataset once and served every later request from the cache.
  const Engine::CacheStats cache = server->engine().dataset_cache_stats();
  EXPECT_GE(cache.hits, 1);
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, QueueOverflowReturnsTypedRejection) {
  ServeOptions options;
  options.queue_depth = 0;  // Pure rejector: every queued kind overflows.
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  StatusOr<std::string> response =
      client.Call(SolveLine(1, "mixed-greedy", 0.0, 42));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ExpectErrorResponse(*response, "UNAVAILABLE", "rejected: queue full");

  // The rejection left the connection and the control plane serving.
  StatusOr<std::string> pong = client.Call(R"({"kind":"ping","id":2})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_NE(pong->find("\"pong\""), std::string::npos);
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, BurstEitherSolvesOrRejectsTyped) {
  // A burst far beyond the queue depth: every request gets exactly one
  // response — a solve result or a typed overflow rejection, never a
  // dropped line. (How many of each depends on worker timing.)
  ServeOptions options;
  options.queue_depth = 2;
  options.workers = 1;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendLine(SolveLine(i, "mixed-greedy", 0.0, 42)).ok());
  }
  int solved = 0;
  int rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    std::optional<JsonValue> response = JsonParse(*line);
    ASSERT_TRUE(response) << *line;
    if (response->FindMember("ok")->AsBool()) {
      ++solved;
    } else {
      EXPECT_EQ(response->FindMember("error")->FindMember("code")->AsString(),
                "UNAVAILABLE")
          << *line;
      ++rejected;
    }
  }
  EXPECT_EQ(solved + rejected, kBurst);
  EXPECT_GE(solved, 1);  // The worker drained at least one admitted solve.
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, MalformedInputLeavesConnectionServing) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  WireClient client = ConnectTo(*server);

  struct Case {
    std::string line;
    const char* code;
    const char* needle;
  };
  const std::vector<Case> cases = {
      {R"({"kind":"solve","method":)", "INVALID_ARGUMENT",
       "malformed request JSON"},
      {R"({"kind":"teleport","id":1})", "INVALID_ARGUMENT",
       "unknown request kind"},
      {R"({"kind":"solve","id":2,"dataset":{"profile":"tiny"}})",
       "INVALID_ARGUMENT", "'method'"},
      {R"({"kind":"sweep","id":3})", "INVALID_ARGUMENT", "'spec'"},
      {std::string(R"({"kind":"ping","pad":")") +
           std::string(kMaxWireRequestBytes, 'x') + "\"}",
       "INVALID_ARGUMENT", "oversized request"},
      // Well-formed wire requests whose *content* the Engine rejects.
      {SolveLine(4, "no-such-method", 0.0, 42), "NOT_FOUND",
       "unknown method key"},
      {SweepLine(5, "0/0"), "INVALID_ARGUMENT", "shard"},
      // Generator overrides outside the generator's domain: a negative
      // background mass used to abort in the categorical sampler, and a
      // negative popularity exponent answered ok with an empty catalogue.
      {R"({"kind":"solve","id":6,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7,"background_mass":-5}})",
       "INVALID_ARGUMENT", "background-mass"},
      {R"({"kind":"solve","id":7,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7,"popularity_exponent":-1e308}})",
       "INVALID_ARGUMENT", "popularity-exponent"},
      // Problem and dataset knobs outside their domains: negative levels
      // and a huge theta aborted in the pricer and the matcher, a huge
      // lambda at serialization; a negative k, genre count or seed was
      // answered although spec text refuses them.
      {R"({"kind":"solve","id":8,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7},"levels":-5})",
       "INVALID_ARGUMENT", "levels"},
      {R"({"kind":"solve","id":9,"method":"pure-matching","dataset":)"
       R"({"profile":"tiny","seed":7},"theta":1e308})",
       "INVALID_ARGUMENT", "theta"},
      {R"({"kind":"solve","id":10,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7,"lambda":1e308}})",
       "INVALID_ARGUMENT", "lambda"},
      {R"({"kind":"solve","id":11,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7},"k":-3})",
       "INVALID_ARGUMENT", "k needs"},
      {R"({"kind":"solve","id":12,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":7,"genres_per_user":-4}})",
       "INVALID_ARGUMENT", "genres-per-user"},
      {R"({"kind":"solve","id":13,"method":"components","dataset":)"
       R"({"profile":"tiny","seed":-7}})",
       "INVALID_ARGUMENT", "seed"},
      // A set-packing method on more items than it enumerates aborted in
      // the solver.
      {R"({"kind":"solve","id":14,"method":"greedy-wsp","dataset":)"
       R"({"profile":"tiny","seed":7}})",
       "INVALID_ARGUMENT", "'greedy-wsp' takes at most 25 items"},
  };
  for (const Case& c : cases) {
    StatusOr<std::string> response = client.Call(c.line);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectErrorResponse(*response, c.code, c.needle);
  }

  // A validation error on an identifiable request echoes the id, so
  // pipelining clients can attribute the failure.
  StatusOr<std::string> with_id = client.Call(R"({"kind":"sweep","id":41})");
  ASSERT_TRUE(with_id.ok()) << with_id.status().ToString();
  ExpectErrorResponse(*with_id, "INVALID_ARGUMENT", "'spec'");
  EXPECT_NE(with_id->find("\"id\": 41"), std::string::npos) << *with_id;

  // After every rejection the same connection still serves real work.
  Engine engine;
  StatusOr<std::string> response =
      client.Call(SolveLine(9, "mixed-greedy", 0.0, 42));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*response, ExpectedSolveLine(engine, 9, "mixed-greedy", 0.0, 42));
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, DeadlineExpiredInQueueAnswersWithoutSolving) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  WireClient client = ConnectTo(*server);
  // A nanosecond budget has always expired by the time a worker picks the
  // request up — the response must be the typed queue-deadline error.
  StatusOr<std::string> response = client.Call(
      R"({"kind":"solve","id":1,"method":"mixed-greedy",)"
      R"("dataset":{"profile":"tiny","seed":7,"lambda":1.0},)"
      R"("options":{"deadline_seconds":1e-9}})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ExpectErrorResponse(*response, "DEADLINE_EXCEEDED", "admission queue");
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, ShutdownDrainsAdmittedRequestsBeforeStopping) {
  ServeOptions options;
  options.workers = 2;
  options.queue_depth = 16;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // Pipeline six solves and a shutdown without reading anything: the
  // connection thread admits all six before it handles the shutdown, so all
  // six must be answered (drained) before the shutdown response.
  constexpr int kSolves = 6;
  for (int i = 0; i < kSolves; ++i) {
    ASSERT_TRUE(client.SendLine(SolveLine(i, "mixed-greedy", 0.0, 42)).ok());
  }
  ASSERT_TRUE(client.SendLine(R"({"kind":"shutdown","id":99})").ok());

  int solves_seen = 0;
  bool shutdown_seen = false;
  for (int i = 0; i < kSolves + 1; ++i) {
    StatusOr<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    std::optional<JsonValue> response = JsonParse(*line);
    ASSERT_TRUE(response) << *line;
    EXPECT_FALSE(shutdown_seen) << "response after shutdown: " << *line;
    EXPECT_TRUE(response->FindMember("ok")->AsBool()) << *line;
    if (response->FindMember("kind")->AsString() == "shutdown") {
      shutdown_seen = true;
    } else {
      EXPECT_EQ(response->FindMember("kind")->AsString(), "solve");
      ++solves_seen;
    }
  }
  EXPECT_EQ(solves_seen, kSolves);
  EXPECT_TRUE(shutdown_seen);  // ...and strictly last (checked above).
  server->Wait();

  // Post-drain bookkeeping: every solve completed, nothing in flight.
  std::optional<JsonValue> stats = JsonParse(server->StatsJson().Dump(0));
  ASSERT_TRUE(stats);
  const JsonValue* solve = stats->FindMember("requests")->FindMember("solve");
  EXPECT_EQ(solve->FindMember("ok")->AsInt(), kSolves);
  EXPECT_EQ(stats->FindMember("server")->FindMember("in_flight")->AsInt(), 0);
}

TEST(ServeTest, RequestsAfterShutdownAreRejectedAsDraining) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  {
    WireClient client = ConnectTo(*server);
    StatusOr<std::string> bye = client.Call(R"({"kind":"shutdown"})");
    ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  }
  server->Wait();
  // The listener is down now; a fresh connection must fail outright.
  StatusOr<WireClient> late = WireClient::Connect("127.0.0.1", server->port());
  EXPECT_FALSE(late.ok());
}

TEST(ServeTest, StatsCountersTrackTheSession) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  WireClient client = ConnectTo(*server);
  ASSERT_TRUE(client.Call(R"({"kind":"ping"})").ok());
  ASSERT_TRUE(client.Call(SolveLine(1, "mixed-greedy", 0.0, 42)).ok());
  ASSERT_TRUE(client.Call(SolveLine(2, "no-such-method", 0.0, 42)).ok());
  ASSERT_TRUE(client.Call("not json at all").ok());

  StatusOr<std::string> response = client.Call(R"({"kind":"stats","id":9})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  std::optional<JsonValue> parsed = JsonParse(*response);
  ASSERT_TRUE(parsed) << *response;
  const JsonValue* stats = parsed->FindMember("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->FindMember("schema")->AsString(), "bundlemine.serve-stats");
  const JsonValue* requests = stats->FindMember("requests");
  EXPECT_EQ(requests->FindMember("ping")->FindMember("ok")->AsInt(), 1);
  EXPECT_EQ(requests->FindMember("solve")->FindMember("ok")->AsInt(), 1);
  EXPECT_EQ(requests->FindMember("solve")->FindMember("errors")->AsInt(), 1);
  EXPECT_EQ(requests->FindMember("parse_errors")->AsInt(), 1);
  // The per-kind in-flight gauge (admitted minus completed) is what an
  // orchestrator's straggler probe reads to tell "busy" from "hung"; with
  // every call above answered, both queued kinds must read 0.
  EXPECT_EQ(requests->FindMember("solve")->FindMember("in_flight")->AsInt(), 0);
  EXPECT_EQ(requests->FindMember("sweep")->FindMember("in_flight")->AsInt(), 0);
  EXPECT_GE(stats->FindMember("dataset_cache")->FindMember("misses")->AsInt(),
            1);
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, InFlightGaugeIsVisibleWhileASweepRuns) {
  ServeOptions options;
  options.workers = 1;  // One queue worker: pipelined sweeps stay admitted.
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient sweeper = ConnectTo(*server);
  WireClient prober = ConnectTo(*server);

  // Pipeline two sweeps without reading; both are admitted immediately, so
  // the gauge holds >= 1 until the second one finishes.
  ASSERT_TRUE(sweeper.SendLine(SweepLine(1, "")).ok());
  ASSERT_TRUE(sweeper.SendLine(SweepLine(2, "")).ok());

  // A concurrent stats probe must observe the in-flight work — this is the
  // exact signal the orchestrator's straggler probe reads to distinguish a
  // busy worker from a hung one.
  std::int64_t max_in_flight = 0;
  for (int i = 0; i < 2000; ++i) {
    StatusOr<JsonValue> stats = prober.CallJson(R"({"kind":"stats"})");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const std::int64_t in_flight = stats->FindMember("stats")
                                       ->FindMember("requests")
                                       ->FindMember("sweep")
                                       ->FindMember("in_flight")
                                       ->AsInt();
    max_in_flight = std::max(max_in_flight, in_flight);
    const std::int64_t done = stats->FindMember("stats")
                                  ->FindMember("requests")
                                  ->FindMember("sweep")
                                  ->FindMember("ok")
                                  ->AsInt();
    if (done == 2) break;
  }
  EXPECT_GE(max_in_flight, 1);

  // Both replies arrive, and the drained gauge reads zero again.
  ASSERT_TRUE(sweeper.ReadLine().ok());
  ASSERT_TRUE(sweeper.ReadLine().ok());
  StatusOr<JsonValue> stats = prober.CallJson(R"({"kind":"stats"})");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->FindMember("stats")
                ->FindMember("requests")
                ->FindMember("sweep")
                ->FindMember("in_flight")
                ->AsInt(),
            0);
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, BatchEntriesAreByteIdenticalToIndividualSolves) {
  ServeOptions options;
  options.workers = 2;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // One batch coalescing three solves (one of them invalid): the response
  // must carry the per-entry documents in request order, each byte-identical
  // to the same solve sent alone without an id.
  JsonValue batch = JsonValue::Object();
  batch.Set("kind", JsonValue::Str("batch"));
  batch.Set("id", JsonValue::Int(1));
  JsonValue requests = JsonValue::Array();
  const struct {
    const char* method;
    double theta;
  } entries[] = {{"components", 0.0}, {"no-such-method", 0.0},
                 {"mixed-greedy", 0.05}};
  for (const auto& entry : entries) {
    JsonValue solve = JsonValue::Object();
    solve.Set("method", JsonValue::Str(entry.method));
    JsonValue dataset = JsonValue::Object();
    dataset.Set("profile", JsonValue::Str("tiny"));
    dataset.Set("seed", JsonValue::Int(7));
    dataset.Set("lambda", JsonValue::Double(1.0));
    solve.Set("dataset", std::move(dataset));
    solve.Set("theta", JsonValue::Double(entry.theta));
    JsonValue solve_options = JsonValue::Object();
    solve_options.Set("seed", JsonValue::Int(42));
    solve.Set("options", std::move(solve_options));
    requests.Add(std::move(solve));
  }
  batch.Set("requests", std::move(requests));

  StatusOr<JsonValue> response = client.CallJson(batch.Dump(0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->FindMember("ok")->AsBool());
  EXPECT_EQ(response->FindMember("kind")->AsString(), "batch");
  const JsonValue* responses = response->FindMember("responses");
  ASSERT_NE(responses, nullptr);
  ASSERT_EQ(responses->size(), 3u);

  Engine engine;
  const WireEnvelope no_envelope;
  for (std::size_t i = 0; i < 3; ++i) {
    StatusOr<SolveResponse> direct =
        engine.Solve(TinySolveRequest(entries[i].method, entries[i].theta, 42));
    const std::string expected =
        direct.ok() ? SolveResponseJson(no_envelope, *direct).Dump(0)
                    : ErrorResponseJson(no_envelope, direct.status()).Dump(0);
    EXPECT_EQ(responses->at(i).Dump(0), expected) << "entry " << i;
  }
  // A per-entry failure (entry 1) does not fail the batch.
  EXPECT_FALSE(responses->at(1).FindMember("ok")->AsBool());
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, SessionTagsAreEchoedAndBrokenOutInStats) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  WireClient client = ConnectTo(*server);

  StatusOr<std::string> pong =
      client.Call(R"({"kind":"ping","id":1,"session":"t1"})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_NE(pong->find("\"session\": \"t1\""), std::string::npos) << *pong;
  // An explicit "v" is echoed; an implicit one is not (see the ping above).
  EXPECT_EQ(pong->find("\"v\""), std::string::npos) << *pong;
  StatusOr<std::string> versioned =
      client.Call(R"({"kind":"ping","id":2,"v":1,"session":"t1"})");
  ASSERT_TRUE(versioned.ok());
  EXPECT_NE(versioned->find("\"v\": 1"), std::string::npos) << *versioned;

  // Tagged solve (ok), tagged failing solve (error), different tag, and a
  // rejected (unsupported-version) request that still echoes its session.
  ASSERT_TRUE(client.Call(
                        R"({"kind":"solve","session":"t1","method":"mixed-greedy",)"
                        R"("dataset":{"profile":"tiny","seed":7,"lambda":1.0},)"
                        R"("options":{"seed":42}})")
                  .ok());
  ASSERT_TRUE(client.Call(
                        R"({"kind":"solve","session":"t1","method":"nope",)"
                        R"("dataset":{"profile":"tiny","seed":7,"lambda":1.0}})")
                  .ok());
  ASSERT_TRUE(client.Call(R"({"kind":"ping","session":"t2"})").ok());
  StatusOr<std::string> rejected =
      client.Call(R"({"kind":"ping","v":9,"session":"t3"})");
  ASSERT_TRUE(rejected.ok());
  EXPECT_NE(rejected->find("\"session\": \"t3\""), std::string::npos)
      << *rejected;

  StatusOr<JsonValue> stats = client.CallJson(R"({"kind":"stats"})");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* sessions =
      stats->FindMember("stats")->FindMember("requests")->FindMember(
          "sessions");
  ASSERT_NE(sessions, nullptr);
  const JsonValue* t1 = sessions->FindMember("t1");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->FindMember("ok")->AsInt(), 3);      // 2 pings + 1 solve.
  EXPECT_EQ(t1->FindMember("errors")->AsInt(), 1);  // The failing solve.
  const JsonValue* t2 = sessions->FindMember("t2");
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->FindMember("ok")->AsInt(), 1);
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, UpdateAndResolveServeTheStreamingMarket) {
  ServeOptions options;
  options.workers = 2;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // Resolve before any load: a typed error, not a crash.
  StatusOr<std::string> early = client.Call(
      std::string(R"({"kind":"resolve","id":1,"spec":")") + kResolveSpecText +
      "\"}");
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  ExpectErrorResponse(*early, "INVALID_ARGUMENT", "no resident dataset");

  // Load the tiny catalog into the market stream.
  StatusOr<JsonValue> loaded = client.CallJson(
      R"({"kind":"update","id":2,)"
      R"("load":{"profile":"tiny","seed":7,"lambda":1.0}})");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->FindMember("ok")->AsBool()) << loaded->Dump(0);
  EXPECT_EQ(loaded->FindMember("kind")->AsString(), "update");
  EXPECT_EQ(loaded->FindMember("version")->AsInt(), 1);
  const std::int64_t num_users = loaded->FindMember("num_users")->AsInt();
  EXPECT_GT(num_users, 0);

  // The resolve artifact must be byte-identical to a direct Engine sweep of
  // the same spec (the market holds exactly the spec's dataset).
  StatusOr<JsonValue> resolved = client.CallJson(
      std::string(R"({"kind":"resolve","id":3,"spec":")") + kResolveSpecText +
      "\"}");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_TRUE(resolved->FindMember("ok")->AsBool()) << resolved->Dump(0);
  EXPECT_EQ(resolved->FindMember("version")->AsInt(), 1);
  Engine engine;
  StatusOr<ScenarioSpec> spec = ResolveScenarioSpec(kResolveSpecText);
  ASSERT_TRUE(spec.ok());
  SweepRequest sweep;
  sweep.spec = *spec;
  StatusOr<SweepResponse> swept = engine.Sweep(sweep);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(resolved->FindMember("artifact")->Dump(2),
            SweepResponseJson(WireEnvelope(), *swept)
                .FindMember("artifact")
                ->Dump(2));

  // An identical re-resolve at the same market version is a response-cache
  // hit with zero fresh solver work.
  StatusOr<JsonValue> again = client.CallJson(
      std::string(R"({"kind":"resolve","id":4,"spec":")") + kResolveSpecText +
      "\"}");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->FindMember("ok")->AsBool()) << again->Dump(0);
  EXPECT_TRUE(again->FindMember("incremental")
                  ->FindMember("response_cache_hit")
                  ->AsBool())
      << again->Dump(0);
  EXPECT_EQ(again->FindMember("artifact")->Dump(2),
            resolved->FindMember("artifact")->Dump(2));

  // A delta bumps the version; the next resolve is incremental: it reuses
  // cached pair outcomes for the untouched items.
  StatusOr<JsonValue> updated = client.CallJson(
      R"({"kind":"update","id":5,)"
      R"("deltas":[{"op":"scale_price","item":0,"factor":2.0}]})");
  ASSERT_TRUE(updated.ok());
  ASSERT_TRUE(updated->FindMember("ok")->AsBool()) << updated->Dump(0);
  EXPECT_EQ(updated->FindMember("version")->AsInt(), 2);
  EXPECT_EQ(updated->FindMember("applied")->AsInt(), 1);

  StatusOr<JsonValue> incremental = client.CallJson(
      std::string(R"({"kind":"resolve","id":6,"spec":")") + kResolveSpecText +
      "\"}");
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->FindMember("ok")->AsBool()) << incremental->Dump(0);
  EXPECT_EQ(incremental->FindMember("version")->AsInt(), 2);
  const JsonValue* work = incremental->FindMember("incremental");
  EXPECT_FALSE(work->FindMember("response_cache_hit")->AsBool());
  EXPECT_GT(work->FindMember("pairs_reused")->AsInt(), 0)
      << incremental->Dump(0);

  // Stats v2 exposes the market and the resolve cache.
  StatusOr<JsonValue> stats = client.CallJson(R"({"kind":"stats"})");
  ASSERT_TRUE(stats.ok());
  const JsonValue* market = stats->FindMember("stats")->FindMember("market");
  ASSERT_NE(market, nullptr);
  EXPECT_TRUE(market->FindMember("loaded")->AsBool());
  EXPECT_EQ(market->FindMember("version")->AsInt(), 2);
  EXPECT_EQ(market->FindMember("num_users")->AsInt(), num_users);
  const JsonValue* resolve_cache =
      stats->FindMember("stats")->FindMember("resolve_cache");
  ASSERT_NE(resolve_cache, nullptr);
  EXPECT_GE(resolve_cache->FindMember("hits")->AsInt(), 1);
  EXPECT_EQ(stats->FindMember("stats")->FindMember("schema_version")->AsInt(),
            3);
  server->RequestShutdown();
  server->Wait();
}

TEST(WireProtocolTest, ParsesMarketEnvelope) {
  // Default market: implicit, not echoed.
  StatusOr<WireRequest> implicit = ParseWireRequest(
      R"({"kind":"update","load":{"profile":"tiny","seed":7,"lambda":1.0}})");
  ASSERT_TRUE(implicit.ok()) << implicit.status().ToString();
  EXPECT_EQ(implicit->envelope.market, kDefaultMarketId);
  EXPECT_FALSE(implicit->envelope.market_explicit);

  StatusOr<WireRequest> explicit_market = ParseWireRequest(
      R"({"kind":"resolve","id":4,"market":"alpha","spec":"tiny-theta"})");
  ASSERT_TRUE(explicit_market.ok()) << explicit_market.status().ToString();
  EXPECT_EQ(explicit_market->envelope.market, "alpha");
  EXPECT_TRUE(explicit_market->envelope.market_explicit);

  // The market id shares the session-tag alphabet.
  EXPECT_FALSE(ParseWireRequest(
                   R"({"kind":"resolve","market":"has space","spec":"x"})")
                   .ok());
  EXPECT_FALSE(
      ParseWireRequest(R"({"kind":"resolve","market":7,"spec":"x"})").ok());

  // market-drop refuses to default: dropping a market must be spelled out.
  StatusOr<WireRequest> implicit_drop =
      ParseWireRequest(R"({"kind":"market-drop"})");
  ASSERT_FALSE(implicit_drop.ok());
  EXPECT_NE(implicit_drop.status().message().find("explicit 'market'"),
            std::string::npos);
  EXPECT_TRUE(
      ParseWireRequest(R"({"kind":"market-drop","market":"alpha"})").ok());

  // Control kinds do not address a market.
  EXPECT_FALSE(
      ParseWireRequest(R"({"kind":"ping","market":"alpha"})").ok());
  EXPECT_FALSE(
      ParseWireRequest(R"({"kind":"market-list","market":"alpha"})").ok());
}

TEST(ServeTest, MarketFieldRoutesToIndependentStreams) {
  ServeOptions options;
  options.workers = 2;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // Two markets with different catalogs (seeds) and their own version lines.
  StatusOr<JsonValue> alpha = client.CallJson(
      R"({"kind":"update","id":1,"market":"alpha",)"
      R"("load":{"profile":"tiny","seed":7,"lambda":1.0}})");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  ASSERT_TRUE(alpha->FindMember("ok")->AsBool()) << alpha->Dump(0);
  EXPECT_EQ(alpha->FindMember("market")->AsString(), "alpha");
  EXPECT_EQ(alpha->FindMember("version")->AsInt(), 1);

  StatusOr<JsonValue> beta = client.CallJson(
      R"({"kind":"update","id":2,"market":"beta",)"
      R"("load":{"profile":"tiny","seed":11,"lambda":1.0}})");
  ASSERT_TRUE(beta.ok()) << beta.status().ToString();
  ASSERT_TRUE(beta->FindMember("ok")->AsBool()) << beta->Dump(0);

  // Deltas to alpha do not move beta's version.
  StatusOr<JsonValue> bumped = client.CallJson(
      R"({"kind":"update","id":3,"market":"alpha",)"
      R"("deltas":[{"op":"scale_price","item":0,"factor":2.0}]})");
  ASSERT_TRUE(bumped.ok());
  EXPECT_EQ(bumped->FindMember("version")->AsInt(), 2);
  StatusOr<JsonValue> beta_resolve = client.CallJson(
      std::string(R"({"kind":"resolve","id":4,"market":"beta","spec":")") +
      kResolveSpecText + "\"}");
  ASSERT_TRUE(beta_resolve.ok());
  ASSERT_TRUE(beta_resolve->FindMember("ok")->AsBool())
      << beta_resolve->Dump(0);
  EXPECT_EQ(beta_resolve->FindMember("version")->AsInt(), 1);
  EXPECT_EQ(beta_resolve->FindMember("market")->AsString(), "beta");

  // market-list reports both, sorted by id.
  StatusOr<JsonValue> list =
      client.CallJson(R"({"kind":"market-list","id":5})");
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list->FindMember("ok")->AsBool()) << list->Dump(0);
  const JsonValue* markets = list->FindMember("markets");
  ASSERT_NE(markets, nullptr);
  ASSERT_EQ(markets->size(), 2u);
  EXPECT_EQ(markets->at(0).FindMember("id")->AsString(), "alpha");
  EXPECT_EQ(markets->at(0).FindMember("version")->AsInt(), 2);
  EXPECT_EQ(markets->at(1).FindMember("id")->AsString(), "beta");
  EXPECT_EQ(markets->at(1).FindMember("version")->AsInt(), 1);

  // market-drop drains beta and reports its final version; the id is gone
  // from the next list, and touching it again starts a fresh stream.
  StatusOr<JsonValue> dropped = client.CallJson(
      R"({"kind":"market-drop","id":6,"market":"beta"})");
  ASSERT_TRUE(dropped.ok());
  ASSERT_TRUE(dropped->FindMember("ok")->AsBool()) << dropped->Dump(0);
  EXPECT_EQ(dropped->FindMember("dropped")->AsString(), "beta");
  EXPECT_EQ(dropped->FindMember("final_version")->AsInt(), 1);
  StatusOr<JsonValue> after =
      client.CallJson(R"({"kind":"market-list","id":7})");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->FindMember("markets")->size(), 1u);
  StatusOr<std::string> fresh = client.Call(
      std::string(R"({"kind":"resolve","id":8,"market":"beta","spec":")") +
      kResolveSpecText + "\"}");
  ASSERT_TRUE(fresh.ok());
  ExpectErrorResponse(*fresh, "INVALID_ARGUMENT", "no resident dataset");

  // Dropping a market that is not resident is NOT_FOUND.
  StatusOr<std::string> missing = client.Call(
      R"({"kind":"market-drop","id":9,"market":"gamma"})");
  ASSERT_TRUE(missing.ok());
  ExpectErrorResponse(*missing, "NOT_FOUND", "not resident");
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, LruMarketEvictionKeepsTheCapAndPurgesCaches) {
  ServeOptions options;
  options.max_markets = 2;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  for (const char* market : {"m1", "m2"}) {
    StatusOr<JsonValue> loaded = client.CallJson(
        std::string(R"({"kind":"update","market":")") + market +
        R"(","load":{"profile":"tiny","seed":7,"lambda":1.0}})");
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded->FindMember("ok")->AsBool()) << loaded->Dump(0);
  }
  // A third market evicts the LRU idle one (m1).
  StatusOr<JsonValue> third = client.CallJson(
      R"({"kind":"update","market":"m3",)"
      R"("load":{"profile":"tiny","seed":7,"lambda":1.0}})");
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(third->FindMember("ok")->AsBool()) << third->Dump(0);

  StatusOr<JsonValue> list = client.CallJson(R"({"kind":"market-list"})");
  ASSERT_TRUE(list.ok());
  const JsonValue* markets = list->FindMember("markets");
  ASSERT_EQ(markets->size(), 2u);
  EXPECT_EQ(markets->at(0).FindMember("id")->AsString(), "m2");
  EXPECT_EQ(markets->at(1).FindMember("id")->AsString(), "m3");
  server->RequestShutdown();
  server->Wait();
}

TEST(ServeTest, TenantMapBindsSessionsToMarkets) {
  ServeOptions options;
  StatusOr<TenantMap> map = TenantMap::Parse(
      "tenant-a: alpha, alpha-*\n"
      "tenant-b: beta\n");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  options.tenant_map = std::move(map).value();
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // tenant-a may load its own market.
  StatusOr<JsonValue> loaded = client.CallJson(
      R"({"kind":"update","id":1,"session":"tenant-a","market":"alpha",)"
      R"("load":{"profile":"tiny","seed":7,"lambda":1.0}})");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->FindMember("ok")->AsBool()) << loaded->Dump(0);

  // tenant-b updating alpha is a typed denial naming tenant and market —
  // before any delta lands (alpha's version must not move).
  StatusOr<std::string> denied = client.Call(
      R"({"kind":"update","id":2,"session":"tenant-b","market":"alpha",)"
      R"("deltas":[{"op":"scale_price","item":0,"factor":2.0}]})");
  ASSERT_TRUE(denied.ok());
  ExpectErrorResponse(*denied, "PERMISSION_DENIED", "tenant 'tenant-b'");
  ExpectErrorResponse(*denied, "PERMISSION_DENIED", "market 'alpha'");

  // ...and so is a resolve and a drop.
  StatusOr<std::string> denied_resolve = client.Call(
      std::string(
          R"({"kind":"resolve","id":3,"session":"tenant-b","market":"alpha",)"
          R"("spec":")") +
      kResolveSpecText + "\"}");
  ASSERT_TRUE(denied_resolve.ok());
  ExpectErrorResponse(*denied_resolve, "PERMISSION_DENIED", "tenant-b");
  StatusOr<std::string> denied_drop = client.Call(
      R"({"kind":"market-drop","id":4,"session":"tenant-b","market":"alpha"})");
  ASSERT_TRUE(denied_drop.ok());
  ExpectErrorResponse(*denied_drop, "PERMISSION_DENIED", "tenant-b");

  // Untagged sessions are allowed nothing once the map is binding.
  StatusOr<std::string> untagged = client.Call(
      R"({"kind":"update","id":5,"market":"alpha",)"
      R"("deltas":[{"op":"scale_price","item":0,"factor":2.0}]})");
  ASSERT_TRUE(untagged.ok());
  ExpectErrorResponse(*untagged, "PERMISSION_DENIED", "untagged session");

  // Globs: tenant-a reaches alpha-staging too.
  StatusOr<JsonValue> staging = client.CallJson(
      R"({"kind":"update","id":6,"session":"tenant-a",)"
      R"("market":"alpha-staging",)"
      R"("load":{"profile":"tiny","seed":11,"lambda":1.0}})");
  ASSERT_TRUE(staging.ok());
  ASSERT_TRUE(staging->FindMember("ok")->AsBool()) << staging->Dump(0);

  // market-list is filtered to what the requesting tenant may touch.
  StatusOr<JsonValue> list_a = client.CallJson(
      R"({"kind":"market-list","id":7,"session":"tenant-a"})");
  ASSERT_TRUE(list_a.ok());
  EXPECT_EQ(list_a->FindMember("markets")->size(), 2u);
  StatusOr<JsonValue> list_b = client.CallJson(
      R"({"kind":"market-list","id":8,"session":"tenant-b"})");
  ASSERT_TRUE(list_b.ok());
  EXPECT_EQ(list_b->FindMember("markets")->size(), 0u);

  // Alpha's version never moved past the load: the denials were pre-write.
  StatusOr<JsonValue> list_again = client.CallJson(
      R"({"kind":"market-list","id":9,"session":"tenant-a"})");
  ASSERT_TRUE(list_again.ok());
  EXPECT_EQ(list_again->FindMember("markets")->at(0).FindMember("version")
                ->AsInt(),
            1);

  // The owner's deltas do land, and are attributed to the tenant.
  StatusOr<JsonValue> owner_delta = client.CallJson(
      R"({"kind":"update","id":10,"session":"tenant-a","market":"alpha",)"
      R"("deltas":[{"op":"scale_price","item":1,"factor":1.5}]})");
  ASSERT_TRUE(owner_delta.ok());
  ASSERT_TRUE(owner_delta->FindMember("ok")->AsBool()) << owner_delta->Dump(0);
  EXPECT_EQ(owner_delta->FindMember("version")->AsInt(), 2);

  // The stats document breaks the story out per tenant.
  StatusOr<JsonValue> stats =
      client.CallJson(R"({"kind":"stats","session":"tenant-a"})");
  ASSERT_TRUE(stats.ok());
  const JsonValue* tenants = stats->FindMember("stats")->FindMember("tenants");
  ASSERT_NE(tenants, nullptr) << stats->Dump(2);
  const JsonValue* tenant_a = tenants->FindMember("tenant-a");
  ASSERT_NE(tenant_a, nullptr);
  EXPECT_EQ(tenant_a->FindMember("markets_owned")->AsInt(), 2);
  EXPECT_EQ(tenant_a->FindMember("deltas_applied")->AsInt(), 1);
  EXPECT_EQ(tenant_a->FindMember("denials")->AsInt(), 0);
  const JsonValue* tenant_b = tenants->FindMember("tenant-b");
  ASSERT_NE(tenant_b, nullptr);
  EXPECT_EQ(tenant_b->FindMember("denials")->AsInt(), 3);
  const JsonValue* untagged_row = tenants->FindMember("(untagged)");
  ASSERT_NE(untagged_row, nullptr);
  EXPECT_EQ(untagged_row->FindMember("denials")->AsInt(), 1);
  server->RequestShutdown();
  server->Wait();
}

// One tenant's full update history applied to a fresh single-market server,
// resolved once: the oracle for what that tenant's artifact bytes must be
// regardless of what other tenants did on a shared server.
std::string SoloArtifact(const std::vector<std::string>& update_lines) {
  std::unique_ptr<BundleServer> server = StartServer(ServeOptions{});
  WireClient client = ConnectTo(*server);
  for (const std::string& line : update_lines) {
    StatusOr<JsonValue> response = client.CallJson(line);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->FindMember("ok")->AsBool()) << response->Dump(0);
  }
  StatusOr<JsonValue> resolved = client.CallJson(
      std::string(R"({"kind":"resolve","spec":")") + kResolveSpecText + "\"}");
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_TRUE(resolved->FindMember("ok")->AsBool()) << resolved->Dump(0);
  std::string artifact = resolved->FindMember("artifact")->Dump(2);
  server->RequestShutdown();
  server->Wait();
  return artifact;
}

// The isolation keystone, serial form: two tenants interleave deltas on
// their own markets through one server; each market's resolve artifact is
// byte-identical to the artifact of a server that only ever saw that
// tenant's updates.
TEST(ServeTest, CrossTenantDeltasCannotPerturbAnotherMarketsArtifact) {
  const std::vector<std::string> alpha_updates = {
      R"({"kind":"update","load":{"profile":"tiny","seed":7,"lambda":1.0}})",
      R"({"kind":"update","deltas":[{"op":"scale_price","item":0,"factor":2.0}]})",
      R"({"kind":"update","deltas":[{"op":"scale_price","item":2,"factor":0.5}]})",
  };
  const std::vector<std::string> beta_updates = {
      R"({"kind":"update","load":{"profile":"tiny","seed":11,"lambda":1.0}})",
      R"({"kind":"update","deltas":[{"op":"scale_price","item":1,"factor":3.0}]})",
      R"({"kind":"update","deltas":[{"op":"scale_price","item":4,"factor":0.25}]})",
  };
  const std::string alpha_expected = SoloArtifact(alpha_updates);
  const std::string beta_expected = SoloArtifact(beta_updates);
  ASSERT_NE(alpha_expected, beta_expected);

  ServeOptions options;
  StatusOr<TenantMap> map = TenantMap::Parse(
      "tenant-a: alpha\n"
      "tenant-b: beta\n");
  ASSERT_TRUE(map.ok());
  options.tenant_map = std::move(map).value();
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);

  // Interleave the two tenants' update streams request by request.
  auto Retarget = [](const std::string& line, const std::string& session,
                     const std::string& market) {
    std::string out = line;
    out.insert(out.find('{') + 1, R"("session":")" + session +
                                      R"(","market":")" + market + R"(",)");
    return out;
  };
  for (std::size_t i = 0; i < alpha_updates.size(); ++i) {
    for (const auto& [updates, session, market] :
         {std::tuple{&alpha_updates, "tenant-a", "alpha"},
          std::tuple{&beta_updates, "tenant-b", "beta"}}) {
      StatusOr<JsonValue> response =
          client.CallJson(Retarget((*updates)[i], session, market));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->FindMember("ok")->AsBool()) << response->Dump(0);
    }
  }

  StatusOr<JsonValue> alpha = client.CallJson(
      std::string(R"({"kind":"resolve","session":"tenant-a",)"
                  R"("market":"alpha","spec":")") +
      kResolveSpecText + "\"}");
  ASSERT_TRUE(alpha.ok());
  ASSERT_TRUE(alpha->FindMember("ok")->AsBool()) << alpha->Dump(0);
  EXPECT_EQ(alpha->FindMember("artifact")->Dump(2), alpha_expected);

  StatusOr<JsonValue> beta = client.CallJson(
      std::string(R"({"kind":"resolve","session":"tenant-b",)"
                  R"("market":"beta","spec":")") +
      kResolveSpecText + "\"}");
  ASSERT_TRUE(beta.ok());
  ASSERT_TRUE(beta->FindMember("ok")->AsBool()) << beta->Dump(0);
  EXPECT_EQ(beta->FindMember("artifact")->Dump(2), beta_expected);
  server->RequestShutdown();
  server->Wait();
}

// The same keystone under real concurrency: each tenant hammers its own
// market from its own connection, with deltas and resolves racing the other
// tenant's. Final artifacts must still match the solo oracles. (CI also
// runs this suite under TSan.)
TEST(ServeTest, ConcurrentTenantsKeepArtifactByteIsolation) {
  constexpr int kRounds = 3;
  auto UpdateSequence = [](std::uint64_t seed, int item_stride) {
    std::vector<std::string> lines;
    lines.push_back(
        std::string(
            R"({"kind":"update","load":{"profile":"tiny","seed":)") +
        std::to_string(seed) + R"(,"lambda":1.0}})");
    for (int round = 0; round < kRounds; ++round) {
      lines.push_back(
          std::string(R"({"kind":"update","deltas":[{"op":"scale_price",)"
                      R"("item":)") +
          std::to_string((round * item_stride) % 5) + R"(,"factor":1.5}]})");
    }
    return lines;
  };
  const std::vector<std::string> alpha_updates = UpdateSequence(7, 2);
  const std::vector<std::string> beta_updates = UpdateSequence(11, 3);
  const std::string alpha_expected = SoloArtifact(alpha_updates);
  const std::string beta_expected = SoloArtifact(beta_updates);

  ServeOptions options;
  options.workers = 3;
  StatusOr<TenantMap> map = TenantMap::Parse(
      "tenant-a: alpha\n"
      "tenant-b: beta\n");
  ASSERT_TRUE(map.ok());
  options.tenant_map = std::move(map).value();
  std::unique_ptr<BundleServer> server = StartServer(options);

  auto Tenant = [&](const std::vector<std::string>& updates,
                    const std::string& session, const std::string& market,
                    std::string* final_artifact) {
    WireClient client = ConnectTo(*server);
    const std::string prefix = R"("session":")" + session +
                               R"(","market":")" + market + R"(",)";
    for (const std::string& line : updates) {
      std::string targeted = line;
      targeted.insert(targeted.find('{') + 1, prefix);
      StatusOr<JsonValue> response = client.CallJson(targeted);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->FindMember("ok")->AsBool()) << response->Dump(0);
      // Resolve after every delta so reads race the other tenant's writes.
      StatusOr<JsonValue> resolved = client.CallJson(
          std::string(R"({"kind":"resolve",)") + prefix + R"("spec":")" +
          kResolveSpecText + "\"}");
      ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
      ASSERT_TRUE(resolved->FindMember("ok")->AsBool()) << resolved->Dump(0);
      *final_artifact = resolved->FindMember("artifact")->Dump(2);
    }
  };
  std::string alpha_artifact;
  std::string beta_artifact;
  std::thread alpha_thread(Tenant, std::cref(alpha_updates), "tenant-a",
                           "alpha", &alpha_artifact);
  std::thread beta_thread(Tenant, std::cref(beta_updates), "tenant-b", "beta",
                          &beta_artifact);
  alpha_thread.join();
  beta_thread.join();

  EXPECT_EQ(alpha_artifact, alpha_expected);
  EXPECT_EQ(beta_artifact, beta_expected);
  server->RequestShutdown();
  server->Wait();
}

// The non-empty lines of tests/fixtures/wire/<name>.
std::vector<std::string> ReadWireFixture(const std::string& name) {
  const std::string path =
      std::string(BUNDLEMINE_SOURCE_DIR) + "/tests/fixtures/wire/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Replays the frozen wire-fixture corpus (tests/fixtures/wire/) captured
// from the protocol-v1 server: every v1 request must still produce the
// exact response bytes it produced before multi-tenant markets landed.
TEST(ServeTest, WireFixtureCorpusReplaysByteIdentical) {
  const std::vector<std::string> requests = ReadWireFixture("requests.jsonl");
  const std::vector<std::string> expected = ReadWireFixture("expected.jsonl");
  ASSERT_FALSE(requests.empty());
  ASSERT_EQ(requests.size(), expected.size());

  ServeOptions options;
  options.workers = 2;
  std::unique_ptr<BundleServer> server = StartServer(options);
  WireClient client = ConnectTo(*server);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    StatusOr<std::string> response = client.Call(requests[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, expected[i]) << "request: " << requests[i];
  }
  server->RequestShutdown();
  server->Wait();
}

// Replays the hostile corpus (tests/fixtures/wire/hostile.jsonl) through
// the stdio loop, as `bundlemined --stdio` does: requests that once aborted
// the process. Every request but the final ping must get a typed
// INVALID_ARGUMENT, and the ping must still answer.
TEST(ServeTest, HostileCorpusGetsTypedErrorsAndTheServerStaysUp) {
  const std::vector<std::string> requests = ReadWireFixture("hostile.jsonl");
  ASSERT_GE(requests.size(), 2u);
  std::string input;
  for (const std::string& request : requests) input += request + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.workers = 2;
  BundleServer server(options);
  server.ServeStream(in, out);

  std::map<std::int64_t, JsonValue> by_id;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    std::optional<JsonValue> response = JsonParse(line);
    ASSERT_TRUE(response) << line;
    const JsonValue* id = response->FindMember("id");
    ASSERT_NE(id, nullptr) << line;
    by_id[id->AsInt()] = *response;
  }
  ASSERT_EQ(by_id.size(), requests.size()) << out.str();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::optional<JsonValue> request = JsonParse(requests[i]);
    ASSERT_TRUE(request) << requests[i];
    const JsonValue& response = by_id[request->FindMember("id")->AsInt()];
    if (i + 1 == requests.size()) {
      EXPECT_EQ(response.FindMember("message")->AsString(), "pong");
      continue;
    }
    EXPECT_FALSE(response.FindMember("ok")->AsBool()) << requests[i];
    const JsonValue* error = response.FindMember("error");
    ASSERT_NE(error, nullptr) << requests[i];
    EXPECT_EQ(error->FindMember("code")->AsString(), "INVALID_ARGUMENT")
        << requests[i];
  }
}

TEST(ServeTest, StreamModeDrivesAFullSessionThroughPipes) {
  std::ostringstream out;
  std::istringstream in(
      SolveLine(1, "mixed-greedy", 0.0, 42) + "\n" +
      R"({"kind":"ping","id":2})" "\n" +
      "{broken\n" +
      SweepLine(3, "0/2") + "\n" +
      R"({"kind":"shutdown","id":4})" "\n");
  ServeOptions options;
  options.workers = 2;
  BundleServer server(options);
  server.ServeStream(in, out);

  // Responses may interleave (control answers inline, queued work answers
  // when a worker finishes); index them by id.
  Engine engine;
  std::istringstream lines(out.str());
  std::string line;
  int parse_errors = 0;
  std::map<std::int64_t, std::string> by_id;
  while (std::getline(lines, line)) {
    std::optional<JsonValue> response = JsonParse(line);
    ASSERT_TRUE(response) << line;
    const JsonValue* id = response->FindMember("id");
    if (id == nullptr) {
      ++parse_errors;  // The broken line's error response carries no id.
      continue;
    }
    by_id[id->AsInt()] = line;
  }
  EXPECT_EQ(parse_errors, 1);
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_EQ(by_id[1], ExpectedSolveLine(engine, 1, "mixed-greedy", 0.0, 42));
  EXPECT_NE(by_id[2].find("\"pong\""), std::string::npos);
  EXPECT_EQ(by_id[3], ExpectedSweepLine(engine, 3, 0, 2));
  EXPECT_NE(by_id[4].find("\"shutdown\""), std::string::npos);
}

}  // namespace
}  // namespace bundlemine
