// Engine::Resolve tests — the incremental re-solve contract:
//
//   * Replay determinism (the keystone): N deltas + Resolve produces an
//     artifact byte-identical to a batch rebuild of the final market state,
//     serial and threaded.
//   * Incremental economy: a re-solve after a small delta reports
//     pairs_reused > 0 and strictly fewer pairs_evaluated than the batch
//     solve of the same state.
//   * Response caching: resolving an unchanged market returns the previous
//     response without solver work.
//   * Edge cases: deltas that empty an item's audience, error paths
//     (unloaded market, dataset axes in the spec).
//
// Specs here use matching methods on purpose: the pair-outcome cache (keyed
// by merge-tree node, valid in every round) lives in SolveMatching, so
// only matching cells can report reuse.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "data/ratings.h"
#include "data/wtp_matrix.h"
#include "gtest/gtest.h"
#include "market/market_delta.h"
#include "market/market_stream.h"
#include "scenario/artifact_writer.h"
#include "scenario/scenario_spec.h"
#include "util/rng.h"
#include "util/status.h"

namespace bundlemine {
namespace {

constexpr char kSpecText[] =
    "scale=tiny;seed=7;methods=components,pure-matching;"
    "axis:theta=-0.05,0,0.05";

ScenarioSpec Spec(const std::string& text = kSpecText) {
  auto spec = ResolveScenarioSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status().message();
  return *spec;
}

DatasetSpec TinyDataset() {
  DatasetSpec spec;
  spec.profile = "tiny";
  spec.seed = 7;
  return spec;
}

MarketDelta Delta(MarketDeltaOp op, int user = -1, int item = -1,
                  double stars = 0.0, double value = 0.0) {
  MarketDelta d;
  d.op = op;
  d.user = user;
  d.item = item;
  d.stars = stars;
  d.value = value;
  return d;
}

// A small, data-driven delta batch against `dataset`: price moves, a rating
// update and removal (targets read from the dataset so they exist), one
// arriving user, and one fresh rating for that user.
std::vector<MarketDelta> SmallDeltaBatch(const RatingsDataset& dataset) {
  const Rating& r0 = dataset.ratings()[0];
  const Rating& r1 = dataset.ratings()[1];
  MarketDelta add_user = Delta(MarketDeltaOp::kAddUser);
  add_user.ratings = {{2, 4.0}, {11, 3.0}};
  return {
      Delta(MarketDeltaOp::kScalePrice, -1, 3, 0.0, 2.0),
      Delta(MarketDeltaOp::kSetPrice, -1, 10, 0.0, 12.5),
      Delta(MarketDeltaOp::kUpdateRating, r0.user, r0.item, 5.0),
      Delta(MarketDeltaOp::kRemoveRating, r1.user, r1.item),
      add_user,
      Delta(MarketDeltaOp::kAddRating, dataset.num_users(), 7, 2.0),
  };
}

// Resolves `spec` against a fresh engine + fresh market loaded with
// `dataset` — the batch rebuild both determinism tests compare against.
// Returns (artifact bytes, pairs_evaluated).
std::pair<std::string, std::int64_t> BatchRebuild(
    const RatingsDataset& dataset, const ScenarioSpec& spec, int threads) {
  Engine::Options options;
  options.threads = threads;
  Engine engine(options);
  MarketStream market("batch");
  EXPECT_TRUE(market.Load(dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = spec;
  auto response = engine.Resolve(request);
  EXPECT_TRUE(response.ok()) << response.status().message();
  // A first-ever resolve is the batch solve: nothing to reuse.
  EXPECT_EQ(response->pairs_reused, 0);
  return {SweepArtifactJson(response->result), response->pairs_evaluated};
}

TEST(ResolveTest, ReplayDeterminismSerialAndThreaded) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads == 1 ? "serial" : "threaded");
    Engine::Options options;
    options.threads = threads;
    Engine engine(options);
    auto dataset = engine.Dataset(TinyDataset());
    ASSERT_TRUE(dataset.ok());

    MarketStream market("stream");
    ASSERT_TRUE(market.Load(**dataset).ok());
    ResolveRequest request;
    request.market = &market;
    request.spec = Spec();

    // Prime the resolve cache, then stream the deltas in two batches so the
    // final resolve is genuinely incremental (cached outcomes + dirty mask).
    auto primed = engine.Resolve(request);
    ASSERT_TRUE(primed.ok());
    std::vector<MarketDelta> deltas = SmallDeltaBatch(**dataset);
    std::vector<MarketDelta> first(deltas.begin(), deltas.begin() + 2);
    std::vector<MarketDelta> rest(deltas.begin() + 2, deltas.end());
    ASSERT_TRUE(market.Apply(first).ok());
    ASSERT_TRUE(market.Apply(rest).ok());

    auto incremental = engine.Resolve(request);
    ASSERT_TRUE(incremental.ok());
    EXPECT_FALSE(incremental->response_cache_hit);
    EXPECT_EQ(incremental->market_version, market.version());

    // Keystone: the incremental artifact is byte-identical to a batch
    // rebuild of the final state, at this thread count.
    RatingsDataset final_state = *market.TakeSnapshot().dataset;
    auto [batch_bytes, batch_pairs] = BatchRebuild(final_state, Spec(), threads);
    EXPECT_EQ(SweepArtifactJson(incremental->result), batch_bytes);

    // Acceptance: the incremental solve did strictly less candidate work.
    EXPECT_GT(incremental->pairs_reused, 0);
    EXPECT_LT(incremental->pairs_evaluated, batch_pairs);
    EXPECT_EQ(incremental->pairs_evaluated + incremental->pairs_reused,
              batch_pairs);
  }
}

TEST(ResolveTest, ThreadCountDoesNotChangeIncrementalBytes) {
  // The same incremental resolve at 1 and 4 threads produces identical
  // artifacts — reuse bookkeeping must not depend on scheduling.
  std::string bytes[2];
  int i = 0;
  for (int threads : {1, 4}) {
    Engine::Options options;
    options.threads = threads;
    Engine engine(options);
    auto dataset = engine.Dataset(TinyDataset());
    ASSERT_TRUE(dataset.ok());
    MarketStream market("stream");
    ASSERT_TRUE(market.Load(**dataset).ok());
    ResolveRequest request;
    request.market = &market;
    request.spec = Spec();
    ASSERT_TRUE(engine.Resolve(request).ok());
    ASSERT_TRUE(market.Apply(SmallDeltaBatch(**dataset)).ok());
    auto response = engine.Resolve(request);
    ASSERT_TRUE(response.ok());
    EXPECT_GT(response->pairs_reused, 0);
    bytes[i++] = SweepArtifactJson(response->result);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

constexpr char kMatchingSpecText[] =
    "scale=tiny;seed=7;methods=pure-matching,mixed-matching;"
    "axis:theta=0,0.05";
constexpr int kMatchingCells = 4;

TEST(ResolveTest, OneItemDeltaReusesPairsBeyondRoundOne) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads == 1 ? "serial" : "threaded");
    Engine::Options options;
    options.threads = threads;
    Engine engine(options);
    auto dataset = engine.Dataset(TinyDataset());
    ASSERT_TRUE(dataset.ok());
    MarketStream market("stream");
    ASSERT_TRUE(market.Load(**dataset).ok());
    ResolveRequest request;
    request.market = &market;
    request.spec = Spec(kMatchingSpecText);
    ASSERT_TRUE(engine.Resolve(request).ok());

    constexpr int kDirtyItem = 3;
    ASSERT_TRUE(market
                    .Apply({Delta(MarketDeltaOp::kScalePrice, -1, kDirtyItem,
                                  0.0, 2.0)})
                    .ok());
    auto incremental = engine.Resolve(request);
    ASSERT_TRUE(incremental.ok());
    RatingsDataset final_state = *market.TakeSnapshot().dataset;
    auto [batch_bytes, batch_pairs] =
        BatchRebuild(final_state, Spec(kMatchingSpecText), threads);
    EXPECT_EQ(SweepArtifactJson(incremental->result), batch_bytes);
    EXPECT_EQ(incremental->pairs_evaluated + incremental->pairs_reused,
              batch_pairs);

    // Round 1 of every matching cell prices the co-interested item pairs
    // (positivity is λ-independent), so reuse confined to round 1 could
    // answer at most those not touching the dirty item. Anything beyond is
    // later-round reuse.
    const auto round1 =
        WtpMatrix::FromRatings(final_state, 1.0).CoInterestedPairs();
    std::int64_t clean_round1 = 0;
    for (const auto& [i, j] : round1) {
      if (i != kDirtyItem && j != kDirtyItem) ++clean_round1;
    }
    EXPECT_GT(incremental->pairs_reused, kMatchingCells * clean_round1);
  }
}

TEST(ResolveTest, StaleEdgesRepricedEveryRoundMatchBatch) {
  // Without stale-edge pruning a solve prices unchanged pairs again in every
  // round; the cache keeps one outcome per pair and stays exact.
  const std::string spec_text =
      std::string(kMatchingSpecText) + ";axis:prune-stale-edges=0";
  Engine engine;
  auto dataset = engine.Dataset(TinyDataset());
  ASSERT_TRUE(dataset.ok());
  MarketStream market("stream");
  ASSERT_TRUE(market.Load(**dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = Spec(spec_text);
  ASSERT_TRUE(engine.Resolve(request).ok());
  ASSERT_TRUE(market.Apply(SmallDeltaBatch(**dataset)).ok());
  auto incremental = engine.Resolve(request);
  ASSERT_TRUE(incremental.ok());
  auto [batch_bytes, batch_pairs] =
      BatchRebuild(*market.TakeSnapshot().dataset, Spec(spec_text), 1);
  EXPECT_EQ(SweepArtifactJson(incremental->result), batch_bytes);
  EXPECT_EQ(incremental->pairs_evaluated + incremental->pairs_reused,
            batch_pairs);
  EXPECT_GT(incremental->pairs_reused, 0);
}

TEST(ResolveTest, RandomDeltaStreamMatchesBatchAfterEveryResolve) {
  Engine engine;
  auto dataset = engine.Dataset(TinyDataset());
  ASSERT_TRUE(dataset.ok());
  MarketStream market("stream");
  ASSERT_TRUE(market.Load(**dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = Spec(kMatchingSpecText);
  ASSERT_TRUE(engine.Resolve(request).ok());

  Rng rng(2024);
  const int num_items = (*dataset)->num_items();
  std::int64_t reused = 0;
  for (int step = 0; step < 20; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    RatingsDataset current = *market.TakeSnapshot().dataset;
    const Rating& r = current.ratings()[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(current.ratings().size()) - 1))];
    MarketDelta delta;
    switch (step % 5) {
      case 0: {
        delta = Delta(MarketDeltaOp::kAddUser);
        for (int item = rng.UniformInt(0, 9); item < num_items;
             item += rng.UniformInt(5, 30)) {
          delta.ratings.push_back(
              {item, static_cast<double>(rng.UniformInt(1, 5))});
        }
        break;
      }
      case 1:
        delta = Delta(MarketDeltaOp::kRemoveUser,
                      rng.Bernoulli(0.5) ? -1 : r.user);
        break;
      case 2:
        delta = Delta(MarketDeltaOp::kRemoveRating, r.user, r.item);
        break;
      case 3:
        delta = Delta(MarketDeltaOp::kSetPrice, -1,
                      rng.UniformInt(0, num_items - 1), 0.0,
                      rng.UniformDouble(1.0, 20.0));
        break;
      default:
        delta = Delta(MarketDeltaOp::kUpdateRating, r.user, r.item,
                      static_cast<double>(rng.UniformInt(1, 5)));
        break;
    }
    ASSERT_TRUE(market.Apply({delta}).ok());
    auto incremental = engine.Resolve(request);
    ASSERT_TRUE(incremental.ok());
    reused += incremental->pairs_reused;
    RatingsDataset final_state = *market.TakeSnapshot().dataset;
    EXPECT_EQ(SweepArtifactJson(incremental->result),
              BatchRebuild(final_state, Spec(kMatchingSpecText), 1).first);
  }
  EXPECT_GT(reused, 0);
}

TEST(ResolveTest, UnchangedMarketIsAResponseCacheHit) {
  Engine engine;
  auto dataset = engine.Dataset(TinyDataset());
  ASSERT_TRUE(dataset.ok());
  MarketStream market("stream");
  ASSERT_TRUE(market.Load(**dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = Spec();

  auto first = engine.Resolve(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->response_cache_hit);
  Engine::CacheStats after_first = engine.resolve_cache_stats();
  EXPECT_EQ(after_first.entries, 1u);

  // An empty delta batch does not bump the version, so the re-resolve is
  // answered from the response cache: same bytes, zero new solver work.
  ASSERT_TRUE(market.Apply({}).ok());
  auto second = engine.Resolve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->response_cache_hit);
  EXPECT_EQ(second->market_version, first->market_version);
  EXPECT_EQ(SweepArtifactJson(second->result), SweepArtifactJson(first->result));
  Engine::CacheStats after_second = engine.resolve_cache_stats();
  EXPECT_EQ(after_second.hits, after_first.hits + 1);

  // A different spec against the same market is its own cache line.
  ResolveRequest other = request;
  other.spec = Spec(
      "scale=tiny;seed=7;methods=pure-matching;axis:theta=0.1");
  auto third = engine.Resolve(other);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->response_cache_hit);
  EXPECT_EQ(engine.resolve_cache_stats().entries, 2u);
}

TEST(ResolveTest, DeltaEmptyingAnItemsAudienceMatchesBatch) {
  Engine engine;
  auto dataset = engine.Dataset(TinyDataset());
  ASSERT_TRUE(dataset.ok());
  MarketStream market("stream");
  ASSERT_TRUE(market.Load(**dataset).ok());
  ResolveRequest request;
  request.market = &market;
  request.spec = Spec();
  ASSERT_TRUE(engine.Resolve(request).ok());

  // Remove every rating of item 0 — its audience drops to zero while the
  // item stays in the (fixed) catalogue.
  std::vector<MarketDelta> deltas;
  for (const Rating& r : (*dataset)->ratings()) {
    if (r.item == 0) {
      deltas.push_back(Delta(MarketDeltaOp::kRemoveRating, r.user, r.item));
    }
  }
  ASSERT_FALSE(deltas.empty());
  ASSERT_TRUE(market.Apply(deltas).ok());
  MarketStream::Snapshot snap = market.TakeSnapshot();
  EXPECT_EQ(snap.transactions->ItemSupport(0), 0);

  auto incremental = engine.Resolve(request);
  ASSERT_TRUE(incremental.ok()) << incremental.status().message();
  auto [batch_bytes, batch_pairs] = BatchRebuild(*snap.dataset, Spec(), 1);
  EXPECT_EQ(SweepArtifactJson(incremental->result), batch_bytes);
  EXPECT_GT(incremental->pairs_reused, 0);
  EXPECT_LT(incremental->pairs_evaluated, batch_pairs);
}

TEST(ResolveTest, ReloadedMarketNeverReusesEvictedItemsets) {
  const ScenarioSpec spec =
      Spec("scale=tiny;seed=7;methods=pure-freq,mixed-freq;axis:theta=0,0.05");
  Engine engine;
  auto old_data = engine.Dataset(TinyDataset());
  DatasetSpec other = TinyDataset();
  other.seed = 8;
  auto new_data = engine.Dataset(other);
  ASSERT_TRUE(old_data.ok());
  ASSERT_TRUE(new_data.ok());

  std::uint64_t old_version = 0;
  {
    MarketStream market("m");
    ASSERT_TRUE(market.Load(**old_data).ok());
    old_version = market.version();
    ResolveRequest request;
    request.market = &market;
    request.spec = spec;
    ASSERT_TRUE(engine.Resolve(request).ok());
    // Every freq cell of this market version shares one mine, across specs.
    request.spec = Spec("scale=tiny;seed=7;methods=pure-freq;axis:theta=0.1");
    ASSERT_TRUE(engine.Resolve(request).ok());
    EXPECT_EQ(engine.itemset_cache_stats().misses, 1);
    EXPECT_EQ(engine.itemset_cache_stats().hits, 4);
  }
  engine.EvictMarketCaches("m");
  EXPECT_EQ(engine.itemset_cache_stats().entries, 0u);

  // Same id, same version number, different data: it must mine afresh.
  MarketStream reloaded("m");
  ASSERT_TRUE(reloaded.Load(**new_data).ok());
  ASSERT_EQ(reloaded.version(), old_version);
  ResolveRequest request;
  request.market = &reloaded;
  request.spec = spec;
  auto response = engine.Resolve(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(engine.itemset_cache_stats().misses, 2);
  EXPECT_EQ(SweepArtifactJson(response->result),
            BatchRebuild(**new_data, spec, 1).first);
}

TEST(ResolveTest, ErrorPaths) {
  Engine engine;
  MarketStream market("stream");
  ResolveRequest request;
  request.market = &market;
  request.spec = Spec();

  // Unloaded market.
  auto unloaded = engine.Resolve(request);
  ASSERT_FALSE(unloaded.ok());
  EXPECT_EQ(unloaded.status().code(), StatusCode::kInvalidArgument);

  // Dataset axes make no sense against a resident market.
  auto dataset = engine.Dataset(TinyDataset());
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(market.Load(**dataset).ok());
  ResolveRequest with_axis = request;
  with_axis.spec = Spec(
      "scale=tiny;seed=7;methods=pure-matching;axis:item-sample=20,40");
  auto rejected = engine.Resolve(with_axis);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("dataset axes"),
            std::string::npos);

  // No market pointer at all.
  ResolveRequest no_market;
  no_market.spec = Spec();
  auto null_market = engine.Resolve(no_market);
  EXPECT_FALSE(null_market.ok());
}

}  // namespace
}  // namespace bundlemine
