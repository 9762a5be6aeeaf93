#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/bundle.h"
#include "core/offer_ops.h"
#include "market/market_stream.h"
#include "matching/max_weight_matching.h"
#include "mining/mafia.h"
#include "mining/transactions.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_workspace.h"
#include "util/json.h"
#include "util/check.h"

namespace perfbench {

using namespace bundlemine;
using Clock = std::chrono::steady_clock;

namespace {

// The bundlers' threshold for a merge to count as a gain.
constexpr double kGainEpsilon = 1e-9;

// A mine that runs longer than this is cut short (its itemset count then
// covers only the explored part of the lattice).
constexpr double kMiningBudgetSeconds = 60.0;

}  // namespace

RoundOneReplay ReplayRoundOne(const WtpMatrix& wtp, double theta,
                              BundlingStrategy strategy, Tracer* tracer,
                              int parent) {
  RoundOneReplay out;
  const bool pure = strategy == BundlingStrategy::kPure;
  const AdoptionModel model = AdoptionModel::Step();
  const OfferPricer pricer(model);
  const MixedPricer mixed(model);
  PricingWorkspace ws;

  std::vector<std::pair<ItemId, ItemId>> pairs;
  {
    ScopedSpan span(tracer, "data.coint_pairs", 0, parent);
    const auto start = Clock::now();
    pairs = wtp.CoInterestedPairs();
    out.coint_pairs_s = SecondsSince(start);
  }
  out.coint_pairs = static_cast<std::int64_t>(pairs.size());

  const std::size_t n = static_cast<std::size_t>(wtp.num_items());
  std::vector<SparseWtpVector> raw(n);
  std::vector<SparseWtpVector> payments(pure ? 0 : n);
  std::vector<double> price(n, 0.0);
  std::vector<double> revenue(n, 0.0);
  {
    ScopedSpan span(tracer, "pricing.singleton", 0, parent);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      raw[i] = wtp.ItemVector(static_cast<ItemId>(i));
      const PricedOffer priced = pricer.PriceOffer(raw[i], 1.0, &ws);
      price[i] = priced.price;
      revenue[i] = priced.revenue;
      if (!pure) {
        payments[i] = mixed.BuildStandalonePayments(raw[i], 1.0, priced.price);
      }
    }
    out.singleton_s = SecondsSince(start);
  }

  struct Edge {
    int a = 0;
    int b = 0;
    double gain = 0.0;
  };
  std::vector<Edge> edges;
  const double scale = BundleScale(2, theta);
  {
    ScopedSpan span(tracer, "pricing.pairs", 0, parent);
    const auto start = Clock::now();
    for (const auto& [a, b] : pairs) {
      const std::size_t ia = static_cast<std::size_t>(a);
      const std::size_t ib = static_cast<std::size_t>(b);
      double gain = 0.0;
      if (pure) {
        const PricedOffer merged =
            PriceMergedPair(raw[ia], raw[ib], scale, pricer, &ws);
        gain = merged.revenue - revenue[ia] - revenue[ib];
      } else {
        const MergeSide sa{&raw[ia], 1.0, price[ia], &payments[ia]};
        const MergeSide sb{&raw[ib], 1.0, price[ib], &payments[ib]};
        const MergeGainResult r = mixed.MergeGain(sa, sb, scale, &ws);
        gain = r.feasible ? r.gain : 0.0;
      }
      if (gain > kGainEpsilon) edges.push_back(Edge{a, b, gain});
    }
    out.pair_s = SecondsSince(start);
  }
  out.positive_pairs = static_cast<std::int64_t>(edges.size());

  {
    ScopedSpan span(tracer, "matching.solve", 0, parent);
    const auto start = Clock::now();
    std::vector<int> vertex_of(n, -1);
    int vertices = 0;
    for (const Edge& e : edges) {
      for (int item : {e.a, e.b}) {
        int& v = vertex_of[static_cast<std::size_t>(item)];
        if (v < 0) v = vertices++;
      }
    }
    MaxWeightMatcher matcher(vertices);
    for (const Edge& e : edges) {
      matcher.AddEdge(vertex_of[static_cast<std::size_t>(e.a)],
                      vertex_of[static_cast<std::size_t>(e.b)], e.gain);
    }
    const MatchingResult matched = matcher.Solve();
    BM_CHECK(static_cast<int>(matched.mate.size()) == vertices);
    out.vertices = vertices;
    out.matching_s = SecondsSince(start);
  }
  return out;
}

MiningReplay ReplayMining(const WtpMatrix& wtp, Tracer* tracer, int parent) {
  MiningReplay out;
  TransactionDb db;
  {
    ScopedSpan span(tracer, "mining.txdb", 0, parent);
    const auto start = Clock::now();
    db = TransactionDb::FromWtp(wtp);
    out.txdb_s = SecondsSince(start);
  }
  MinerLimits limits;
  // The FreqItemset baseline's support: 0.1% of consumers, at least 5.
  limits.min_support_count = std::max(
      5, static_cast<int>(std::ceil(0.001 * wtp.num_users())));
  const auto start = Clock::now();
  limits.should_stop = [start] {
    return SecondsSince(start) > kMiningBudgetSeconds;
  };
  {
    ScopedSpan span(tracer, "mining.mafia", 0, parent);
    out.itemsets =
        static_cast<std::int64_t>(MineMaximalFrequent(db, limits).size());
    out.mafia_s = SecondsSince(start);
  }
  return out;
}

DeltaSource::DeltaSource(const RatingsDataset& dataset) {
  std::vector<std::vector<Rating>> by_item(
      static_cast<std::size_t>(dataset.num_items()));
  for (const Rating& r : dataset.ratings()) {
    by_item[static_cast<std::size_t>(r.item)].push_back(r);
  }
  for (std::vector<Rating>& ratings : by_item) {
    if (!ratings.empty()) by_item_.push_back(std::move(ratings));
  }
  BM_CHECK(!by_item_.empty());
}

std::vector<MarketDelta> DeltaSource::Next(Rng* rng) const {
  const std::vector<Rating>& ratings =
      by_item_[rng->UniformU32(static_cast<std::uint32_t>(by_item_.size()))];
  const Rating& picked =
      ratings[rng->UniformU32(static_cast<std::uint32_t>(ratings.size()))];
  MarketDelta restar;
  restar.op = MarketDeltaOp::kUpdateRating;
  restar.user = picked.user;
  restar.item = picked.item;
  restar.stars = static_cast<double>(rng->UniformInt(1, 5));
  MarketDelta reprice;
  reprice.op = MarketDeltaOp::kScalePrice;
  reprice.item = picked.item;
  // Factors around 1 keep prices in a steady band over a long run.
  reprice.value = rng->UniformDouble(0.95, 1.05);
  return {restar, reprice};
}

std::string DeltasJson(const std::vector<MarketDelta>& deltas) {
  JsonValue array = JsonValue::Array();
  for (const MarketDelta& d : deltas) {
    JsonValue row = JsonValue::Object();
    row.Set("op", JsonValue::Str(MarketDeltaOpName(d.op)));
    if (d.op == MarketDeltaOp::kUpdateRating) {
      row.Set("user", JsonValue::Int(d.user));
      row.Set("item", JsonValue::Int(d.item));
      row.Set("stars", JsonValue::Double(d.stars));
    } else {
      BM_CHECK(d.op == MarketDeltaOp::kScalePrice);
      row.Set("item", JsonValue::Int(d.item));
      row.Set("factor", JsonValue::Double(d.value));
    }
    array.Add(std::move(row));
  }
  return array.Dump(0);
}

MarketReplay ReplayMarket(const RatingsDataset& dataset, std::uint64_t seed,
                          int batches, Tracer* tracer, int parent) {
  MarketStream market("replay");
  BM_CHECK(market.Load(dataset).ok());
  (void)market.TakeSnapshot();  // Builds the load's snapshot, untimed.
  const DeltaSource source(dataset);
  Rng rng(seed);
  std::vector<double> apply_s;
  std::vector<double> snapshot_s;
  std::vector<double> dirty;
  for (int b = 0; b < batches; ++b) {
    const std::vector<MarketDelta> deltas = source.Next(&rng);
    const std::uint64_t before = market.version();
    {
      ScopedSpan span(tracer, "market.apply", b, parent);
      const auto start = Clock::now();
      const StatusOr<std::uint64_t> version = market.Apply(deltas);
      apply_s.push_back(SecondsSince(start));
      BM_CHECK(version.ok());
    }
    {
      ScopedSpan span(tracer, "market.snapshot", b, parent);
      const auto start = Clock::now();
      (void)market.TakeSnapshot();  // Timed for its cost alone.
      snapshot_s.push_back(SecondsSince(start));
    }
    const std::vector<char> touched = market.ItemsTouchedSince(before);
    dirty.push_back(static_cast<double>(std::count_if(
        touched.begin(), touched.end(), [](char t) { return t != 0; })));
  }
  return MarketReplay{Median(apply_s), Median(snapshot_s), Median(dirty)};
}

}  // namespace perfbench
