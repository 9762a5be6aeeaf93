// Layer replays for the traced run. A solve's pricing/matching split cannot
// be seen from outside the Engine, so after the timed phase the traced run
// replays the layers on the workload's own inputs through their public
// headers, under spans:
//
//   * Algorithm 1, round 1: WtpMatrix::CoInterestedPairs, OfferPricer
//     singleton pricing, pair pricing (PriceMergedPair for pure bundling,
//     MixedPricer::MergeGain for mixed), MaxWeightMatcher over the
//     positive-gain graph;
//   * mining: TransactionDb::FromWtp plus MineMaximalFrequent at the
//     FreqItemset baseline's support;
//   * market: MarketStream::Apply of two-delta batches plus TakeSnapshot.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/problem.h"
#include "data/ratings.h"
#include "data/wtp_matrix.h"
#include "market/market_delta.h"
#include "util/rng.h"

namespace perfbench {

struct RoundOneReplay {
  std::int64_t coint_pairs = 0;
  double coint_pairs_s = 0.0;
  double singleton_s = 0.0;
  double pair_s = 0.0;
  std::int64_t positive_pairs = 0;
  int vertices = 0;
  double matching_s = 0.0;
};

/// Replays round 1 of Algorithm 1 (serially) on `wtp` at bundling
/// coefficient `theta`, under spans parented to `parent`.
RoundOneReplay ReplayRoundOne(const bundlemine::WtpMatrix& wtp, double theta,
                              bundlemine::BundlingStrategy strategy,
                              Tracer* tracer, int parent);

struct MiningReplay {
  double txdb_s = 0.0;
  double mafia_s = 0.0;
  std::int64_t itemsets = 0;
};

/// Builds the transaction view of `wtp` and mines its maximal frequent
/// itemsets at the FreqItemset baseline's default support.
MiningReplay ReplayMining(const bundlemine::WtpMatrix& wtp, Tracer* tracer,
                          int parent);

/// Seed-driven source of two-delta batches on one item: the item is drawn
/// uniformly, one of its ratings gets new stars and its price is scaled.
/// Drawing items (not ratings) keeps popular items from dominating the
/// stream, which keeps the re-solve work per batch steady. Every batch is
/// valid against any state derived from `dataset` by such batches (ratings
/// are never removed), so a run never produces a failing update.
class DeltaSource {
 public:
  explicit DeltaSource(const bundlemine::RatingsDataset& dataset);
  std::vector<bundlemine::MarketDelta> Next(bundlemine::Rng* rng) const;

 private:
  std::vector<std::vector<bundlemine::Rating>> by_item_;  // Rated items only.
};

/// The wire form of a delta batch: a JSON array of delta objects.
std::string DeltasJson(const std::vector<bundlemine::MarketDelta>& deltas);

struct MarketReplay {
  double apply_s = 0.0;
  double snapshot_s = 0.0;
  double dirty_items = 0.0;
};

/// Loads `dataset` into a fresh MarketStream and times `batches` two-delta
/// batches: Apply, TakeSnapshot, and the items each batch dirtied (medians).
MarketReplay ReplayMarket(const bundlemine::RatingsDataset& dataset,
                          std::uint64_t seed, int batches, Tracer* tracer,
                          int parent);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
