#include "core/solvers.h"

#include <bit>

#include "ilp/bundle_enumeration.h"
#include "ilp/partition_dp.h"
#include "pricing/offer_pricer.h"
#include "util/check.h"

namespace bundlemine {
namespace {

// Prices one mask and fills a PricedBundle (re-pricing selected masks is
// cheap relative to the enumeration).
PricedBundle PriceMask(const WtpMatrix& wtp, double theta,
                       const OfferPricer& pricer, std::uint32_t mask,
                       PricingWorkspace* ws) {
  Bundle items = Bundle::FromMask(mask);
  SparseWtpVector raw;
  for (ItemId i : items.items()) {
    raw = SparseWtpVector::Merge(raw, wtp.ItemVector(i));
  }
  PricedOffer priced = pricer.PriceOffer(raw, BundleScale(items.size(), theta), ws);
  PricedBundle pb;
  pb.items = std::move(items);
  pb.price = priced.price;
  pb.revenue = priced.revenue;
  pb.expected_buyers = priced.expected_buyers;
  return pb;
}

BundleSolution AssembleFromMasks(const BundleConfigProblem& problem,
                                 const std::vector<std::uint32_t>& masks,
                                 PricingWorkspace* ws) {
  const WtpMatrix& wtp = *problem.wtp;
  OfferPricer pricer(problem.adoption, problem.price_levels);
  BundleSolution solution;

  std::uint32_t used = 0;
  for (std::uint32_t mask : masks) {
    BM_CHECK_EQ(mask & used, 0u);
    used |= mask;
    PricedBundle pb = PriceMask(wtp, problem.theta, pricer, mask, ws);
    solution.total_revenue += pb.revenue;
    solution.offers.push_back(std::move(pb));
  }
  // Cover leftovers (zero-revenue items) as singletons to form a partition.
  for (int i = 0; i < wtp.num_items(); ++i) {
    if ((used >> i) & 1u) continue;
    PricedBundle pb = PriceMask(wtp, problem.theta, pricer, 1u << i, ws);
    solution.total_revenue += pb.revenue;
    solution.offers.push_back(std::move(pb));
  }
  return solution;
}

}  // namespace

BundleSolution SolveOptimalWsp(const BundleConfigProblem& problem,
                               SolveContext& context) {
  BM_CHECK(problem.wtp != nullptr);
  BM_CHECK_MSG(problem.strategy == BundlingStrategy::kPure,
               "weighted set packing is defined for pure bundling only");
  BM_CHECK_MSG(problem.wtp->num_items() <= 20,
               "optimal WSP is infeasible beyond 20 items (paper: 25 already "
               "exhausts 70 GB)");
  StopCondition should_stop = DeadlineStopCondition(context);
  OfferPricer pricer(problem.adoption, problem.price_levels);
  BundleEnumeration enumeration =
      EnumerateAllBundles(*problem.wtp, problem.theta, pricer,
                          &context.workspace(), should_stop);
  PartitionResult partition =
      SolveOptimalPartition(enumeration.revenue, problem.wtp->num_items(),
                            problem.max_bundle_size, should_stop);
  return AssembleFromMasks(problem, partition.bundles, &context.workspace());
}

BundleSolution SolveGreedyWsp(const BundleConfigProblem& problem,
                              SolveContext& context, bool average_per_item) {
  BM_CHECK(problem.wtp != nullptr);
  BM_CHECK_MSG(problem.strategy == BundlingStrategy::kPure,
               "weighted set packing is defined for pure bundling only");
  BM_CHECK_LE(problem.wtp->num_items(), 25);
  StopCondition should_stop = DeadlineStopCondition(context);
  OfferPricer pricer(problem.adoption, problem.price_levels);
  BundleEnumeration enumeration =
      EnumerateAllBundles(*problem.wtp, problem.theta, pricer,
                          &context.workspace(), should_stop);
  // Apply the size cap by zeroing oversized bundles before the greedy pass.
  std::vector<double>& revenue = enumeration.revenue;
  if (problem.max_bundle_size > 0) {
    for (std::uint32_t mask = 1; mask < revenue.size(); ++mask) {
      if (std::popcount(mask) > problem.max_bundle_size) revenue[mask] = 0.0;
    }
  }
  std::vector<std::uint32_t> masks = GreedyWspOverMasks(
      revenue, problem.wtp->num_items(), average_per_item, should_stop);
  return AssembleFromMasks(problem, masks, &context.workspace());
}

}  // namespace bundlemine
