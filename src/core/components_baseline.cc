#include "core/solvers.h"

#include "pricing/offer_pricer.h"
#include "util/check.h"
#include "util/timer.h"

namespace bundlemine {

BundleSolution SolveComponents(const BundleConfigProblem& problem,
                               SolveContext& context, ComponentPricing pricing) {
  BM_CHECK(problem.wtp != nullptr);
  const WtpMatrix& wtp = *problem.wtp;
  WallTimer timer;
  OfferPricer pricer(problem.adoption, problem.price_levels);

  BundleSolution solution;
  solution.offers.reserve(static_cast<std::size_t>(wtp.num_items()));
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    SparseWtpVector raw = wtp.ItemVector(i);
    PricedBundle offer;
    offer.items = Bundle::Of(i);
    if (pricing == ComponentPricing::kOptimal) {
      PricedOffer priced = pricer.PriceOffer(raw, /*scale=*/1.0, &context.workspace());
      offer.price = priced.price;
      offer.revenue = priced.revenue;
      offer.expected_buyers = priced.expected_buyers;
    } else {
      BM_CHECK_MSG(wtp.has_prices(), "list-price policy requires item prices");
      double p = wtp.ListPrice(i);
      offer.price = p;
      offer.expected_buyers = pricer.ExpectedBuyersAt(raw, /*scale=*/1.0, p);
      offer.revenue = p * offer.expected_buyers;
    }
    solution.total_revenue += offer.revenue;
    solution.offers.push_back(std::move(offer));
  }
  solution.trace.push_back(IterationStat{0, solution.total_revenue,
                                         timer.Seconds(),
                                         static_cast<int>(solution.offers.size())});
  return solution;
}

}  // namespace bundlemine
