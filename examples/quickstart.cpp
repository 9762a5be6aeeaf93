// Quickstart: the paper's Table 1 worked example, end to end, through the
// bundlemine::Engine — the request/response facade every front end uses.
//
// Three consumers, two items (A and B), θ = −0.05:
//            w(u,A)   w(u,B)   w(u,{A,B})
//   u1       $12.00    $4.00     $15.20
//   u2        $8.00    $2.00      $9.50
//   u3        $5.00   $11.00     $15.20
//
// The program prices the three classic strategies and reproduces the paper's
// revenue column: Components $27.00, Pure bundling $30.40, and the mixed
// bundling numbers — both the paper's illustrative "bundle whenever
// affordable" reading of Table 1 and the upgrade-constrained incremental
// model of Section 4.2 that the algorithms actually optimize. It also shows
// the Engine's error contract: an unknown method key comes back as a typed
// Status listing the valid alternatives, never an abort.

#include <cstdio>

#include "api/engine.h"
#include "data/wtp_matrix.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"

using namespace bundlemine;

int main() {
  // ---- Build W directly from the Table 1 numbers. ----
  WtpMatrix wtp = WtpMatrix::FromTriplets(
      /*num_users=*/3, /*num_items=*/2,
      {{0, 0, 12.0}, {1, 0, 8.0}, {2, 0, 5.0},    // Item A.
       {0, 1, 4.0},  {1, 1, 2.0}, {2, 1, 11.0}},  // Item B.
      /*prices=*/{10.0, 10.0});
  const double theta = -0.05;

  BundleConfigProblem problem;
  problem.wtp = &wtp;
  problem.theta = theta;
  problem.price_levels = 0;  // Exact pricing for crisp dollar values.

  std::printf("Table 1 — three consumers, two items, theta = %.2f\n\n", theta);

  // ---- The Engine: one facade for every solve. ----
  Engine engine;
  SolveRequest request;
  request.problem = &problem;

  // ---- Components. ----
  request.method = "components";
  BundleSolution components = engine.Solve(request)->solution;
  std::printf("Components (via Engine::Solve):\n");
  for (const PricedBundle& o : components.offers) {
    std::printf("  item %s  price $%.2f  buyers %.0f  revenue $%.2f\n",
                o.items.ToString().c_str(), o.price, o.expected_buyers, o.revenue);
  }
  std::printf("  total revenue $%.2f   (paper: $27.00)\n\n",
              components.total_revenue);

  // ---- Pure bundling. ----
  OfferPricer pricer(AdoptionModel::Step(), 0);
  SparseWtpVector merged =
      SparseWtpVector::Merge(wtp.ItemVector(0), wtp.ItemVector(1));
  PricedOffer pure = pricer.PriceOffer(merged, 1.0 + theta);
  std::printf("Pure bundling {A,B}:\n");
  std::printf("  price $%.2f  buyers %.0f  revenue $%.2f   (paper: $30.40)\n\n",
              pure.price, pure.expected_buyers, pure.revenue);

  // ---- Mixed bundling, the paper's Table 1 illustration. ----
  // Offers: A at $8, B at $11, {A,B} at $15.20; a consumer takes the bundle
  // whenever her bundle WTP covers it, otherwise any affordable component.
  {
    double revenue = 0.0;
    double p_a = 8.0, p_b = 11.0, p_ab = 15.20;
    for (UserId u = 0; u < 3; ++u) {
      double wa = wtp.Value(u, 0), wb = wtp.Value(u, 1);
      double wab = (1.0 + theta) * (wa + wb);
      if (wab >= p_ab - 1e-9) {
        revenue += p_ab;
      } else {
        if (wa >= p_a) revenue += p_a;
        if (wb >= p_b) revenue += p_b;
      }
    }
    std::printf("Mixed bundling (Table 1 illustration, pA=8, pB=11, pAB=15.20):\n");
    std::printf("  total revenue $%.2f   (paper prints $38.20 — an arithmetic\n"
                "  slip: u1 and u3 buy the bundle at $15.20 and u2 buys A at\n"
                "  $8.00, totalling $38.40)\n\n", revenue);
  }

  // ---- Mixed bundling under the Section 4.2 upgrade semantics. ----
  // Components are priced first; the bundle price obeys p > max(pA,pB),
  // p < pA+pB, and a consumer only upgrades when the implicit price of the
  // "other" item is within her WTP. u1 notably does NOT take the $15.20
  // bundle: upgrading from A would price B at $7.20 > wu1,B = $4.
  {
    MixedPricer mixed(AdoptionModel::Step(), 0);
    SparseWtpVector a = wtp.ItemVector(0), b = wtp.ItemVector(1);
    SparseWtpVector pay_a = mixed.BuildStandalonePayments(a, 1.0, 8.0);
    SparseWtpVector pay_b = mixed.BuildStandalonePayments(b, 1.0, 11.0);
    MergeSide sa{&a, 1.0, 8.0, &pay_a};
    MergeSide sb{&b, 1.0, 11.0, &pay_b};
    MergeGainResult r = mixed.MergeGain(sa, sb, 1.0 + theta);
    std::printf("Mixed bundling (Section 4.2 incremental/upgrade model):\n");
    std::printf("  bundle price $%.2f, %.0f adopters, additional revenue $%.2f\n",
                r.bundle_price, r.expected_adopters, r.gain);
    std::printf("  total revenue $%.2f = $27.00 components + $%.2f bundle gain\n\n",
                components.total_revenue + r.gain, r.gain);
  }

  // ---- And the full algorithm, one request. ----
  request.method = "mixed-matching";
  StatusOr<SolveResponse> best = engine.Solve(request);
  std::printf("Engine::Solve(\"mixed-matching\") => total revenue $%.2f with "
              "%zu offers (%.4fs)\n",
              best->solution.total_revenue, best->solution.offers.size(),
              best->wall_seconds);
  for (const PricedBundle& o : best->solution.offers) {
    std::printf("  %-12s price $%.2f  %s\n", o.items.ToString().c_str(), o.price,
                o.is_component_offer ? "(component, still on sale)" : "(top-level)");
  }

  // ---- Typed errors instead of aborts. ----
  request.method = "no-such-method";
  StatusOr<SolveResponse> error = engine.Solve(request);
  std::printf("\nEngine::Solve(\"no-such-method\") => %s\n",
              error.status().ToString().c_str());
  return 0;
}
