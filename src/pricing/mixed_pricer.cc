#include "pricing/mixed_pricer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "pricing/price_grid.h"
#include "pricing/pricing_kernels.h"
#include "util/check.h"

namespace bundlemine {
namespace {

// Strictness margin for the open price window (p > max(p1,p2), p < p1+p2)
// and for positive-gain feasibility.
constexpr double kMargin = 1e-9;

// Forward cursor over a payment vector for queries in ascending user order.
// Entries are strictly sorted by id, so each query returns the entry's value
// (0 when the user is absent) with amortized O(1) work instead of a binary
// search over the whole vector.
class PaymentCursor {
 public:
  explicit PaymentCursor(const SparseWtpVector& payments)
      : it_(payments.entries().data()), end_(it_ + payments.nnz()) {}

  double At(std::int32_t user) {
    while (it_ != end_ && it_->id < user) ++it_;
    return it_ != end_ && it_->id == user ? it_->w : 0.0;
  }

 private:
  const WtpEntry* it_;
  const WtpEntry* end_;
};

// One forward merge over the two sides' raw supports in ascending user
// order: calls fn(user, raw1, raw2, base) per consumer of the union, where a
// side's raw WTP reads 0 when the consumer is absent from it and `base` is
// the consumer's payment on side 1 plus side 2 (read by one PaymentCursor
// per side).
template <typename Fn>
void ForEachJointConsumer(const MergeSide& side1, const MergeSide& side2,
                          Fn&& fn) {
  const std::vector<WtpEntry>& ea = side1.raw->entries();
  const std::vector<WtpEntry>& eb = side2.raw->entries();
  PaymentCursor pay1(*side1.payments);
  PaymentCursor pay2(*side2.payments);
  std::size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    std::int32_t user = 0;
    double raw1 = 0.0;
    double raw2 = 0.0;
    if (j == eb.size() || (i < ea.size() && ea[i].id < eb[j].id)) {
      user = ea[i].id;
      raw1 = ea[i++].w;
    } else if (i == ea.size() || eb[j].id < ea[i].id) {
      user = eb[j].id;
      raw2 = eb[j++].w;
    } else {
      user = ea[i].id;
      raw1 = ea[i++].w;
      raw2 = eb[j++].w;
    }
    fn(user, raw1, raw2, pay1.At(user) + pay2.At(user));
  }
}

// Stages the joint audience of the two sides into the workspace SoA columns
// (per-side raw WTP plus forgone base payment, one slot per consumer in
// ascending user-id order) and returns its size. When both sides carry a
// dense view, the join iterates the support-union bitset over the dense
// columns; otherwise it is one forward merge over the sparse vectors. Both
// produce the same values in the same order (absent entries read as +0.0).
std::size_t StageJointAudience(const MergeSide& side1, const MergeSide& side2,
                               PricingWorkspace* ws) {
  std::vector<double>& r1 = ws->soa_raw1;
  std::vector<double>& r2 = ws->soa_raw2;
  std::vector<double>& base = ws->soa_base;
  r1.clear();
  r2.clear();
  base.clear();
  if (side1.has_dense_view() && side2.has_dense_view()) {
    const std::span<const std::uint64_t> wa = side1.support->words();
    const std::span<const std::uint64_t> wb = side2.support->words();
    BM_DCHECK(wa.size() == wb.size());
    for (std::size_t k = 0; k < wa.size(); ++k) {
      std::uint64_t word = wa[k] | wb[k];
      while (word != 0) {
        const std::size_t u =
            (k << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        r1.push_back(side1.wtp_col[u]);
        r2.push_back(side2.wtp_col[u]);
        base.push_back(side1.payments_col[u] + side2.payments_col[u]);
      }
    }
    return r1.size();
  }
  ForEachJointConsumer(side1, side2,
                       [&](std::int32_t, double raw1, double raw2, double b) {
                         r1.push_back(raw1);
                         r2.push_back(raw2);
                         base.push_back(b);
                       });
  return r1.size();
}

// Exact step-model optimizer shared by the pair and multi-component paths:
// the gain-maximizing price is one of the per-consumer adoption thresholds
// inside the open window (pmax, psum). Sorts `threshold_base` in place.
MergeGainResult ExactStepGain(
    std::vector<std::pair<double, double>>* threshold_base, double pmax,
    double psum) {
  std::sort(threshold_base->begin(), threshold_base->end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  MergeGainResult best;
  double count = 0.0;
  double base_sum = 0.0;
  for (std::size_t i = 0; i < threshold_base->size(); ++i) {
    count += 1.0;
    base_sum += (*threshold_base)[i].second;
    // Price at this threshold keeps consumers 0..i as adopters.
    double p = (*threshold_base)[i].first;
    if (i + 1 < threshold_base->size() && (*threshold_base)[i + 1].first == p) {
      continue;  // Equal thresholds: evaluate once with the full count.
    }
    if (p <= pmax + kMargin || p >= psum - kMargin) continue;
    double gain = p * count - base_sum;
    if (gain > best.gain) {
      best.gain = gain;
      best.bundle_price = p;
      best.expected_adopters = count;
    }
  }
  best.feasible = best.gain > kMargin;
  if (!best.feasible) best = MergeGainResult{};
  return best;
}

}  // namespace

MixedPricer::MixedPricer(AdoptionModel model, int num_levels,
                         MixedComposition composition)
    : model_(model), num_levels_(num_levels), composition_(composition) {
  BM_CHECK_GE(num_levels, 0);
  if (num_levels == 0) {
    BM_CHECK_MSG(model.is_step(), "exact pricing requires the step model");
  }
}

MergeGainResult MixedPricer::MergeGain(const MergeSide& side1,
                                       const MergeSide& side2,
                                       double merged_scale) const {
  PricingWorkspace ws;
  return MergeGain(side1, side2, merged_scale, &ws);
}

MergeGainResult MixedPricer::MergeGain(const MergeSide& side1,
                                       const MergeSide& side2,
                                       double merged_scale,
                                       PricingWorkspace* ws) const {
  BM_CHECK(side1.raw != nullptr && side2.raw != nullptr);
  BM_CHECK(side1.payments != nullptr && side2.payments != nullptr);
  MergeGainResult infeasible;
  // A side that sells nothing (price 0) cannot anchor the constraint window;
  // such merges are meaningless under the incremental policy.
  if (side1.price <= 0.0 || side2.price <= 0.0) return infeasible;
  if (side1.raw->empty() && side2.raw->empty()) return infeasible;
  if (model_.is_step()) return MergeGainStep(side1, side2, merged_scale, ws);
  return MergeGainSigmoid(side1, side2, merged_scale, ws);
}

MergeGainResult MixedPricer::MergeGainStep(const MergeSide& side1,
                                           const MergeSide& side2,
                                           double merged_scale,
                                           PricingWorkspace* ws) const {
  const double p1 = side1.price;
  const double p2 = side2.price;
  const double psum = p1 + p2;
  const double pmax = std::max(p1, p2);
  const double alpha = model_.alpha();
  // Left-associated like the historical per-consumer expressions
  // α·scale·raw, so the precomputed products round identically.
  const double a1 = alpha * side1.scale;
  const double a2 = alpha * side2.scale;
  const double ab = alpha * merged_scale;

  // Per-consumer adoption threshold: the bundle must be affordable and beat
  // the upgrade path through either component — min(awb, p1+aw2, p2+aw1).
  const std::size_t n = StageJointAudience(side1, side2, ws);
  ws->thresholds.resize(n);
  kernels::MixedThresholds(ws->soa_raw1.data(), ws->soa_raw2.data(), n, a1, a2,
                           ab, p1, p2, ws->thresholds.data());

  if (num_levels_ == 0) {
    ws->threshold_base.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ws->threshold_base.emplace_back(ws->thresholds[i], ws->soa_base[i]);
    }
    return ExactStepGain(&ws->threshold_base, pmax, psum);
  }

  UniformPriceView grid(psum, num_levels_);
  // Admissible level indices: strictly above both component prices, strictly
  // below their sum.
  int lo = 0;
  while (lo < grid.size() && grid.level(lo) <= pmax + kMargin) ++lo;
  int hi = grid.size() - 1;
  while (hi >= 0 && grid.level(hi) >= psum - kMargin) --hi;
  MergeGainResult best;
  if (lo > hi) return best;

  // Bucket thresholds in the vector kernel, scatter scalar in join order;
  // markers < 0 (below grid or non-positive threshold) never adopt.
  ws->buckets.resize(n);
  kernels::ComputeBuckets(ws->thresholds.data(), n, /*alpha=*/1.0, psum,
                          grid.size(), grid.step(), ws->buckets.data());
  ws->suffix_count.assign(static_cast<std::size_t>(grid.size()) + 1, 0.0);
  ws->suffix_base.assign(static_cast<std::size_t>(grid.size()) + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t bucket = ws->buckets[i];
    if (bucket < 0) continue;
    ws->suffix_count[static_cast<std::size_t>(bucket)] += 1.0;
    ws->suffix_base[static_cast<std::size_t>(bucket)] += ws->soa_base[i];
  }
  for (int t = grid.size() - 1; t >= 0; --t) {
    ws->suffix_count[static_cast<std::size_t>(t)] +=
        ws->suffix_count[static_cast<std::size_t>(t) + 1];
    ws->suffix_base[static_cast<std::size_t>(t)] +=
        ws->suffix_base[static_cast<std::size_t>(t) + 1];
  }

  for (int t = lo; t <= hi; ++t) {
    double p = grid.level(t);
    double gain = p * ws->suffix_count[static_cast<std::size_t>(t)] -
                  ws->suffix_base[static_cast<std::size_t>(t)];
    if (gain > best.gain) {
      best.gain = gain;
      best.bundle_price = p;
      best.expected_adopters = ws->suffix_count[static_cast<std::size_t>(t)];
    }
  }
  best.feasible = best.gain > kMargin;
  if (!best.feasible) {
    best.gain = 0.0;
    best.bundle_price = 0.0;
    best.expected_adopters = 0.0;
  }
  return best;
}

MergeGainResult MixedPricer::MultiMergeGain(const std::vector<MergeSide>& sides,
                                            double merged_scale) const {
  PricingWorkspace ws;
  return MultiMergeGain(sides, merged_scale, &ws);
}

MergeGainResult MixedPricer::MultiMergeGain(const std::vector<MergeSide>& sides,
                                            double merged_scale,
                                            PricingWorkspace* ws) const {
  BM_CHECK_GE(sides.size(), 2u);
  MergeGainResult infeasible;
  double psum = 0.0;
  double pmax = 0.0;
  for (const MergeSide& s : sides) {
    BM_CHECK(s.raw != nullptr && s.payments != nullptr);
    if (s.price <= 0.0) return infeasible;
    psum += s.price;
    pmax = std::max(pmax, s.price);
  }
  const double alpha = model_.alpha();
  const std::size_t m = sides.size();

  // Gather the union of supports with per-side effective WTP rows, flattened
  // into the workspace: stride doubles per user laid out as
  //   [w_0 … w_{m-1} | Σ_j w_j | α·scale_b·Σ_j raw_j | base payment].
  const std::vector<std::int32_t>& users = ws->users;
  ws->StageUnion(m, [&](std::size_t j) -> const SparseWtpVector& {
    return *sides[j].raw;
  });

  const std::size_t stride = m + 3;
  const std::size_t kSum = m;
  const std::size_t kBundle = m + 1;
  const std::size_t kBase = m + 2;
  std::vector<double>& rows = ws->consumer_state;
  rows.assign(users.size() * stride, 0.0);
  // Each entry finds its row through the union's id → row map. Sides are
  // placed in order, so every row accumulates its raw total and base in
  // side order. Payments of consumers outside the support union are
  // skipped. A consumer absent from a side's payments adds nothing to the
  // row's base, which starts at +0.0 and only accumulates, so the sum
  // equals adding that side's 0 explicitly.
  for (std::size_t j = 0; j < m; ++j) {
    const double aj = alpha * sides[j].scale;
    for (const WtpEntry& e : sides[j].raw->entries()) {
      double* row = &rows[static_cast<std::size_t>(ws->RowOf(e.id)) * stride];
      row[j] = aj * e.w;
      row[kBundle] += e.w;  // Raw total, rescaled below.
    }
    for (const WtpEntry& e : sides[j].payments->entries()) {
      const std::int32_t r = ws->RowOf(e.id);
      if (r >= 0) rows[static_cast<std::size_t>(r) * stride + kBase] += e.w;
    }
  }
  ws->ReleaseUnion();
  for (std::size_t u = 0; u < users.size(); ++u) {
    double* row = &rows[u * stride];
    double sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) sum += row[j];
    row[kSum] = sum;
    row[kBundle] = alpha * merged_scale * row[kBundle];
  }

  if (model_.is_step() && num_levels_ == 0) {
    ws->threshold_base.clear();
    for (std::size_t u = 0; u < users.size(); ++u) {
      const double* row = &rows[u * stride];
      double t = row[kBundle];
      for (std::size_t j = 0; j < m; ++j) {
        t = std::min(t, sides[j].price + (row[kSum] - row[j]));
      }
      ws->threshold_base.emplace_back(t, row[kBase]);
    }
    return ExactStepGain(&ws->threshold_base, pmax, psum);
  }

  UniformPriceView grid(psum, num_levels_);
  int lo = 0;
  while (lo < grid.size() && grid.level(lo) <= pmax + kMargin) ++lo;
  int hi = grid.size() - 1;
  while (hi >= 0 && grid.level(hi) >= psum - kMargin) --hi;
  MergeGainResult best;
  if (lo > hi) return best;

  if (model_.is_step()) {
    // Bucket per-user adoption thresholds, as in MergeGainStep.
    ws->suffix_count.assign(static_cast<std::size_t>(grid.size()) + 1, 0.0);
    ws->suffix_base.assign(static_cast<std::size_t>(grid.size()) + 1, 0.0);
    for (std::size_t u = 0; u < users.size(); ++u) {
      const double* row = &rows[u * stride];
      double t = row[kBundle];
      for (std::size_t j = 0; j < m; ++j) {
        t = std::min(t, sides[j].price + (row[kSum] - row[j]));
      }
      int bucket = grid.BucketFor(t);
      if (bucket < 0) continue;
      ws->suffix_count[static_cast<std::size_t>(bucket)] += 1.0;
      ws->suffix_base[static_cast<std::size_t>(bucket)] += row[kBase];
    }
    for (int t = grid.size() - 1; t >= 0; --t) {
      ws->suffix_count[static_cast<std::size_t>(t)] +=
          ws->suffix_count[static_cast<std::size_t>(t) + 1];
      ws->suffix_base[static_cast<std::size_t>(t)] +=
          ws->suffix_base[static_cast<std::size_t>(t) + 1];
    }
    for (int t = lo; t <= hi; ++t) {
      double p = grid.level(t);
      double gain = p * ws->suffix_count[static_cast<std::size_t>(t)] -
                    ws->suffix_base[static_cast<std::size_t>(t)];
      if (gain > best.gain) {
        best.gain = gain;
        best.bundle_price = p;
        best.expected_adopters = ws->suffix_count[static_cast<std::size_t>(t)];
      }
    }
  } else {
    for (int t = lo; t <= hi; ++t) {
      double p = grid.level(t);
      double gain = 0.0;
      double adopters = 0.0;
      for (std::size_t u = 0; u < users.size(); ++u) {
        const double* row = &rows[u * stride];
        double min_slack = row[kBundle] - p;
        double prob_product = model_.ProbabilityFromSlack(min_slack);
        for (std::size_t j = 0; j < m; ++j) {
          double slack = (row[kSum] - row[j]) - (p - sides[j].price);
          min_slack = std::min(min_slack, slack);
          if (composition_ == MixedComposition::kProduct) {
            prob_product *= model_.ProbabilityFromSlack(slack);
          }
        }
        double prob = composition_ == MixedComposition::kMinSlack
                          ? model_.ProbabilityFromSlack(min_slack)
                          : prob_product;
        adopters += prob;
        gain += prob * (p - row[kBase]);
      }
      if (gain > best.gain) {
        best.gain = gain;
        best.bundle_price = p;
        best.expected_adopters = adopters;
      }
    }
  }
  best.feasible = best.gain > kMargin;
  if (!best.feasible) best = MergeGainResult{};
  return best;
}

SparseWtpVector MixedPricer::BuildStandalonePayments(const SparseWtpVector& raw,
                                                     double scale,
                                                     double price) const {
  std::vector<WtpEntry> entries;
  if (price <= 0.0) return SparseWtpVector(std::move(entries));
  for (const WtpEntry& e : raw.entries()) {
    double slack = model_.alpha() * scale * e.w - price;
    double pay = price * model_.ProbabilityFromSlack(slack);
    if (pay > 0.0) entries.push_back(WtpEntry{e.id, pay});
  }
  return SparseWtpVector(std::move(entries));
}

SparseWtpVector MixedPricer::BuildMergedPayments(const MergeSide& side1,
                                                 const MergeSide& side2,
                                                 double merged_scale,
                                                 double price) const {
  BM_CHECK(side1.raw != nullptr && side2.raw != nullptr);
  BM_CHECK(side1.payments != nullptr && side2.payments != nullptr);
  const double alpha = model_.alpha();
  const double p1 = side1.price;
  const double p2 = side2.price;
  std::vector<WtpEntry> entries;
  ForEachJointConsumer(side1, side2, [&](std::int32_t user, double raw1,
                                         double raw2, double keep) {
    double aw1 = alpha * side1.scale * raw1;
    double aw2 = alpha * side2.scale * raw2;
    double awb = alpha * merged_scale * (raw1 + raw2);
    double pay;
    if (model_.is_step()) {
      double t = std::min(awb, std::min(p1 + aw2, p2 + aw1));
      pay = (t >= price - kMargin) ? price : keep;
    } else {
      double slack_afford = awb - price;
      double slack_up1 = aw2 - (price - p1);
      double slack_up2 = aw1 - (price - p2);
      double prob;
      if (composition_ == MixedComposition::kMinSlack) {
        prob = model_.ProbabilityFromSlack(
            std::min(slack_afford, std::min(slack_up1, slack_up2)));
      } else {
        prob = model_.ProbabilityFromSlack(slack_afford) *
               model_.ProbabilityFromSlack(slack_up1) *
               model_.ProbabilityFromSlack(slack_up2);
      }
      pay = prob * price + (1.0 - prob) * keep;
    }
    if (pay > 0.0) entries.push_back(WtpEntry{user, pay});
  });
  return SparseWtpVector(std::move(entries));
}

MergeGainResult MixedPricer::MergeGainSigmoid(const MergeSide& side1,
                                              const MergeSide& side2,
                                              double merged_scale,
                                              PricingWorkspace* ws) const {
  const double p1 = side1.price;
  const double p2 = side2.price;
  const double psum = p1 + p2;
  const double pmax = std::max(p1, p2);
  const double alpha = model_.alpha();

  UniformPriceView grid(psum, num_levels_);
  int lo = 0;
  while (lo < grid.size() && grid.level(lo) <= pmax + kMargin) ++lo;
  int hi = grid.size() - 1;
  while (hi >= 0 && grid.level(hi) >= psum - kMargin) --hi;
  MergeGainResult best;
  if (lo > hi) return best;

  // Precompute per-consumer effective-WTP columns (independent of the bundle
  // price) as SoA arrays, then scan the admissible prices through the
  // vectorized per-price kernel.
  const std::size_t n = StageJointAudience(side1, side2, ws);
  const double a1 = alpha * side1.scale;
  const double a2 = alpha * side2.scale;
  const double ab = alpha * merged_scale;
  ws->soa_aw1.resize(n);
  ws->soa_aw2.resize(n);
  ws->soa_awb.resize(n);
  kernels::MixedEffectiveColumns(ws->soa_raw1.data(), ws->soa_raw2.data(), n,
                                 a1, a2, ab, ws->soa_aw1.data(),
                                 ws->soa_aw2.data(), ws->soa_awb.data());

  const bool product = composition_ == MixedComposition::kProduct;
  for (int t = lo; t <= hi; ++t) {
    const double p = grid.level(t);
    const kernels::MixedSigmoidResult r = kernels::MixedSigmoidEval(
        ws->soa_aw1.data(), ws->soa_aw2.data(), ws->soa_awb.data(),
        ws->soa_base.data(), n, p, p1, p2, model_.gamma(), model_.epsilon(),
        product);
    if (r.gain > best.gain) {
      best.gain = r.gain;
      best.bundle_price = p;
      best.expected_adopters = r.adopters;
    }
  }
  best.feasible = best.gain > kMargin;
  if (!best.feasible) {
    best.gain = 0.0;
    best.bundle_price = 0.0;
    best.expected_adopters = 0.0;
  }
  return best;
}

}  // namespace bundlemine
