// google-benchmark micro-kernels for the hot paths underneath every
// experiment: single-offer pricing (grid + exact, legacy vs workspace),
// mixed merge gain, sparse vector merging, bitmap support counting, blossom
// matching, and one enumeration step. Run with --benchmark_filter=... as
// usual.
//
// The *Workspace variants price through a reusable PricingWorkspace — the
// per-candidate path of the bundling algorithms. Every pricing benchmark
// reports an "allocs_per_op" counter (global operator-new count divided by
// iterations): the workspace paths must show 0 on the steady state, the
// legacy paths show the per-call vector churn they pay for convenience.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/offer_ops.h"
#include "data/generator.h"
#include "data/wtp_matrix.h"
#include "matching/max_weight_matching.h"
#include "mining/transactions.h"
#include "pricing/mixed_pricer.h"
#include "pricing/offer_pricer.h"
#include "pricing/pricing_kernels.h"
#include "pricing/pricing_workspace.h"
#include "util/rng.h"

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

// Count every heap allocation in the process. The default operator new[]
// forwards here, so array news are covered too.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bundlemine {
namespace {

std::int64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Runs the benchmark loop around `op` and reports allocations per iteration.
template <typename Op>
void LoopCountingAllocs(benchmark::State& state, Op op) {
  op();  // Warm scratch buffers to their high-water mark before measuring.
  std::int64_t before = AllocCount();
  for (auto _ : state) op();
  std::int64_t delta = AllocCount() - before;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(delta) / static_cast<double>(state.iterations()));
}

SparseWtpVector RandomAudience(Rng* rng, int size, double max_w = 25.0) {
  std::vector<WtpEntry> entries;
  entries.reserve(static_cast<std::size_t>(size));
  for (int u = 0; u < size; ++u) {
    entries.push_back(WtpEntry{u, rng->UniformDouble(0.5, max_w)});
  }
  return SparseWtpVector(std::move(entries));
}

void BM_PriceOfferGrid(benchmark::State& state) {
  Rng rng(1);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Step(), 100);
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferGrid)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_PriceOfferGridWorkspace(benchmark::State& state) {
  Rng rng(1);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0, &ws).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferGridWorkspace)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_PriceOfferExact(benchmark::State& state) {
  Rng rng(2);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Step(), 0);
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferExact)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_PriceOfferExactWorkspace(benchmark::State& state) {
  Rng rng(2);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Step(), 0);
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0, &ws).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferExactWorkspace)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_PriceOfferSigmoid(benchmark::State& state) {
  Rng rng(3);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Sigmoid(10.0), 100);
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferSigmoid)->Arg(128)->Arg(1024);

void BM_PriceOfferSigmoidWorkspace(benchmark::State& state) {
  Rng rng(3);
  SparseWtpVector audience = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Sigmoid(10.0), 100);
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(pricer.PriceOffer(audience, 1.0, &ws).revenue);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriceOfferSigmoidWorkspace)->Arg(128)->Arg(1024);

void BM_MixedMergeGain(benchmark::State& state) {
  Rng rng(4);
  SparseWtpVector a = RandomAudience(&rng, static_cast<int>(state.range(0)));
  SparseWtpVector b = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer item_pricer(AdoptionModel::Step(), 100);
  MixedPricer mixed(AdoptionModel::Step(), 100);
  double pa = item_pricer.PriceOffer(a, 1.0).price;
  double pb = item_pricer.PriceOffer(b, 1.0).price;
  SparseWtpVector pay_a = mixed.BuildStandalonePayments(a, 1.0, pa);
  SparseWtpVector pay_b = mixed.BuildStandalonePayments(b, 1.0, pb);
  MergeSide sa{&a, 1.0, pa, &pay_a};
  MergeSide sb{&b, 1.0, pb, &pay_b};
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(mixed.MergeGain(sa, sb, 1.0).gain);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MixedMergeGain)->Arg(16)->Arg(128)->Arg(1024);

void BM_MixedMergeGainWorkspace(benchmark::State& state) {
  Rng rng(4);
  SparseWtpVector a = RandomAudience(&rng, static_cast<int>(state.range(0)));
  SparseWtpVector b = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer item_pricer(AdoptionModel::Step(), 100);
  MixedPricer mixed(AdoptionModel::Step(), 100);
  double pa = item_pricer.PriceOffer(a, 1.0).price;
  double pb = item_pricer.PriceOffer(b, 1.0).price;
  SparseWtpVector pay_a = mixed.BuildStandalonePayments(a, 1.0, pa);
  SparseWtpVector pay_b = mixed.BuildStandalonePayments(b, 1.0, pb);
  MergeSide sa{&a, 1.0, pa, &pay_a};
  MergeSide sb{&b, 1.0, pb, &pay_b};
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(mixed.MergeGain(sa, sb, 1.0, &ws).gain);
  });
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MixedMergeGainWorkspace)->Arg(16)->Arg(128)->Arg(1024);

// A mixed FreqItemset candidate: MultiMergeGain over the audiences of the
// small profile's state.range(0) most-rated items (seed 1), each priced
// standalone, through a reused workspace. Items processed are side entries.
void BM_MultiMergeGain(benchmark::State& state) {
  const WtpMatrix wtp = WtpMatrix::FromRatings(
      GenerateAmazonLike(ProfileByName("small", 1)), 1.25);
  std::vector<ItemId> items(static_cast<std::size_t>(wtp.num_items()));
  for (ItemId i = 0; i < wtp.num_items(); ++i) {
    items[static_cast<std::size_t>(i)] = i;
  }
  std::sort(items.begin(), items.end(), [&](ItemId a, ItemId b) {
    const std::size_t na = wtp.ItemUsers(a).size();
    const std::size_t nb = wtp.ItemUsers(b).size();
    return na != nb ? na > nb : a < b;
  });
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  OfferPricer item_pricer(AdoptionModel::Step(), 100);
  MixedPricer mixed(AdoptionModel::Step(), 100);
  std::vector<SparseWtpVector> raw(m);
  std::vector<SparseWtpVector> pay(m);
  std::vector<MergeSide> sides(m);
  std::int64_t entries = 0;
  for (std::size_t j = 0; j < m; ++j) {
    raw[j] = wtp.ItemVector(items[j]);
    const double price = item_pricer.PriceOffer(raw[j], 1.0).price;
    pay[j] = mixed.BuildStandalonePayments(raw[j], 1.0, price);
    sides[j] = MergeSide{&raw[j], 1.0, price, &pay[j]};
    entries += static_cast<std::int64_t>(raw[j].nnz() + pay[j].nnz());
  }
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(mixed.MultiMergeGain(sides, 1.05, &ws).gain);
  });
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_MultiMergeGain)->Arg(2)->Arg(8)->Arg(22);

void BM_SparseMerge(benchmark::State& state) {
  Rng rng(5);
  SparseWtpVector a = RandomAudience(&rng, static_cast<int>(state.range(0)));
  SparseWtpVector b = RandomAudience(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseWtpVector::Merge(a, b).nnz());
  }
}
BENCHMARK(BM_SparseMerge)->Arg(128)->Arg(4096);

void BM_PriceMergedPair(benchmark::State& state) {
  Rng rng(6);
  SparseWtpVector a = RandomAudience(&rng, static_cast<int>(state.range(0)));
  SparseWtpVector b = RandomAudience(&rng, static_cast<int>(state.range(0)));
  OfferPricer pricer(AdoptionModel::Step(), 100);
  PricingWorkspace ws;
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(PriceMergedPair(a, b, 1.0, pricer, &ws).revenue);
  });
}
BENCHMARK(BM_PriceMergedPair)->Arg(16)->Arg(128)->Arg(1024);

void BM_BitmapSupport(benchmark::State& state) {
  Rng rng(7);
  int users = static_cast<int>(state.range(0));
  Bitset a(static_cast<std::size_t>(users)), b(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    if (rng.Bernoulli(0.1)) a.Set(static_cast<std::size_t>(u));
    if (rng.Bernoulli(0.1)) b.Set(static_cast<std::size_t>(u));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
  state.SetBytesProcessed(state.iterations() * users / 8);
}
BENCHMARK(BM_BitmapSupport)->Arg(1024)->Arg(65536);

// Args: vertices, edge density in percent. Weights are uniform in
// [0.1, 10), plus p_u + p_v for vertex popularities p uniform in [0, 1) when
// `popularity` is set.
void BlossomMatchingLoop(benchmark::State& state, bool popularity) {
  const int n = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  Rng rng(8);
  std::vector<double> pop(static_cast<std::size_t>(n), 0.0);
  if (popularity) {
    for (double& p : pop) p = rng.UniformDouble();
  }
  std::vector<std::tuple<int, int, double>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.UniformDouble() < density) {
        edges.emplace_back(u, v,
                           rng.UniformDouble(0.1, 10.0) + pop[static_cast<std::size_t>(u)] +
                               pop[static_cast<std::size_t>(v)]);
      }
    }
  }
  for (auto _ : state) {
    MaxWeightMatcher matcher(n);
    for (const auto& [u, v, w] : edges) matcher.AddEdge(u, v, w);
    benchmark::DoNotOptimize(matcher.Solve().total_weight);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
}

// 1500 vertices at 17% is the medium round-1 graph's size, dense enough that
// the matcher solves on its sparse core and certifies the rest; the small
// sparse graphs never form one. With uniform weights the core's matching is
// already optimal.
void BM_BlossomMatching(benchmark::State& state) { BlossomMatchingLoop(state, false); }
BENCHMARK(BM_BlossomMatching)
    ->Args({32, 10})
    ->Args({128, 10})
    ->Args({256, 10})
    ->Args({1500, 17})
    ->Unit(benchmark::kMillisecond);

// The same graph with popular vertices: their edges crowd the sparse core,
// so the core's matching misses optimal edges. The matcher repairs it in 2
// warm restarts that add 169 and then 7 edges, well under the 1/8 guard.
void BM_BlossomMatchingRepair(benchmark::State& state) { BlossomMatchingLoop(state, true); }
BENCHMARK(BM_BlossomMatchingRepair)->Args({1500, 17})->Unit(benchmark::kMillisecond);

// --- SIMD pricing-kernel pairs ---------------------------------------------
// Each kernel is measured twice over identical 4096-element inputs: through
// the scalar table (kernels::scalar::) and through the runtime dispatcher
// (wide backend when the host supports one). tools/bundlemine_kernel_gate
// reads the JSON output of these benchmarks — the `ns_per_op` /
// `bytes_per_op` counters and the `bundlemine_simd` context flag — and
// enforces the simd/scalar speedup floor plus an absolute-throughput
// baseline (tests/golden/kernel_baseline.json).

constexpr std::size_t kKernelN = 4096;

std::vector<double> KernelInput(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.UniformDouble(0.5, 25.0);
  return v;
}

// Runs `op` per iteration and reports ns/op and the kernel's memory traffic.
template <typename Op>
void KernelLoop(benchmark::State& state, std::size_t bytes_per_op, Op op) {
  for (auto _ : state) op();
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["bytes_per_op"] =
      benchmark::Counter(static_cast<double>(bytes_per_op));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelN));
}

void BM_KernelExactStep(benchmark::State& state, bool simd) {
  std::vector<double> v = KernelInput(11, kKernelN);
  std::sort(v.begin(), v.end(), std::greater<double>());
  KernelLoop(state, kKernelN * sizeof(double), [&] {
    const kernels::ExactStepResult r =
        simd ? kernels::ExactStepBest(v.data(), v.size())
             : kernels::scalar::ExactStepBest(v.data(), v.size());
    benchmark::DoNotOptimize(r.revenue);
  });
}
void BM_KernelExactStepScalar(benchmark::State& state) {
  BM_KernelExactStep(state, false);
}
void BM_KernelExactStepSimd(benchmark::State& state) {
  BM_KernelExactStep(state, true);
}
BENCHMARK(BM_KernelExactStepScalar);
BENCHMARK(BM_KernelExactStepSimd);

void BM_KernelMaxValue(benchmark::State& state, bool simd) {
  const std::vector<double> v = KernelInput(12, kKernelN);
  KernelLoop(state, kKernelN * sizeof(double), [&] {
    benchmark::DoNotOptimize(simd
                                 ? kernels::MaxValue(v.data(), v.size())
                                 : kernels::scalar::MaxValue(v.data(), v.size()));
  });
}
void BM_KernelMaxValueScalar(benchmark::State& state) {
  BM_KernelMaxValue(state, false);
}
void BM_KernelMaxValueSimd(benchmark::State& state) {
  BM_KernelMaxValue(state, true);
}
BENCHMARK(BM_KernelMaxValueScalar);
BENCHMARK(BM_KernelMaxValueSimd);

void BM_KernelBuckets(benchmark::State& state, bool simd) {
  const std::vector<double> v = KernelInput(13, kKernelN);
  const double max_w = kernels::scalar::MaxValue(v.data(), v.size());
  const int levels = 100;
  const double step = max_w / levels;
  std::vector<std::int32_t> out(kKernelN);
  KernelLoop(state, kKernelN * (sizeof(double) + sizeof(std::int32_t)), [&] {
    if (simd) {
      kernels::ComputeBuckets(v.data(), v.size(), 1.0, max_w, levels, step,
                              out.data());
    } else {
      kernels::scalar::ComputeBuckets(v.data(), v.size(), 1.0, max_w, levels,
                                      step, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  });
}
void BM_KernelBucketsScalar(benchmark::State& state) {
  BM_KernelBuckets(state, false);
}
void BM_KernelBucketsSimd(benchmark::State& state) {
  BM_KernelBuckets(state, true);
}
BENCHMARK(BM_KernelBucketsScalar);
BENCHMARK(BM_KernelBucketsSimd);

void BM_KernelSigmoidSum(benchmark::State& state, bool simd) {
  const std::vector<double> v = KernelInput(14, kKernelN);
  KernelLoop(state, kKernelN * sizeof(double), [&] {
    const double r =
        simd ? kernels::SigmoidAdoptionSum(v.data(), nullptr, v.size(), 10.0,
                                           0.9, 1e-6, 12.0)
             : kernels::scalar::SigmoidAdoptionSum(v.data(), nullptr, v.size(),
                                                   10.0, 0.9, 1e-6, 12.0);
    benchmark::DoNotOptimize(r);
  });
}
void BM_KernelSigmoidSumScalar(benchmark::State& state) {
  BM_KernelSigmoidSum(state, false);
}
void BM_KernelSigmoidSumSimd(benchmark::State& state) {
  BM_KernelSigmoidSum(state, true);
}
BENCHMARK(BM_KernelSigmoidSumScalar);
BENCHMARK(BM_KernelSigmoidSumSimd);

void BM_KernelMixedThresholds(benchmark::State& state, bool simd) {
  const std::vector<double> r1 = KernelInput(15, kKernelN);
  const std::vector<double> r2 = KernelInput(16, kKernelN);
  std::vector<double> out(kKernelN);
  KernelLoop(state, kKernelN * 3 * sizeof(double), [&] {
    if (simd) {
      kernels::MixedThresholds(r1.data(), r2.data(), kKernelN, 0.95, 1.05,
                               1.2, 8.0, 9.0, out.data());
    } else {
      kernels::scalar::MixedThresholds(r1.data(), r2.data(), kKernelN, 0.95,
                                       1.05, 1.2, 8.0, 9.0, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  });
}
void BM_KernelMixedThresholdsScalar(benchmark::State& state) {
  BM_KernelMixedThresholds(state, false);
}
void BM_KernelMixedThresholdsSimd(benchmark::State& state) {
  BM_KernelMixedThresholds(state, true);
}
BENCHMARK(BM_KernelMixedThresholdsScalar);
BENCHMARK(BM_KernelMixedThresholdsSimd);

void BM_KernelMixedSigmoid(benchmark::State& state, bool simd) {
  const std::vector<double> r1 = KernelInput(17, kKernelN);
  const std::vector<double> r2 = KernelInput(18, kKernelN);
  const std::vector<double> base = KernelInput(19, kKernelN);
  std::vector<double> aw1(kKernelN), aw2(kKernelN), awb(kKernelN);
  kernels::scalar::MixedEffectiveColumns(r1.data(), r2.data(), kKernelN, 0.95,
                                         1.05, 1.2, aw1.data(), aw2.data(),
                                         awb.data());
  KernelLoop(state, kKernelN * 4 * sizeof(double), [&] {
    const kernels::MixedSigmoidResult r =
        simd ? kernels::MixedSigmoidEval(aw1.data(), aw2.data(), awb.data(),
                                         base.data(), kKernelN, 12.0, 8.0, 9.0,
                                         10.0, 1e-6, false)
             : kernels::scalar::MixedSigmoidEval(
                   aw1.data(), aw2.data(), awb.data(), base.data(), kKernelN,
                   12.0, 8.0, 9.0, 10.0, 1e-6, false);
    benchmark::DoNotOptimize(r.gain);
  });
}
void BM_KernelMixedSigmoidScalar(benchmark::State& state) {
  BM_KernelMixedSigmoid(state, false);
}
void BM_KernelMixedSigmoidSimd(benchmark::State& state) {
  BM_KernelMixedSigmoid(state, true);
}
BENCHMARK(BM_KernelMixedSigmoidScalar);
BENCHMARK(BM_KernelMixedSigmoidSimd);

void BM_GeneratorTiny(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateAmazonLike(TinyProfile(seed++)).num_items());
  }
}
BENCHMARK(BM_GeneratorTiny)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bundlemine

// Custom main (instead of BENCHMARK_MAIN) so the JSON output records which
// kernel backend actually ran — the throughput gate skips the speedup check
// on hosts without a wide backend.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "bundlemine_simd",
      bundlemine::kernels::WideAvailable() ? "wide" : "scalar");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
