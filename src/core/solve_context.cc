#include "core/solve_context.h"

namespace bundlemine {

SolveContext::SolveContext(const Options& options)
    : options_(options), rng_(options.seed) {
  const int slots = options_.num_threads > 1 ? options_.num_threads : 1;
  workspaces_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    workspaces_.push_back(std::make_unique<PricingWorkspace>());
  }
}

std::function<bool()> DeadlineStopCondition(SolveContext& context) {
  if (context.options().deadline_seconds <= 0.0) return nullptr;
  return [&context] {
    if (!context.DeadlineExceeded()) return false;
    context.stats().deadline_hit = true;
    return true;
  };
}

}  // namespace bundlemine
