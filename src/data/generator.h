// Synthetic Amazon-Books-like ratings generator.
//
// Substitution for the UIC Amazon crawl the paper experiments on (README,
// "Architecture", data layer). The generator is
// calibrated to every marginal the paper reports for its post-filtering data:
//
//   * rating-value distribution {1★:3%, 2★:5%, 3★:13%, 4★:29%, 5★:49%};
//   * item price mixture {<$10: 50%, $10–$20: 45%, >$20: ~4%};
//   * every user and item has ≥ 10 ratings after 10-core filtering;
//   * heavy-tailed user activity and item popularity (power laws), and
//   * genre-cluster co-rating structure, so that the paper's "co-interested
//     consumers" pruning and the frequent-itemset baseline see realistic
//     overlap patterns.
//
// Named profiles scale the instance: tests use Tiny, benchmark defaults use
// Small, `--scale=paper` regenerates at the paper's 4,449 × 5,028 size.

#ifndef BUNDLEMINE_DATA_GENERATOR_H_
#define BUNDLEMINE_DATA_GENERATOR_H_

#include <cstdint>
#include <string>

#include "data/ratings.h"

namespace bundlemine {

/// Parameters of the synthetic ratings process (pre-filter sizes).
struct GeneratorConfig {
  /// Users/items drawn before 10-core filtering; the filtered dataset is
  /// somewhat smaller.
  int num_users = 1300;
  int num_items = 520;

  /// Genre clusters driving co-rating structure.
  int num_genres = 24;
  /// Genres a user actively follows.
  int genres_per_user = 3;
  /// Probability mass a user puts on non-followed genres.
  double background_mass = 0.10;

  /// Mean ratings per user (paper: ≈24); sampled lognormally around this.
  double mean_user_activity = 24.0;
  double activity_sigma = 0.55;

  /// Zipf exponent of item popularity within a genre.
  double item_popularity_exponent = 0.85;

  /// Dense-core threshold applied after generation (paper: 10).
  int core_degree = 10;

  std::uint64_t seed = 42;
};

/// Builds the pre-tuned profile configs.
GeneratorConfig TinyProfile(std::uint64_t seed);    ///< ~60 items, tests.
GeneratorConfig SmallProfile(std::uint64_t seed);   ///< ~400 items, bench default.
GeneratorConfig MediumProfile(std::uint64_t seed);  ///< ~1200 items.
GeneratorConfig PaperProfile(std::uint64_t seed);   ///< paper-scale 5,028 items.

/// Resolves "tiny" / "small" / "medium" / "paper" to a profile config.
/// Aborts on an unknown name.
GeneratorConfig ProfileByName(const std::string& name, std::uint64_t seed);

/// Generates ratings + prices and applies the dense-core filter.
RatingsDataset GenerateAmazonLike(const GeneratorConfig& config);

}  // namespace bundlemine

#endif  // BUNDLEMINE_DATA_GENERATOR_H_
