#include "embedding/hash_embedder.h"

#include <algorithm>
#include <string>

namespace wym::embedding {

namespace {

// FNV-1a, folded with the embedder seed.
uint64_t HashGram(std::string_view gram, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (char c : gram) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  // Final avalanche (splitmix64 tail) so low bits are well mixed.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

HashEmbedder::HashEmbedder(size_t dim, uint64_t seed)
    : dim_(dim), seed_(seed) {}

la::Vec HashEmbedder::Embed(std::string_view token) const {
  la::Vec v(dim_);
  Embed(token, v.data());
  return v;
}

void HashEmbedder::Embed(std::string_view token, float* v) const {
  std::fill(v, v + dim_, 0.0f);
  if (token.empty()) return;

  const std::string padded = "^" + std::string(token) + "$";
  auto add_gram = [&](std::string_view gram, double weight) {
    const uint64_t h = HashGram(gram, seed_);
    const size_t index = static_cast<size_t>(h % dim_);
    const double sign = ((h >> 32) & 1u) ? 1.0 : -1.0;
    // Two buckets per gram reduce collision damage at small dims.
    const size_t index2 = static_cast<size_t>((h >> 17) % dim_);
    const double sign2 = ((h >> 48) & 1u) ? 1.0 : -1.0;
    v[index] += static_cast<float>(sign * weight);
    v[index2] += static_cast<float>(sign2 * weight * 0.5);
  };

  for (size_t n = 3; n <= 5; ++n) {
    if (padded.size() < n) break;
    // Shorter grams carry more of the weight: a single character edit
    // destroys up to n overlapping n-grams, so long grams dominate the
    // divergence; weighting them down keeps typo'd tokens close
    // (robustness the generator needs at its pairing thresholds).
    const double weight = 1.5 - 0.4 * static_cast<double>(n - 3);
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      add_gram(std::string_view(padded).substr(i, n), weight);
    }
  }
  // The whole token anchors exact equality.
  add_gram(padded, 1.5);

  la::Normalize(v, dim_);
}

}  // namespace wym::embedding
