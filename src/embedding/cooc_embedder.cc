#include "embedding/cooc_embedder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "la/eigen.h"
#include "la/sparse_matrix.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::embedding {

CoocEmbedder::CoocEmbedder(Options options) : options_(options) {}

void CoocEmbedder::Fit(const std::vector<std::vector<std::string>>& sentences) {
  WYM_CHECK(!fitted_) << "CoocEmbedder::Fit called twice";

  // Pass 1: vocabulary with counts.
  {
    obs::SpanScope span("encoder.vocab_pass");
    for (const auto& sentence : sentences) {
      for (const auto& token : sentence) vocab_.Add(token);
    }
  }

  // Select kept vocabulary: frequent tokens, capped.
  kept_id_.assign(vocab_.size(), -1);
  std::vector<int32_t> kept;
  for (int32_t id : vocab_.TopK(options_.max_vocab)) {
    if (vocab_.CountOf(id) < options_.min_count) continue;
    kept_id_[id] = static_cast<int32_t>(kept.size());
    kept.push_back(id);
  }
  const size_t n = kept.size();
  if (n == 0) {
    fitted_ = true;
    return;
  }

  // Pass 2: windowed co-occurrence counts (distance-discounted), sharded
  // over fixed sentence ranges. Each shard accumulates into private
  // maps; shards are then merged in shard-index order, so the counts
  // are bit-identical at every thread count (the shard structure
  // depends only on the corpus size, never on WYM_THREADS).
  struct CoocShard {
    std::unordered_map<uint64_t, double> cooc;
    std::vector<double> row_sum;
    double total = 0.0;
  };
  constexpr size_t kShardGrain = 256;  // Sentences per shard.
  std::vector<CoocShard> shards(util::NumChunks(sentences.size(), kShardGrain));
  std::unordered_map<uint64_t, double> cooc;
  std::vector<double> row_sum(n, 0.0);
  double total = 0.0;
  {
    obs::SpanScope span("encoder.cooc_pass");
    util::ParallelFor(
        sentences.size(), kShardGrain,
        [&](size_t begin, size_t end, size_t shard_index) {
          CoocShard& shard = shards[shard_index];
          shard.row_sum.assign(n, 0.0);
          std::vector<int32_t> ids;
          for (size_t s = begin; s < end; ++s) {
            const auto& sentence = sentences[s];
            ids.clear();
            ids.reserve(sentence.size());
            for (const auto& token : sentence) {
              const int32_t vid = vocab_.IdOf(token);
              ids.push_back(vid >= 0 ? kept_id_[vid] : -1);
            }
            for (size_t i = 0; i < ids.size(); ++i) {
              if (ids[i] < 0) continue;
              const size_t hi = std::min(ids.size(), i + 1 + options_.window);
              for (size_t j = i + 1; j < hi; ++j) {
                if (ids[j] < 0) continue;
                const double weight = 1.0 / static_cast<double>(j - i);
                const uint32_t a =
                    static_cast<uint32_t>(std::min(ids[i], ids[j]));
                const uint32_t b =
                    static_cast<uint32_t>(std::max(ids[i], ids[j]));
                shard.cooc[(static_cast<uint64_t>(a) << 32) | b] += weight;
                shard.row_sum[a] += weight;
                shard.row_sum[b] += weight;
                shard.total += 2.0 * weight;
              }
            }
          }
        });

    // Ordered reduction: shard 0, 1, 2, ... regardless of which worker
    // produced which shard.
    for (const CoocShard& shard : shards) {
      // wym-lint: allow(unordered-iteration): per-key merge; each key's sum is visit-order-independent, and the PPMI build below iterates key-sorted
      for (const auto& [key, weight] : shard.cooc) cooc[key] += weight;
      for (size_t i = 0; i < n; ++i) row_sum[i] += shard.row_sum[i];
      total += shard.total;
    }
    shards.clear();
  }
  if (total == 0.0) {
    // Degenerate corpus (all sentences length 1): embeddings stay zero.
    vectors_.assign(n, la::Zeros(options_.dim));
    fitted_ = true;
    return;
  }

  la::SparseMatrix ppmi(n);
  {
    obs::SpanScope span("encoder.ppmi_build");

    // Smoothed context distribution for PPMI.
    std::vector<double> context_prob(n, 0.0);
    double smoothed_total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      context_prob[i] = std::pow(row_sum[i], options_.smoothing);
      smoothed_total += context_prob[i];
    }
    for (double& p : context_prob) p /= smoothed_total;

    // Build the PPMI matrix from key-sorted entries: the append order
    // into each sparse row (and hence every downstream floating-point
    // sum in MultiplyDense) is fixed by the data, not by hash-map
    // iteration.
    std::vector<std::pair<uint64_t, double>> entries(cooc.begin(),
                                                     cooc.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });

    for (const auto& [key, count] : entries) {
      const uint32_t a = static_cast<uint32_t>(key >> 32);
      const uint32_t b = static_cast<uint32_t>(key & 0xffffffffu);
      const double p_ab = count / total;
      const double p_a = row_sum[a] / total;
      const double value = std::log(p_ab / (p_a * context_prob[b]));
      if (value <= 0.0) continue;
      ppmi.Add(a, b, value);
      if (a != b) ppmi.Add(b, a, value);
    }
  }

  const la::Matrix emb = [&] {
    obs::SpanScope span("encoder.svd_power_iteration");
    return la::EigenEmbedding(la::TopEigenpairs(
        ppmi, options_.dim, options_.iterations, options_.seed));
  }();

  vectors_.assign(n, la::Vec());
  for (size_t i = 0; i < n; ++i) {
    la::Vec v(options_.dim, 0.0f);
    for (size_t j = 0; j < emb.cols(); ++j) {
      v[j] = static_cast<float>(emb.At(i, j));
    }
    la::Normalize(&v);
    vectors_[i] = std::move(v);
  }
  fitted_ = true;
}

la::Vec CoocEmbedder::Embed(std::string_view token) const {
  WYM_CHECK(fitted_) << "CoocEmbedder used before Fit";
  const int32_t kept = KeptId(token);
  if (kept < 0) return la::Zeros(options_.dim);
  return vectors_[kept];
}

int32_t CoocEmbedder::KeptId(std::string_view token) const {
  const int32_t vid = vocab_.IdOf(token);
  return vid < 0 ? -1 : kept_id_[vid];
}

std::vector<std::string> CoocEmbedder::KeptTokens() const {
  std::vector<std::string> out(vectors_.size());
  for (size_t vid = 0; vid < kept_id_.size(); ++vid) {
    if (kept_id_[vid] >= 0) {
      out[kept_id_[vid]] = vocab_.TokenOf(static_cast<int32_t>(vid));
    }
  }
  return out;
}

void CoocEmbedder::Save(serde::Serializer* s) const {
  s->Tag("cooc/v1");
  s->Bool(fitted_);
  s->U64(options_.dim);
  s->U64(vectors_.size());
  for (const la::Vec& v : vectors_) s->VecF32(v);
  for (const std::string& token : KeptTokens()) s->Str(token);
}

bool CoocEmbedder::Load(serde::Deserializer* d, uint64_t max_count) {
  if (!d->Tag("cooc/v1")) return false;
  fitted_ = d->Bool();
  options_.dim = d->U64();
  const uint64_t count = d->U64();
  if (!d->ok() || count > max_count) return false;
  // Vectors are appended as they are read, so memory grows with the
  // bytes actually present, not with the declared count.
  vectors_.clear();
  for (uint64_t kept = 0; kept < count; ++kept) {
    vectors_.push_back(d->VecF32());
    if (!d->ok() || vectors_.back().size() != options_.dim) return false;
  }
  vocab_ = text::Vocabulary();
  kept_id_.assign(count, -1);
  for (size_t kept = 0; kept < count; ++kept) {
    const std::string token = d->Str();
    if (!d->ok()) return false;
    const int32_t vid = vocab_.Add(token);
    kept_id_[vid] = static_cast<int32_t>(kept);
  }
  return d->ok();
}

}  // namespace wym::embedding
