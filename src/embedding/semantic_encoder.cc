#include "embedding/semantic_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "la/kernels.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::embedding {

const char* EncoderModeName(EncoderMode mode) {
  switch (mode) {
    case EncoderMode::kPretrained:
      return "pretrained";
    case EncoderMode::kFineTuned:
      return "finetuned";
    case EncoderMode::kSiamese:
      return "siamese";
  }
  return "unknown";
}

namespace {

CoocEmbedder::Options WithDim(CoocEmbedder::Options options, size_t dim,
                              uint64_t seed, size_t max_vocab) {
  options.dim = dim;
  options.seed = seed;
  options.max_vocab = std::min(options.max_vocab, max_vocab);
  return options;
}

}  // namespace

SemanticEncoder::SemanticEncoder(Options options)
    : options_(options),
      hash_(options.hash_dim, options.seed ^ 0x9a5f0000ull),
      cooc_(WithDim(options.cooc, options.cooc_dim, options.seed ^ 0xC0C0ull,
                    MaxTableRows(dim()))),
      mixer_(options.context),
      calibrator_(options.siamese) {}

void SemanticEncoder::Fit(
    const std::vector<std::vector<std::string>>& sentences) {
  if (options_.mode != EncoderMode::kPretrained) {
    cooc_.Fit(sentences);
  }
  BuildTable();
  fitted_ = true;
}

void SemanticEncoder::BuildTable() {
  const std::vector<std::string> kept = cooc_.KeptTokens();
  const size_t d = dim();
  WYM_CHECK_LE(kept.size(), MaxTableRows(d));
  table_.assign(kept.size() * d, 0.0f);
  for (size_t k = 0; k < kept.size(); ++k) {
    BaseEmbed(kept[k], /*in_vocabulary=*/true, table_.data() + k * d);
  }
}

void SemanticEncoder::FitSiamese(
    const std::vector<std::vector<std::string>>& descriptions,
    const std::vector<int>& labels) {
  WYM_CHECK(fitted_) << "FitSiamese before Fit";
  WYM_CHECK_EQ(descriptions.size(), 2 * labels.size());
  if (options_.mode != EncoderMode::kSiamese) return;
  // Pairs encode concurrently, each into its own slot; compacting the
  // slots in index order gives the calibrator the pairs of a sequential
  // loop.
  std::vector<std::pair<la::Vec, la::Vec>> slots(labels.size());
  util::ParallelFor(
      labels.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          const std::vector<std::string>& left = descriptions[2 * i];
          const std::vector<std::string>& right = descriptions[2 * i + 1];
          if (left.empty() || right.empty()) continue;
          slots[i] = {PoolTokens(EncodeTokens(left), dim()),
                      PoolTokens(EncodeTokens(right), dim())};
        }
      });
  std::vector<std::pair<la::Vec, la::Vec>> pairs;
  std::vector<int> pair_labels;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].first.empty()) continue;
    pairs.push_back(std::move(slots[i]));
    pair_labels.push_back(labels[i]);
  }
  calibrator_.Fit(pairs, pair_labels);
}

void SemanticEncoder::BaseEmbed(const std::string& token, bool in_vocabulary,
                                float* row) const {
  std::fill(row, row + dim(), 0.0f);

  // Numeracy block: a radial basis over the log10 magnitude of numeric
  // tokens. Two numbers within a few percent of each other activate
  // nearly identical channels; numbers an order of magnitude apart do
  // not. The subword block is kept (down-weighted) so equal numeric
  // strings still beat merely-close ones. strtod also reads "nan",
  // "NaN" and "nan(1)" as NaN, which would poison the vector and, through
  // context mixing, the whole description, so a NaN token is a word.
  bool is_numeric = false;
  if (options_.numeric_dims > 0 && !token.empty()) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != nullptr && *end == '\0' && !std::isnan(value)) {
      is_numeric = true;
      const double magnitude = std::log10(std::fabs(value) + 1.0);
      const size_t n = options_.numeric_dims;
      const size_t base = options_.hash_dim + options_.cooc_dim;
      constexpr double kMaxMagnitude = 6.0;
      constexpr double kWidth = 0.8;
      for (size_t k = 0; k < n; ++k) {
        const double center =
            kMaxMagnitude * static_cast<double>(k) /
            static_cast<double>(n - 1);
        const double distance = (magnitude - center) / kWidth;
        row[base + k] =
            static_cast<float>(1.2 * std::exp(-0.5 * distance * distance));
      }
    }
  }

  hash_.Embed(token, row);
  if (is_numeric) {
    for (size_t i = 0; i < options_.hash_dim; ++i) row[i] *= 0.6f;
  }
  if (!is_numeric && in_vocabulary &&
      options_.mode != EncoderMode::kPretrained && cooc_.fitted()) {
    const la::Vec c = cooc_.Embed(token);
    // Distributional block slightly down-weighted: the syntactic block
    // must dominate for near-identical strings.
    for (size_t i = 0; i < options_.cooc_dim; ++i) {
      row[options_.hash_dim + i] = 0.8f * c[i];
    }
  }
  la::Normalize(row, dim());
}

void SemanticEncoder::LookupBaseEmbed(const std::string& token,
                                      float* row) const {
  const int32_t kept = cooc_.KeptId(token);
  if (kept < 0) {
    BaseEmbed(token, /*in_vocabulary=*/false, row);
    return;
  }
  const float* cached = table_.data() + static_cast<size_t>(kept) * dim();
  std::copy(cached, cached + dim(), row);
}

la::Vec SemanticEncoder::EncodeTokenIsolated(const std::string& token) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  la::Vec out(dim());
  LookupBaseEmbed(token, out.data());
  return out;
}

la::Vec SemanticEncoder::EncodeTokens(
    const std::vector<std::string>& tokens) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  const size_t d = dim();
  la::Vec block(tokens.size() * d);
  for (size_t i = 0; i < tokens.size(); ++i) {
    LookupBaseEmbed(tokens[i], block.data() + i * d);
  }
  {
    obs::SpanScope span("encoder.context_mix");
    mixer_.Mix(d, &block);
  }
  if (options_.mode == EncoderMode::kSiamese && calibrator_.fitted()) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      calibrator_.Apply(block.data() + i * d);
    }
  }
  // Encoder stage boundary: a NaN/Inf in an embedding would silently
  // poison every downstream similarity; abort here under debug checks.
  WYM_DCHECK_FINITE(block.data(), block.size()) << "non-finite token embedding";
  return block;
}

la::Vec SemanticEncoder::PoolTokens(const la::Vec& block, size_t dim) {
  if (block.empty()) return {};
  const size_t n = block.size() / dim;
  la::Vec pooled = la::Zeros(dim);
  for (size_t i = 0; i < n; ++i) {
    la::kernels::Axpy(1.0, block.data() + i * dim, pooled.data(), dim);
  }
  la::Scale(1.0 / static_cast<double>(n), &pooled);
  la::Normalize(&pooled);
  return pooled;
}

void SemanticEncoder::Save(serde::Serializer* s) const {
  s->Tag("encoder/v1");
  s->U64(static_cast<uint64_t>(options_.mode));
  s->U64(options_.hash_dim);
  s->U64(options_.cooc_dim);
  s->U64(options_.numeric_dims);
  s->F64(options_.context.blend);
  s->F64(options_.context.temperature);
  s->U64(options_.seed);
  s->Bool(fitted_);
  cooc_.Save(s);
  calibrator_.Save(s);
}

bool SemanticEncoder::Load(serde::Deserializer* d) {
  if (!d->Tag("encoder/v1")) return false;
  Options options;
  const uint64_t mode = d->U64();
  options.hash_dim = d->U64();
  options.cooc_dim = d->U64();
  options.numeric_dims = d->U64();
  options.context.blend = d->F64();
  options.context.temperature = d->F64();
  options.seed = d->U64();
  // A zero hash_dim divides by zero in HashEmbedder::Embed, and the
  // numeric channel's centres divide by numeric_dims - 1. The context
  // mixer divides by its temperature and scales by its blend, a
  // fraction: a zero or non-finite temperature or a blend far outside
  // [0, 1] turns the mixed rows into NaN, and a negative temperature
  // inverts the attention.
  if (!d->ok() || mode > static_cast<uint64_t>(EncoderMode::kSiamese) ||
      options.hash_dim == 0 || options.hash_dim > 4096 ||
      options.cooc_dim == 0 || options.cooc_dim > 4096 ||
      options.numeric_dims == 1 || options.numeric_dims > 4096 ||
      !(options.context.blend >= 0.0 && options.context.blend <= 1.0) ||
      !std::isfinite(options.context.temperature) ||
      !(options.context.temperature > 0.0)) {
    return false;
  }
  options.mode = static_cast<EncoderMode>(mode);
  *this = SemanticEncoder(options);
  fitted_ = d->Bool();
  // The derived table holds one dim()-float row per cooc token: a count
  // above the cap is refused before anything is allocated for it.
  if (!cooc_.Load(d, MaxTableRows(dim()))) return false;
  if (!calibrator_.Load(d)) return false;
  // BaseEmbed copies cooc_dim values of each cooc vector, and Apply
  // requires one calibration weight per output channel.
  if (!d->ok() || cooc_.dim() != options.cooc_dim ||
      (calibrator_.fitted() && calibrator_.weights().size() != dim())) {
    return false;
  }
  BuildTable();
  return true;
}

}  // namespace wym::embedding
