#include "embedding/semantic_encoder.h"

#include <cmath>
#include <cstdlib>

#include "obs/trace.h"
#include "util/logging.h"

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
                              uint64_t seed) {
  options.dim = dim;
  options.seed = seed;
  return options;
}

}  // namespace

SemanticEncoder::SemanticEncoder(Options options)
    : options_(options),
      hash_(options.hash_dim, options.seed ^ 0x9a5f0000ull),
      cooc_(WithDim(options.cooc, options.cooc_dim, options.seed ^ 0xC0C0ull)),
      mixer_(options.context),
      calibrator_(options.siamese) {}

void SemanticEncoder::Fit(
    const std::vector<std::vector<std::string>>& sentences) {
  if (options_.mode != EncoderMode::kPretrained) {
    cooc_.Fit(sentences);
  }
  cache_.Clear();  // Fitting the cooc table changes BaseEmbed output.
  fitted_ = true;
}

la::Vec SemanticEncoder::CachedBaseEmbed(const std::string& token) const {
  la::Vec out;
  if (cache_.Lookup(token, &out)) return out;
  out = BaseEmbed(token);
  cache_.Insert(token, out);
  return out;
}

void SemanticEncoder::FitSiamese(
    const std::vector<std::pair<la::Vec, la::Vec>>& pairs,
    const std::vector<int>& labels) {
  WYM_CHECK(fitted_) << "FitSiamese before Fit";
  if (options_.mode != EncoderMode::kSiamese) return;
  calibrator_.Fit(pairs, labels);
}

la::Vec SemanticEncoder::BaseEmbed(const std::string& token) const {
  la::Vec out = la::Zeros(dim());

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
        out[base + k] =
            static_cast<float>(1.2 * std::exp(-0.5 * distance * distance));
      }
    }
  }

  const la::Vec h = hash_.Embed(token);
  const float hash_weight = is_numeric ? 0.6f : 1.0f;
  for (size_t i = 0; i < options_.hash_dim; ++i) {
    out[i] = hash_weight * h[i];
  }
  if (!is_numeric && options_.mode != EncoderMode::kPretrained &&
      cooc_.fitted()) {
    const la::Vec c = cooc_.Embed(token);
    // Distributional block slightly down-weighted: the syntactic block
    // must dominate for near-identical strings.
    for (size_t i = 0; i < options_.cooc_dim; ++i) {
      out[options_.hash_dim + i] = 0.8f * c[i];
    }
  }
  la::Normalize(&out);
  return out;
}

la::Vec SemanticEncoder::EncodeTokenIsolated(const std::string& token) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  return CachedBaseEmbed(token);
}

std::vector<la::Vec> SemanticEncoder::EncodeTokens(
    const std::vector<std::string>& tokens) const {
  WYM_CHECK(fitted_) << "SemanticEncoder used before Fit";
  std::vector<la::Vec> base;
  base.reserve(tokens.size());
  for (const auto& token : tokens) base.push_back(CachedBaseEmbed(token));

  std::vector<la::Vec> mixed = [&] {
    obs::SpanScope span("encoder.context_mix");
    return mixer_.Mix(base);
  }();
  if (options_.mode == EncoderMode::kSiamese && calibrator_.fitted()) {
    for (auto& v : mixed) v = calibrator_.Apply(v);
  }
  // Encoder stage boundary: a NaN/Inf in an embedding would silently
  // poison every downstream similarity; abort here under debug checks.
  for (const la::Vec& v : mixed) {
    WYM_DCHECK_FINITE(v.data(), v.size()) << "non-finite token embedding";
  }
  return mixed;
}

la::Vec SemanticEncoder::PoolTokens(const std::vector<la::Vec>& tokens) {
  if (tokens.empty()) return {};
  la::Vec pooled = la::Zeros(tokens[0].size());
  for (const auto& v : tokens) la::Axpy(1.0, v, &pooled);
  la::Scale(1.0 / static_cast<double>(tokens.size()), &pooled);
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
  // numeric channel's centres divide by numeric_dims - 1.
  if (!d->ok() || mode > static_cast<uint64_t>(EncoderMode::kSiamese) ||
      options.hash_dim == 0 || options.hash_dim > 4096 ||
      options.cooc_dim == 0 || options.cooc_dim > 4096 ||
      options.numeric_dims == 1 || options.numeric_dims > 4096) {
    return false;
  }
  options.mode = static_cast<EncoderMode>(mode);
  *this = SemanticEncoder(options);
  fitted_ = d->Bool();
  if (!cooc_.Load(d)) return false;
  if (!calibrator_.Load(d)) return false;
  // BaseEmbed copies cooc_dim values of each cooc vector, and Apply
  // requires one calibration weight per output channel.
  return d->ok() && cooc_.dim() == options.cooc_dim &&
         (!calibrator_.fitted() || calibrator_.weights().size() == dim());
}

}  // namespace wym::embedding
