#include "baselines/ditto.h"

#include "baselines/cordel.h"
#include "baselines/similarity_features.h"
#include "text/tokenizer.h"
#include "ml/metrics.h"
#include "util/logging.h"

namespace wym::baselines {

namespace {

std::vector<std::string> Tokens(const std::string& value) {
  static const text::Tokenizer tokenizer{};
  return tokenizer.Tokenize(value);
}

std::vector<std::string> AllTokens(const data::Entity& entity) {
  std::vector<std::string> out;
  for (const auto& value : entity.values) {
    for (auto& token : Tokens(value)) out.push_back(std::move(token));
  }
  return out;
}

}  // namespace

DittoMatcher::DittoMatcher(Options options)
    : options_([&] {
        options.encoder.seed = options.seed;
        options.gbm.seed = options.seed ^ 0x9e37;
        return options;
      }()),
      encoder_(options_.encoder),
      gbm_(options_.gbm) {}

std::vector<double> DittoMatcher::Features(
    const data::EmRecord& record) const {
  // Everything the weaker baselines see...
  std::vector<double> features = RecordSimilarityFeatures(record);
  const std::vector<double> contrast =
      CordelMatcher::ContrastFeatures(record);
  features.insert(features.end(), contrast.begin(), contrast.end());

  // ...plus the fine-tuned encoder's pooled-embedding similarities:
  // whole-record cosine and per-attribute pooled cosines (the serialized
  // transformer view of the pair).
  const auto left_tokens = AllTokens(record.left);
  const auto right_tokens = AllTokens(record.right);
  const auto left_vecs = encoder_.EncodeTokens(left_tokens);
  const auto right_vecs = encoder_.EncodeTokens(right_tokens);
  const la::Vec left_pool =
      embedding::SemanticEncoder::PoolTokens(left_vecs, encoder_.dim());
  const la::Vec right_pool =
      embedding::SemanticEncoder::PoolTokens(right_vecs, encoder_.dim());
  features.push_back((left_pool.empty() || right_pool.empty())
                         ? 0.0
                         : la::Cosine(left_pool, right_pool));

  for (size_t a = 0; a < num_attributes_; ++a) {
    const auto lv = encoder_.EncodeTokens(Tokens(record.left.values[a]));
    const auto rv = encoder_.EncodeTokens(Tokens(record.right.values[a]));
    const la::Vec lp =
        embedding::SemanticEncoder::PoolTokens(lv, encoder_.dim());
    const la::Vec rp =
        embedding::SemanticEncoder::PoolTokens(rv, encoder_.dim());
    features.push_back((lp.empty() || rp.empty()) ? 0.0 : la::Cosine(lp, rp));
  }
  return features;
}

void DittoMatcher::Fit(const data::Dataset& train,
                       const data::Dataset& validation) {
  WYM_CHECK_GT(train.size(), 0u);
  num_attributes_ = train.schema.size();

  // "Fine-tune" the encoder on the training corpus + labels.
  encoder_ = embedding::SemanticEncoder(options_.encoder);
  std::vector<std::vector<std::string>> corpus;
  corpus.reserve(2 * train.size());
  for (const auto& record : train.records) {
    corpus.push_back(AllTokens(record.left));
    corpus.push_back(AllTokens(record.right));
  }
  encoder_.Fit(corpus);
  if (options_.encoder.mode == embedding::EncoderMode::kSiamese) {
    std::vector<std::pair<la::Vec, la::Vec>> pairs;
    std::vector<int> labels;
    for (const auto& record : train.records) {
      const auto lv = encoder_.EncodeTokens(AllTokens(record.left));
      const auto rv = encoder_.EncodeTokens(AllTokens(record.right));
      if (lv.empty() || rv.empty()) continue;
      pairs.emplace_back(
          embedding::SemanticEncoder::PoolTokens(lv, encoder_.dim()),
          embedding::SemanticEncoder::PoolTokens(rv, encoder_.dim()));
      labels.push_back(record.label);
    }
    encoder_.FitSiamese(pairs, labels);
  }

  const size_t dim = Features(train.records[0]).size();
  la::Matrix x(train.size(), dim);
  for (size_t i = 0; i < train.size(); ++i) {
    const auto row = Features(train.records[i]);
    for (size_t j = 0; j < dim; ++j) x.At(i, j) = row[j];
  }
  gbm_ = ml::GradientBoostingClassifier(options_.gbm);
  gbm_.Fit(x, train.Labels());
  fitted_ = true;

  const data::Dataset& calibration =
      validation.size() > 0 ? validation : train;
  std::vector<double> probas;
  probas.reserve(calibration.size());
  for (const auto& record : calibration.records) {
    probas.push_back(gbm_.PredictProba(Features(record)));
  }
  threshold_ = ml::BestF1Threshold(probas, calibration.Labels());
}

double DittoMatcher::PredictProba(const data::EmRecord& record) const {
  WYM_CHECK(fitted_) << "DITTO used before Fit";
  return ml::RecalibrateProba(gbm_.PredictProba(Features(record)),
                              threshold_);
}

}  // namespace wym::baselines
