#include "core/wym.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/logging.h"

namespace wym::core {

namespace {

/// Model-file format v2 container identity (util/framed_file.h).
constexpr char kModelMagic[] = "WYM2";
constexpr uint32_t kModelFormatVersion = 1;

/// Records per chunk of the record loop: the unit of parallel work and
/// the scope of entity reuse. Fixed, so the chunks depend only on the
/// batch size.
constexpr size_t kRecordChunk = 16;

/// Section names of the v2 container, in write order.
constexpr char kSectionConfig[] = "config";
constexpr char kSectionEncoder[] = "encoder";
constexpr char kSectionScorer[] = "scorer";
constexpr char kSectionMatcher[] = "matcher";

const std::string* FindFrame(const std::vector<io::FileFrame>& frames,
                             const char* name) {
  for (const io::FileFrame& frame : frames) {
    if (frame.name == name) return &frame.payload;
  }
  return nullptr;
}

}  // namespace

std::vector<size_t> Explanation::RankByImpactMagnitude() const {
  std::vector<size_t> order(units.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return std::fabs(units[a].impact) > std::fabs(units[b].impact);
  });
  return order;
}

WymModel::WymModel(WymConfig config)
    : config_(std::move(config)),
      tokenizer_(config_.tokenizer),
      encoder_(config_.encoder),
      generator_(config_.generator),
      scorer_(config_.scorer),
      matcher_(0, config_.simplified_features) {}

void WymModel::Fit(const data::Dataset& train,
                   const data::Dataset& validation) {
  WYM_CHECK_GT(train.size(), 0u) << "empty training set";
  obs::SpanScope fit_span("fit");
  {
    static obs::Counter& records =
        obs::Registry::Global().GetCounter("fit.records");
    records.Add(train.size());
  }
  num_attributes_ = train.schema.size();

  // Rebuild stateful components so Fit is idempotent.
  encoder_ = embedding::SemanticEncoder(config_.encoder);
  scorer_ = RelevanceScorer(config_.scorer);
  ExplainableMatcherOptions matcher_options;
  matcher_options.classifier = config_.classifier;
  matcher_options.seed = config_.seed;
  matcher_ = ExplainableMatcher(num_attributes_, config_.simplified_features,
                                matcher_options);

  // 1. Tokenize the training corpus and fit the encoder on it. Records
  // tokenize independently; results are written by record index so the
  // corpus order matches the sequential loop exactly.
  std::vector<TokenizedRecord> train_tokens(train.size());
  std::vector<std::vector<std::string>> corpus(2 * train.size());
  {
    obs::SpanScope span("fit.tokenize");
    util::ParallelFor(
        train.size(), /*grain=*/16, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            TokenizedRecord tokenized =
                TokenizeRecord(train.records[i], train.schema, tokenizer_);
            corpus[2 * i] = tokenized.left.tokens;
            corpus[2 * i + 1] = tokenized.right.tokens;
            train_tokens[i] = std::move(tokenized);
          }
        });
  }
  {
    obs::SpanScope span("fit.encoder_fit");
    encoder_.Fit(corpus);
  }

  // 2. Encode; then (kSiamese) calibrate on pooled pair embeddings and
  // re-encode with the calibrated metric.
  auto encode_all = [this](std::vector<TokenizedRecord>* records) {
    util::ParallelFor(
        records->size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            EncodeEntity(encoder_, &(*records)[i].left);
            EncodeEntity(encoder_, &(*records)[i].right);
          }
        });
  };
  {
    obs::SpanScope span("fit.encode");
    encode_all(&train_tokens);
  }
  if (config_.encoder.mode == embedding::EncoderMode::kSiamese) {
    obs::SpanScope span("fit.siamese_calibrate");
    std::vector<std::pair<la::Vec, la::Vec>> pairs;
    std::vector<int> labels;
    for (const auto& record : train_tokens) {
      if (record.left.embeddings.empty() || record.right.embeddings.empty()) {
        continue;
      }
      pairs.emplace_back(
          embedding::SemanticEncoder::PoolTokens(record.left.embeddings),
          embedding::SemanticEncoder::PoolTokens(record.right.embeddings));
      labels.push_back(record.label);
    }
    encoder_.FitSiamese(pairs, labels);
    encode_all(&train_tokens);  // Calibration changes the vectors.
  }

  // 3. Discover decision units (Algorithm 1) on every training record.
  std::vector<std::vector<DecisionUnit>> train_units(train_tokens.size());
  {
    obs::SpanScope span("fit.unit_generation");
    util::ParallelFor(
        train_tokens.size(), /*grain=*/8,
        [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            train_units[i] = generator_.Generate(
                train_tokens[i].left, train_tokens[i].right, num_attributes_);
          }
        });
  }

  // 4. Fit the relevance scorer (Eq. 2/3 targets).
  {
    obs::SpanScope span("fit.scorer_fit");
    scorer_.Fit(train_tokens, train_units);
  }

  // 5. Score units and extract features for train + validation.
  auto scored_sets = [&](const std::vector<TokenizedRecord>& records,
                         const std::vector<std::vector<DecisionUnit>>& units) {
    std::vector<ScoredUnitSet> sets(records.size());
    util::ParallelFor(
        records.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            sets[i].units = units[i];
            sets[i].scores = scorer_.Score(records[i], units[i]);
          }
        });
    return sets;
  };
  std::vector<ScoredUnitSet> train_sets;
  {
    obs::SpanScope span("fit.score_units");
    train_sets = scored_sets(train_tokens, train_units);
  }

  std::vector<TokenizedRecord> val_tokens(validation.size());
  std::vector<std::vector<DecisionUnit>> val_units(validation.size());
  std::vector<ScoredUnitSet> val_sets;
  {
    obs::SpanScope span("fit.validation_prepare");
    util::ParallelFor(
        validation.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            TokenizedRecord tokenized =
                TokenizeRecord(validation.records[i], validation.schema,
                               tokenizer_);
            EncodeEntity(encoder_, &tokenized.left);
            EncodeEntity(encoder_, &tokenized.right);
            val_units[i] = generator_.Generate(tokenized.left, tokenized.right,
                                               num_attributes_);
            val_tokens[i] = std::move(tokenized);
          }
        });
    val_sets = scored_sets(val_tokens, val_units);
  }

  // 6. Train the classifier pool and select by validation F1.
  {
    obs::SpanScope span("fit.classifier_fit");
    matcher_.Fit(train_sets, train.Labels(), val_sets, validation.Labels());
  }
  fitted_ = true;
}

data::Schema WymModel::InferenceSchema() const {
  data::Schema schema;
  schema.attributes.resize(num_attributes_);  // Names are not needed here.
  return schema;
}

TokenizedEntity WymModel::PrepareEntity(const data::Entity& entity,
                                        const data::Schema& schema) const {
  WYM_CHECK_EQ(entity.values.size(), num_attributes_);
  TokenizedEntity tokenized = TokenizeEntity(entity, schema, tokenizer_);
  EncodeEntity(encoder_, &tokenized);
  return tokenized;
}

TokenizedRecord WymModel::Prepare(const data::EmRecord& record) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  const data::Schema schema = InferenceSchema();
  TokenizedRecord tokenized;
  tokenized.left = PrepareEntity(record.left, schema);
  tokenized.right = PrepareEntity(record.right, schema);
  tokenized.label = record.label;
  return tokenized;
}

std::vector<DecisionUnit> WymModel::GenerateUnits(
    const TokenizedRecord& record) const {
  return generator_.Generate(record.left, record.right, num_attributes_);
}

std::vector<double> WymModel::ScoreUnits(
    const TokenizedRecord& record,
    const std::vector<DecisionUnit>& units) const {
  return scorer_.Score(record, units);
}

double WymModel::PredictProbaFromUnits(const ScoredUnitSet& set) const {
  const double proba = matcher_.PredictProba(set);
  // Matcher stage boundary: probabilities must be finite (the classifier
  // pool squashes through a logistic, so NaN means poisoned features).
  WYM_DCHECK(std::isfinite(proba)) << "non-finite match probability";
  return proba;
}

double WymModel::PredictProba(const data::EmRecord& record) const {
  return PredictProbaBatch(std::span(&record, 1)).front();
}

Explanation WymModel::Explain(const data::EmRecord& record) const {
  return std::move(ExplainBatch(std::span(&record, 1)).front());
}

std::vector<double> WymModel::PredictProbaBatch(
    std::span<const data::EmRecord> records, PredictionReport* report,
    util::ThreadPool* pool) const {
  std::vector<double> out(records.size());
  RunRecords(records, out.data(), nullptr, report, pool);
  return out;
}

std::vector<Explanation> WymModel::ExplainBatch(
    std::span<const data::EmRecord> records, PredictionReport* report,
    util::ThreadPool* pool) const {
  std::vector<Explanation> out(records.size());
  RunRecords(records, nullptr, out.data(), report, pool);
  return out;
}

std::vector<int> WymModel::PredictDataset(const data::Dataset& dataset) const {
  const std::vector<double> probabilities = PredictProbaBatch(dataset);
  std::vector<int> out(probabilities.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = probabilities[i] >= 0.5 ? 1 : 0;
  }
  return out;
}

void WymModel::RunRecords(std::span<const data::EmRecord> records,
                          double* probabilities, Explanation* explanations,
                          PredictionReport* report,
                          util::ThreadPool* pool) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  const bool explain = explanations != nullptr;
  obs::SpanScope batch_span(explain ? "explain.batch" : "predict.batch");
  const char* record_span = explain ? "explain.record" : "predict.record";
  const bool metrics = obs::MetricsEnabled();
  obs::Registry& registry = obs::Registry::Global();
  static obs::Histogram& predict_ns =
      registry.GetHistogram("predict.record_ns");
  static obs::Histogram& explain_ns =
      registry.GetHistogram("explain.record_ns");
  obs::Histogram& record_ns = explain ? explain_ns : predict_ns;
  const data::Schema schema = InferenceSchema();
  // Per-index quarantine reasons, written in parallel by record index so
  // the report is deterministic; nullptr = predicted.
  std::vector<const char*> reasons(records.size(), nullptr);
  util::ParallelFor(
      records.size(), kRecordChunk,
      [&](size_t begin, size_t end, size_t) {
        // Candidate lists repeat an entity on consecutive records
        // (MatchTables sends each left row's candidates together). A
        // prepared entity is a pure function of its attribute values, so
        // a side whose values equal the previous record's keeps it.
        TokenizedRecord tokenized;
        for (size_t i = begin; i < end; ++i) {
          obs::SpanScope span(record_span);
          const std::uint64_t t0 = metrics ? obs::NowNanos() : 0;
          const data::EmRecord& record = records[i];
          const bool first = i == begin;
          if (first || record.left.values != records[i - 1].left.values) {
            tokenized.left = PrepareEntity(record.left, schema);
          }
          if (first || record.right.values != records[i - 1].right.values) {
            tokenized.right = PrepareEntity(record.right, schema);
          }
          tokenized.label = record.label;
          // Degenerate rule: with no tokens there are no units, and the
          // matcher would answer from the features of an empty unit set.
          // The slot keeps its non-match fallback (0.0 / Explanation{}).
          const bool no_tokens = tokenized.left.tokens.empty() &&
                                 tokenized.right.tokens.empty();
          if (no_tokens) {
            reasons[i] = "zero tokens on both sides after tokenization";
            continue;
          }
          ScoredUnitSet set;
          set.units = GenerateUnits(tokenized);
          set.scores = ScoreUnits(tokenized, set.units);
          // Scorer stage boundary: relevance scores feed both the matcher
          // and the ranked explanation, so a NaN here corrupts both.
          WYM_DCHECK_FINITE(set.scores.data(), set.scores.size())
              << "non-finite unit relevance score";
          double probability = PredictProbaFromUnits(set);
          if (!std::isfinite(probability)) {
            reasons[i] = "non-finite match probability";
            probability = 0.0;
          }
          if (!explain) {
            probabilities[i] = probability;
          } else if (reasons[i] == nullptr) {
            Explanation& out = explanations[i];
            out.probability = probability;
            out.prediction = probability >= 0.5 ? 1 : 0;
            const std::vector<double> impacts = matcher_.UnitImpacts(set);
            out.units.reserve(set.size());
            for (size_t u = 0; u < set.size(); ++u) {
              out.units.push_back(
                  {std::move(set.units[u]), set.scores[u], impacts[u]});
            }
          }
          if (metrics) record_ns.Record(obs::NowNanos() - t0);
        }
      },
      pool);

  size_t quarantined = 0;
  if (report != nullptr) *report = PredictionReport{};
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (reasons[i] == nullptr) continue;
    ++quarantined;
    if (report != nullptr) report->quarantined.push_back({i, reasons[i]});
  }
  if (report != nullptr) report->predicted = records.size() - quarantined;
  // Batch-level counters are bumped after the loop, so counting never
  // touches the hot path.
  if (!metrics) return;
  static obs::Counter& predict_records =
      registry.GetCounter("predict.records");
  static obs::Counter& predict_quarantined =
      registry.GetCounter("predict.records_quarantined");
  static obs::Counter& explain_records =
      registry.GetCounter("explain.records");
  static obs::Counter& explain_quarantined =
      registry.GetCounter("explain.records_quarantined");
  (explain ? explain_records : predict_records).Add(records.size());
  if (quarantined > 0) {
    (explain ? explain_quarantined : predict_quarantined).Add(quarantined);
  }
}

namespace {

/// Serializes the config scalars needed to rebuild the stateless
/// components (the v2 "config" section).
void WriteConfigFields(serde::Serializer* s, const WymConfig& config,
                       size_t num_attributes) {
  s->Bool(config.tokenizer.lowercase);
  s->Bool(config.tokenizer.remove_stopwords);
  s->U64(config.tokenizer.min_token_length);
  s->F64(config.generator.theta);
  s->F64(config.generator.eta);
  s->F64(config.generator.epsilon);
  s->U64(static_cast<uint64_t>(config.generator.similarity));
  s->U64(config.generator.rules.size());  // Informational only.
  s->Bool(config.simplified_features);
  s->Str(config.classifier);
  s->U64(num_attributes);
}

/// Reads WriteConfigFields output. `rule_count` and `num_attributes`
/// are returned separately (rules are code, not data).
void ReadConfigFields(serde::Deserializer* d, WymConfig* config,
                      uint64_t* rule_count, uint64_t* num_attributes) {
  config->tokenizer.lowercase = d->Bool();
  config->tokenizer.remove_stopwords = d->Bool();
  config->tokenizer.min_token_length = d->U64();
  config->generator.theta = d->F64();
  config->generator.eta = d->F64();
  config->generator.epsilon = d->F64();
  config->generator.similarity = static_cast<PairingSimilarity>(d->U64());
  *rule_count = d->U64();
  config->simplified_features = d->Bool();
  config->classifier = d->Str();
  *num_attributes = d->U64();
}

Status CheckRuleCount(uint64_t rule_count,
                      const std::vector<PairingRule>& rules) {
  if (rule_count != rules.size()) {
    return Status::InvalidArgument(
        "model was trained with " + std::to_string(rule_count) +
        " pairing rule(s); pass the same rules to LoadFromFile");
  }
  return Status::Ok();
}

}  // namespace

Status WymModel::SaveToFile(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted WymModel");
  }
  // One checksummed frame per pipeline component: damage localizes to a
  // named section, and `wym_cli verify` can audit the file without
  // deserializing any of it.
  std::vector<io::FileFrame> frames;
  const auto add_frame = [&frames](const char* name, auto&& write) {
    std::ostringstream payload;
    serde::Serializer s(&payload);
    write(&s);
    frames.push_back(io::FileFrame{name, payload.str()});
  };
  add_frame(kSectionConfig, [this](serde::Serializer* s) {
    s->Tag("wym-config/v2");
    WriteConfigFields(s, config_, num_attributes_);
  });
  add_frame(kSectionEncoder,
            [this](serde::Serializer* s) { encoder_.Save(s); });
  add_frame(kSectionScorer, [this](serde::Serializer* s) { scorer_.Save(s); });
  add_frame(kSectionMatcher,
            [this](serde::Serializer* s) { matcher_.Save(s); });
  return io::WriteFileAtomic(
             path, io::EncodeFramedFile(kModelMagic, kModelFormatVersion,
                                        frames))
      .Annotate("saving model to " + path);
}

Result<WymModel> WymModel::LoadFromFile(const std::string& path,
                                        std::vector<PairingRule> rules) {
  std::string bytes;
  const Status read = io::ReadFileToString(path, &bytes);
  if (!read.ok()) return read.Annotate("loading model");

  if (!io::LooksFramed(bytes, kModelMagic)) {
    return Status::Corruption("not a WYM model file: " + path);
  }

  // Verify the container — structure, per-section CRCs, whole-file
  // trailer — before deserializing anything.
  std::vector<io::FileFrame> frames;
  const Status decoded = io::DecodeFramedFile(
      bytes, kModelMagic, kModelFormatVersion, nullptr, &frames);
  if (!decoded.ok()) return decoded.Annotate("loading model " + path);

  const auto section = [&frames,
                        &path](const char* name) -> Result<const std::string*> {
    const std::string* payload = FindFrame(frames, name);
    if (payload == nullptr) {
      return Status::Corruption("model file missing section '" +
                                std::string(name) + "': " + path);
    }
    return payload;
  };

  auto config_bytes = section(kSectionConfig);
  if (!config_bytes.ok()) return config_bytes.status();
  std::istringstream config_in(*config_bytes.value());
  serde::Deserializer config_reader(&config_in);
  WymConfig config;
  uint64_t rule_count = 0;
  uint64_t num_attributes = 0;
  if (!config_reader.Tag("wym-config/v2")) {
    return Status::Corruption("bad config section tag: " + path);
  }
  ReadConfigFields(&config_reader, &config, &rule_count, &num_attributes);
  if (!config_reader.ok()) {
    return Status::Corruption("bad config section: " + path);
  }
  WYM_RETURN_IF_ERROR(CheckRuleCount(rule_count, rules));
  config.generator.rules = std::move(rules);

  WymModel model(config);
  model.num_attributes_ = num_attributes;
  const auto load_component = [&path](const std::string& payload,
                                      const char* name,
                                      auto&& load) -> Status {
    std::istringstream in(payload);
    serde::Deserializer d(&in);
    if (!load(&d) || !d.ok()) {
      return Status::Corruption("bad " + std::string(name) +
                                " state in section '" + name + "': " + path);
    }
    return Status::Ok();
  };
  auto payload = section(kSectionEncoder);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionEncoder,
      [&model](serde::Deserializer* d) { return model.encoder_.Load(d); }));
  payload = section(kSectionScorer);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionScorer,
      [&model](serde::Deserializer* d) { return model.scorer_.Load(d); }));
  payload = section(kSectionMatcher);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      *payload.value(), kSectionMatcher,
      [&model](serde::Deserializer* d) { return model.matcher_.Load(d); }));
  model.fitted_ = true;
  return model;
}

Status WymModel::VerifyFile(const std::string& path, std::string* summary) {
  std::string bytes;
  WYM_RETURN_IF_ERROR(
      io::ReadFileToString(path, &bytes).Annotate("verifying " + path));
  if (!io::LooksFramed(bytes, kModelMagic)) {
    return Status::Corruption("not a WYM model file: " + path);
  }
  return io::VerifyFramedFile(bytes, kModelMagic, summary).Annotate(path);
}

}  // namespace wym::core
