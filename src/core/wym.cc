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

std::string* FindFrame(std::vector<io::FileFrame>& frames, const char* name) {
  for (io::FileFrame& frame : frames) {
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
  const std::vector<int> train_labels = train.Labels();
  {
    obs::SpanScope span("fit.encoder_fit");
    encoder_.Fit(corpus);
  }
  // 2. Calibrate the metric on the labelled description pairs (kSiamese;
  // a no-op in the other modes), then encode with the final encoder.
  {
    obs::SpanScope span("fit.siamese_calibrate");
    encoder_.FitSiamese(corpus, train_labels);
  }
  {
    obs::SpanScope span("fit.encode");
    util::ParallelFor(
        train_tokens.size(), /*grain=*/8,
        [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            EncodeEntity(encoder_, &train_tokens[i].left);
            EncodeEntity(encoder_, &train_tokens[i].right);
          }
        });
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
    scorer_.Fit(train_tokens, train_units, train_labels);
  }

  // 5. Score the units of every training record, which move into its
  // scored set, and prepare, generate and score each validation record.
  std::vector<ScoredUnitSet> train_sets(train_tokens.size());
  {
    obs::SpanScope span("fit.score_units");
    util::ParallelFor(
        train_tokens.size(), /*grain=*/8,
        [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            train_sets[i].scores =
                scorer_.Score(train_tokens[i], train_units[i]);
            train_sets[i].units = std::move(train_units[i]);
          }
        });
  }
  std::vector<ScoredUnitSet> val_sets(validation.size());
  {
    obs::SpanScope span("fit.validation_prepare");
    util::ParallelFor(
        validation.size(), /*grain=*/8, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            const data::EmRecord& record = validation.records[i];
            const TokenizedRecord tokenized{
                PrepareEntity(record.left, validation.schema),
                PrepareEntity(record.right, validation.schema)};
            val_sets[i].units = GenerateUnits(tokenized);
            val_sets[i].scores = ScoreUnits(tokenized, val_sets[i].units);
          }
        });
  }

  // 6. Train the classifier pool and select by validation F1.
  {
    obs::SpanScope span("fit.classifier_fit");
    matcher_.Fit(train_sets, train_labels, val_sets, validation.Labels());
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

double WymModel::PredictProbaFromUnits(const ScoredUnitSet& set,
                                       std::vector<double>* impacts) const {
  // No unit is left to support a match: the record loop's answer for a
  // pair with no tokens, and the end of every unit-removal curve.
  if (set.units.empty()) {
    if (impacts != nullptr) impacts->clear();
    return 0.0;
  }
  const double proba = matcher_.PredictProba(set, impacts);
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
  // Stage blocks, one per chunk and summed in chunk order, so the counts
  // do not depend on the thread count. Only a requested report pays for
  // the stage stamps; without one the loop reads the clock twice per
  // record, for record_ns.
  using Stages = PredictionReport::Stages;
  std::vector<Stages> chunk_stages(
      util::NumChunks(records.size(), kRecordChunk));
  const bool stage_clock = metrics && report != nullptr;
  util::ParallelFor(
      records.size(), kRecordChunk,
      [&](size_t begin, size_t end, size_t chunk) {
        Stages& stages = chunk_stages[chunk];
        // Candidate lists repeat an entity on consecutive records
        // (MatchTables sends each left row's candidates together). A
        // prepared entity is a pure function of its attribute values, so
        // a side whose values equal the previous record's keeps it.
        TokenizedRecord tokenized;
        // An explained record's impacts come out of its classify pass.
        std::vector<double> impacts;
        for (size_t i = begin; i < end; ++i) {
          obs::SpanScope span(record_span);
          const std::uint64_t t0 = metrics ? obs::NowNanos() : 0;
          std::uint64_t stamp = t0;
          const auto lap = [&](std::uint64_t Stages::*stage) {
            if (!stage_clock) return;
            const std::uint64_t now = obs::NowNanos();
            stages.*stage += now - stamp;
            stamp = now;
          };
          const data::EmRecord& record = records[i];
          const bool first = i == begin;
          if (first || record.left.values != records[i - 1].left.values) {
            tokenized.left = PrepareEntity(record.left, schema);
          } else {
            ++stages.entity_reuses;
          }
          if (first || record.right.values != records[i - 1].right.values) {
            tokenized.right = PrepareEntity(record.right, schema);
          } else {
            ++stages.entity_reuses;
          }
          lap(&Stages::encode_ns);
          stages.tokens += tokenized.left.size() + tokenized.right.size();
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
          lap(&Stages::units_ns);
          stages.units += set.size();
          stages.paired_units += std::count_if(
              set.units.begin(), set.units.end(),
              [](const DecisionUnit& unit) { return unit.paired; });
          set.scores = ScoreUnits(tokenized, set.units);
          lap(&Stages::score_ns);
          // Scorer stage boundary: relevance scores feed both the matcher
          // and the ranked explanation, so a NaN here corrupts both.
          WYM_DCHECK_FINITE(set.scores.data(), set.scores.size())
              << "non-finite unit relevance score";
          double probability =
              PredictProbaFromUnits(set, explain ? &impacts : nullptr);
          if (!std::isfinite(probability)) {
            reasons[i] = "non-finite match probability";
            probability = 0.0;
          }
          lap(&Stages::classify_ns);
          if (!explain) {
            probabilities[i] = probability;
          } else if (reasons[i] == nullptr) {
            Explanation& out = explanations[i];
            out.probability = probability;
            out.prediction = probability >= 0.5 ? 1 : 0;
            out.units.reserve(set.size());
            for (size_t u = 0; u < set.size(); ++u) {
              out.units.push_back(
                  {std::move(set.units[u]), set.scores[u], impacts[u]});
            }
            lap(&Stages::impacts_ns);
          }
          // The last stage stamp doubles as the record's end.
          if (metrics) {
            record_ns.Record((stage_clock ? stamp : obs::NowNanos()) - t0);
          }
        }
      },
      pool);

  size_t quarantined = 0;
  if (report != nullptr) {
    *report = PredictionReport{};
    Stages& total = report->stages;
    for (const Stages& part : chunk_stages) {
      total.encode_ns += part.encode_ns;
      total.units_ns += part.units_ns;
      total.score_ns += part.score_ns;
      total.classify_ns += part.classify_ns;
      total.impacts_ns += part.impacts_ns;
      total.tokens += part.tokens;
      total.units += part.units;
      total.paired_units += part.paired_units;
      total.entity_reuses += part.entity_reuses;
    }
  }
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
/// are returned separately (rules are code, not data). Returns false on
/// an out-of-range enum.
bool ReadConfigFields(serde::Deserializer* d, WymConfig* config,
                      uint64_t* rule_count, uint64_t* num_attributes) {
  config->tokenizer.lowercase = d->Bool();
  config->tokenizer.remove_stopwords = d->Bool();
  config->tokenizer.min_token_length = d->U64();
  config->generator.theta = d->F64();
  config->generator.eta = d->F64();
  config->generator.epsilon = d->F64();
  const uint64_t similarity = d->U64();
  if (similarity > static_cast<uint64_t>(PairingSimilarity::kJaroWinkler)) {
    return false;
  }
  config->generator.similarity = static_cast<PairingSimilarity>(similarity);
  *rule_count = d->U64();
  config->simplified_features = d->Bool();
  config->classifier = d->Str();
  *num_attributes = d->U64();
  return true;
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
    frames.push_back(io::FileFrame{name, std::move(payload).str()});
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
  // The frames hold their own payloads: drop the file image before any
  // state is built. Each payload then moves into the stream that reads
  // it, so it is freed once its section has loaded.
  std::string().swap(bytes);

  const auto section = [&frames,
                        &path](const char* name) -> Result<std::string*> {
    std::string* payload = FindFrame(frames, name);
    if (payload == nullptr) {
      return Status::Corruption("model file missing section '" +
                                std::string(name) + "': " + path);
    }
    return payload;
  };

  auto config_bytes = section(kSectionConfig);
  if (!config_bytes.ok()) return config_bytes.status();
  std::istringstream config_in(std::move(*config_bytes.value()));
  serde::Deserializer config_reader(&config_in);
  WymConfig config;
  uint64_t rule_count = 0;
  uint64_t num_attributes = 0;
  if (!config_reader.Tag("wym-config/v2")) {
    return Status::Corruption("bad config section tag: " + path);
  }
  if (!ReadConfigFields(&config_reader, &config, &rule_count,
                        &num_attributes) ||
      !config_reader.ok()) {
    return Status::Corruption("bad config section: " + path);
  }
  WYM_RETURN_IF_ERROR(CheckRuleCount(rule_count, rules));
  config.generator.rules = std::move(rules);

  WymModel model(config);
  model.num_attributes_ = num_attributes;
  const auto load_component = [&path](std::string* payload,
                                      const char* name,
                                      auto&& load) -> Status {
    std::istringstream in(std::move(*payload));
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
      payload.value(), kSectionEncoder,
      [&model](serde::Deserializer* d) { return model.encoder_.Load(d); }));
  payload = section(kSectionScorer);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      payload.value(), kSectionScorer,
      [&model](serde::Deserializer* d) { return model.scorer_.Load(d); }));
  // The scorer's network reads 2 * dim() features per unit: an encoder of
  // another width would abort the first prediction.
  const nn::Mlp& mlp = model.scorer_.mlp();
  if (mlp.fitted() && mlp.input_dim() != 2 * model.encoder_.dim()) {
    return Status::Corruption(
        "section 'scorer' expects " + std::to_string(mlp.input_dim()) +
        " unit features but section 'encoder' has dimension " +
        std::to_string(model.encoder_.dim()) + ": " + path);
  }
  payload = section(kSectionMatcher);
  if (!payload.ok()) return payload.status();
  WYM_RETURN_IF_ERROR(load_component(
      payload.value(), kSectionMatcher,
      [&model](serde::Deserializer* d) { return model.matcher_.Load(d); }));
  // Inference checks every record against the config's width and the
  // matcher computes features at its own: they must agree.
  if (num_attributes != model.matcher_.extractor().num_attributes()) {
    return Status::Corruption("config and matcher attribute counts differ: " +
                              path);
  }
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
