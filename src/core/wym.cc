#include "core/wym.h"

#include <algorithm>
#include <cmath>
#include <iostream>
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

/// Section names of the v2 container, in write order.
constexpr char kSectionConfig[] = "config";
constexpr char kSectionEncoder[] = "encoder";
constexpr char kSectionScorer[] = "scorer";
constexpr char kSectionMatcher[] = "matcher";

/// Serialized prefix of a legacy (format v1) model stream: the
/// length-prefixed "wym-model/v1" tag the old SaveToFile wrote first.
constexpr char kLegacyPrefix[] = "12 wym-model/v1";

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

TokenizedRecord WymModel::Prepare(const data::EmRecord& record) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  data::Schema schema;
  schema.attributes.resize(num_attributes_);  // Names are not needed here.
  WYM_CHECK_EQ(record.left.values.size(), num_attributes_);
  WYM_CHECK_EQ(record.right.values.size(), num_attributes_);
  TokenizedRecord tokenized = TokenizeRecord(record, schema, tokenizer_);
  EncodeEntity(encoder_, &tokenized.left);
  EncodeEntity(encoder_, &tokenized.right);
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

ScoredUnitSet WymModel::BuildScoredUnits(const TokenizedRecord& record) const {
  ScoredUnitSet set;
  set.units = GenerateUnits(record);
  set.scores = ScoreUnits(record, set.units);
  // Scorer stage boundary: relevance scores feed both the matcher and
  // the ranked explanation, so a NaN here corrupts both.
  WYM_DCHECK_FINITE(set.scores.data(), set.scores.size())
      << "non-finite unit relevance score";
  return set;
}

double WymModel::PredictProba(const data::EmRecord& record) const {
  return PredictProbaFromUnits(BuildScoredUnits(Prepare(record)));
}

double WymModel::PredictProbaFromUnits(const ScoredUnitSet& set) const {
  const double proba = matcher_.PredictProba(set);
  // Matcher stage boundary: probabilities must be finite (the classifier
  // pool squashes through a logistic, so NaN means poisoned features).
  WYM_DCHECK(std::isfinite(proba)) << "non-finite match probability";
  return proba;
}

Explanation WymModel::Explain(const data::EmRecord& record) const {
  return ExplainPrepared(Prepare(record));
}

Explanation WymModel::ExplainPrepared(const TokenizedRecord& tokenized) const {
  const ScoredUnitSet set = BuildScoredUnits(tokenized);

  Explanation out;
  out.probability = matcher_.PredictProba(set);
  out.prediction = out.probability >= 0.5 ? 1 : 0;
  const std::vector<double> impacts = matcher_.UnitImpacts(set);
  out.units.reserve(set.size());
  for (size_t u = 0; u < set.size(); ++u) {
    out.units.push_back({set.units[u], set.scores[u], impacts[u]});
  }
  return out;
}

namespace {

/// Reason a record cannot be predicted, or empty. Zero tokens on both
/// sides would trip the relevance scorer's at-least-one-entity contract
/// (an abort) — the batch paths quarantine such records instead.
std::string DegenerateReason(const TokenizedRecord& tokenized) {
  if (tokenized.left.tokens.empty() && tokenized.right.tokens.empty()) {
    return "zero tokens on both sides after tokenization";
  }
  return "";
}

/// Compacts per-index quarantine reasons (collected in parallel, by
/// index, so the result is deterministic) into the report.
void FillReport(const std::vector<std::string>& reasons,
                PredictionReport* report) {
  if (report == nullptr) return;
  *report = PredictionReport{};
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (reasons[i].empty()) {
      ++report->predicted;
    } else {
      report->quarantined.push_back({i, reasons[i]});
    }
  }
}

/// Bumps the batch-level counters (`<prefix>.records`,
/// `<prefix>.records_quarantined`) from the per-index reason vector —
/// after the parallel loop, so counting never touches the hot path.
void CountBatch(const std::vector<std::string>& reasons,
                obs::Counter& records, obs::Counter& quarantined) {
  if (!obs::MetricsEnabled()) return;
  records.Add(reasons.size());
  size_t bad = 0;
  for (const std::string& reason : reasons) {
    if (!reason.empty()) ++bad;
  }
  if (bad > 0) quarantined.Add(bad);
}

}  // namespace

std::vector<double> WymModel::PredictProbaBatch(const data::Dataset& dataset,
                                                util::ThreadPool* pool) const {
  return PredictProbaBatch(dataset, nullptr, pool);
}

std::vector<double> WymModel::PredictProbaBatch(const data::Dataset& dataset,
                                                PredictionReport* report,
                                                util::ThreadPool* pool) const {
  return PredictProbaRange(dataset.records.data(), dataset.records.size(),
                           report, pool);
}

std::vector<double> WymModel::PredictProbaBatch(
    const std::vector<data::EmRecord>& records, PredictionReport* report,
    util::ThreadPool* pool) const {
  return PredictProbaRange(records.data(), records.size(), report, pool);
}

std::vector<double> WymModel::PredictProbaRange(const data::EmRecord* batch,
                                                size_t n,
                                                PredictionReport* report,
                                                util::ThreadPool* pool) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  obs::SpanScope batch_span("predict.batch");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram& record_ns =
      obs::Registry::Global().GetHistogram("predict.record_ns");
  std::vector<double> out(n);
  std::vector<std::string> reasons(n);
  util::ParallelFor(
      n, /*grain=*/1,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          obs::SpanScope span("predict.record");
          const std::uint64_t t0 = metrics ? obs::NowNanos() : 0;
          const TokenizedRecord tokenized = Prepare(batch[i]);
          reasons[i] = DegenerateReason(tokenized);
          if (!reasons[i].empty()) {
            out[i] = 0.0;  // Non-match fallback; reported, never NaN.
            continue;
          }
          out[i] = PredictProbaFromUnits(BuildScoredUnits(tokenized));
          if (!std::isfinite(out[i])) {
            reasons[i] = "non-finite match probability";
            out[i] = 0.0;
          }
          if (metrics) record_ns.Record(obs::NowNanos() - t0);
        }
      },
      pool);
  FillReport(reasons, report);
  static obs::Counter& records =
      obs::Registry::Global().GetCounter("predict.records");
  static obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("predict.records_quarantined");
  CountBatch(reasons, records, quarantined);
  return out;
}

std::vector<Explanation> WymModel::ExplainBatch(const data::Dataset& dataset,
                                                util::ThreadPool* pool) const {
  return ExplainBatch(dataset, nullptr, pool);
}

std::vector<Explanation> WymModel::ExplainBatch(const data::Dataset& dataset,
                                                PredictionReport* report,
                                                util::ThreadPool* pool) const {
  WYM_CHECK(fitted_) << "WymModel used before Fit";
  obs::SpanScope batch_span("explain.batch");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram& record_ns =
      obs::Registry::Global().GetHistogram("explain.record_ns");
  std::vector<Explanation> out(dataset.size());
  std::vector<std::string> reasons(dataset.size());
  util::ParallelFor(
      dataset.size(), /*grain=*/1,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          obs::SpanScope span("explain.record");
          const std::uint64_t t0 = metrics ? obs::NowNanos() : 0;
          const TokenizedRecord tokenized = Prepare(dataset.records[i]);
          reasons[i] = DegenerateReason(tokenized);
          if (!reasons[i].empty()) {
            out[i] = Explanation{};  // Empty: prediction 0, no units.
            continue;
          }
          out[i] = ExplainPrepared(tokenized);
          if (metrics) record_ns.Record(obs::NowNanos() - t0);
        }
      },
      pool);
  FillReport(reasons, report);
  static obs::Counter& records =
      obs::Registry::Global().GetCounter("explain.records");
  static obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("explain.records_quarantined");
  CountBatch(reasons, records, quarantined);
  return out;
}

std::vector<int> WymModel::PredictDataset(const data::Dataset& dataset) const {
  // Chunked through the batch path so per-record scratch stays bounded
  // by the chunk, not the dataset — the same discipline the streaming
  // candidate tier applies on the blocking side.
  constexpr size_t kChunkRecords = 8192;
  std::vector<int> out(dataset.size());
  for (size_t begin = 0; begin < dataset.size(); begin += kChunkRecords) {
    const size_t n = std::min(kChunkRecords, dataset.size() - begin);
    const std::vector<double> probabilities =
        PredictProbaRange(dataset.records.data() + begin, n,
                          /*report=*/nullptr, /*pool=*/nullptr);
    for (size_t i = 0; i < n; ++i) {
      out[begin + i] = probabilities[i] >= 0.5 ? 1 : 0;
    }
  }
  return out;
}

namespace {

/// Serializes the config scalars needed to rebuild the stateless
/// components (shared by the v1 stream and the v2 "config" section).
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

Status WymModel::SaveToFileV1(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted WymModel");
  }
  std::ostringstream out;
  serde::Serializer s(&out);
  s.Tag("wym-model/v1");
  WriteConfigFields(&s, config_, num_attributes_);
  encoder_.Save(&s);
  scorer_.Save(&s);
  matcher_.Save(&s);
  return io::WriteFileAtomic(path, out.str())
      .Annotate("saving legacy v1 model to " + path);
}

Result<WymModel> WymModel::LoadFromFile(const std::string& path,
                                        std::vector<PairingRule> rules) {
  std::string bytes;
  const Status read = io::ReadFileToString(path, &bytes);
  if (!read.ok()) return read.Annotate("loading model");

  if (!io::LooksFramed(bytes, kModelMagic)) {
    // Legacy format v1: a bare serde stream opening with the v1 tag.
    if (bytes.compare(0, sizeof(kLegacyPrefix) - 1, kLegacyPrefix) != 0) {
      return Status::Corruption("not a WYM model file: " + path);
    }
    std::cerr << "wym: note: " << path
              << " is a legacy v1 model file (no integrity checksums); "
                 "re-save with SaveToFile to upgrade to format v2\n";
    std::istringstream in(bytes);
    serde::Deserializer d(&in);
    if (!d.Tag("wym-model/v1")) {
      return Status::Corruption("not a WYM model file: " + path);
    }
    WymConfig config;
    uint64_t rule_count = 0;
    uint64_t num_attributes = 0;
    ReadConfigFields(&d, &config, &rule_count, &num_attributes);
    if (!d.ok()) return Status::Corruption("truncated model header: " + path);
    WYM_RETURN_IF_ERROR(CheckRuleCount(rule_count, rules));
    config.generator.rules = std::move(rules);
    WymModel model(config);
    model.num_attributes_ = num_attributes;
    if (!model.encoder_.Load(&d)) {
      return Status::Corruption("bad encoder state: " + path);
    }
    if (!model.scorer_.Load(&d)) {
      return Status::Corruption("bad scorer state: " + path);
    }
    if (!model.matcher_.Load(&d)) {
      return Status::Corruption("bad matcher state: " + path);
    }
    if (!d.ok()) return Status::Corruption("truncated model file: " + path);
    model.fitted_ = true;
    return model;
  }

  // Format v2: verify the container — structure, per-section CRCs,
  // whole-file trailer — before deserializing anything.
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
    if (bytes.compare(0, sizeof(kLegacyPrefix) - 1, kLegacyPrefix) == 0) {
      if (summary != nullptr) {
        *summary = "legacy v1 model file (" + std::to_string(bytes.size()) +
                   " bytes): no integrity frames to verify; re-save to "
                   "upgrade to format v2\n";
      }
      return Status::Ok();
    }
    return Status::Corruption("not a WYM model file: " + path);
  }
  return io::VerifyFramedFile(bytes, kModelMagic, summary).Annotate(path);
}

}  // namespace wym::core
