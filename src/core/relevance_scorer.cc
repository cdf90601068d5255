#include "core/relevance_scorer.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/random.h"

namespace wym::core {

namespace {

/// Canonical key of a unit for the Eq. 3 averaging: the unordered token
/// pair for paired units, (token, [UNP]) for unpaired ones. Symmetry of
/// the key enforces rs((l,r)) == rs((r,l)) at target level (R3).
std::string UnitKey(const DecisionUnit& unit) {
  if (!unit.paired) return unit.UnpairedToken().token + "\x1f[UNP]";
  const std::string& a = unit.left.token;
  const std::string& b = unit.right.token;
  return (a <= b) ? a + "\x1f" + b : b + "\x1f" + a;
}

/// Embedding dimension of an encoded record (either side may be empty).
size_t EmbeddingDim(const TokenizedRecord& record) {
  const TokenizedEntity& encoded =
      record.left.embeddings.empty() ? record.right : record.left;
  WYM_CHECK(!encoded.embeddings.empty() && encoded.embedding_dim > 0)
      << "UnitFeatures needs at least one encoded entity";
  return encoded.embedding_dim;
}

/// Embedding `index` of `entity`, or nullptr for an entity without
/// embeddings (it reads as the zero [UNP] vector).
const float* EmbeddingOrNull(const TokenizedEntity& entity, size_t index,
                             size_t dim) {
  if (entity.embeddings.empty()) return nullptr;
  WYM_CHECK_EQ(entity.embedding_dim, dim);
  WYM_CHECK_LT(index, entity.embeddings.size() / dim);
  return entity.Embedding(index);
}

/// The one unit-feature fill behind Fit, Score and UnitFeatures: writes
/// mean ++ |diff| of the unit's two token embeddings (a missing side is
/// the zero [UNP] embedding) to row[0, 2 * dim). Mean and difference are
/// formed in float, then widened; trained models depend on this exact
/// rounding.
void FillUnitFeatures(const TokenizedRecord& record, const DecisionUnit& unit,
                      double* row) {
  const size_t dim = EmbeddingDim(record);
  const float* left = nullptr;
  const float* right = nullptr;
  if (unit.paired || unit.unpaired_side == Side::kLeft) {
    left = EmbeddingOrNull(record.left, unit.left.position, dim);
  }
  if (unit.paired || unit.unpaired_side == Side::kRight) {
    right = EmbeddingOrNull(record.right, unit.right.position, dim);
  }
  for (size_t i = 0; i < dim; ++i) {
    const float a = left != nullptr ? left[i] : 0.0f;
    const float b = right != nullptr ? right[i] : 0.0f;
    row[i] = 0.5f * (a + b);
    row[dim + i] = std::fabs(a - b);
  }
}

}  // namespace

RelevanceScorer::RelevanceScorer(Options options)
    : options_(options), mlp_(options.mlp) {}

std::vector<double> RelevanceScorer::UnitFeatures(
    const TokenizedRecord& record, const DecisionUnit& unit) {
  std::vector<double> features(2 * EmbeddingDim(record));
  FillUnitFeatures(record, unit, features.data());
  return features;
}

double RelevanceScorer::RawTarget(const DecisionUnit& unit, int label) const {
  if (!unit.paired) {
    // Unpaired evidence is consistent with non-match (-1); in matching
    // records it is neutralized to 0 (the R1 mirror case).
    return label == 1 ? 0.0 : -1.0;
  }
  if (label == 1) {
    return unit.similarity >= options_.alpha ? 1.0 : 0.0;
  }
  return unit.similarity < options_.beta ? -1.0 : 0.0;
}

void RelevanceScorer::Fit(
    const std::vector<TokenizedRecord>& records,
    const std::vector<std::vector<DecisionUnit>>& units_per_record,
    const std::vector<int>& labels) {
  WYM_CHECK_EQ(records.size(), units_per_record.size());
  WYM_CHECK_EQ(records.size(), labels.size());
  if (options_.kind != ScorerKind::kNeural) {
    fitted_ = true;
    return;
  }

  // Eq. 3: average the Eq. 2 targets over all occurrences of each
  // distinct unit.
  struct Aggregate {
    double sum = 0.0;
    size_t count = 0;
  };
  std::unordered_map<std::string, Aggregate> targets;
  size_t total_units = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    for (const auto& unit : units_per_record[r]) {
      Aggregate& agg = targets[UnitKey(unit)];
      agg.sum += RawTarget(unit, labels[r]);
      ++agg.count;
      ++total_units;
    }
  }
  if (total_units == 0) {
    fitted_ = true;
    return;
  }

  // Deterministic subsample when the corpus is large.
  double keep_probability = 1.0;
  if (total_units > options_.max_training_units) {
    keep_probability = static_cast<double>(options_.max_training_units) /
                       static_cast<double>(total_units);
  }
  Rng rng(options_.seed);

  // Pick the training occurrences; the network fills their feature rows
  // one minibatch at a time, so no training matrix is ever built.
  std::vector<std::pair<size_t, size_t>> picked;  // (record, unit)
  std::vector<double> y;
  picked.reserve(std::min(total_units, options_.max_training_units) + 64);
  for (size_t r = 0; r < records.size(); ++r) {
    for (size_t u = 0; u < units_per_record[r].size(); ++u) {
      if (keep_probability < 1.0 && !rng.Bernoulli(keep_probability)) {
        continue;
      }
      const Aggregate& agg = targets[UnitKey(units_per_record[r][u])];
      picked.emplace_back(r, u);
      y.push_back(agg.sum / static_cast<double>(agg.count));
    }
  }
  if (picked.empty()) {
    fitted_ = true;
    return;
  }

  const size_t width = 2 * EmbeddingDim(records[picked[0].first]);
  for (const auto& [r, u] : picked) {
    WYM_CHECK_EQ(2 * EmbeddingDim(records[r]), width);
  }
  mlp_ = nn::Mlp(options_.mlp);
  mlp_.Fit(
      picked.size(), width,
      [&](size_t i, double* row) {
        const auto [r, u] = picked[i];
        FillUnitFeatures(records[r], units_per_record[r][u], row);
      },
      y);
  fitted_ = true;
}

std::vector<double> RelevanceScorer::Score(
    const TokenizedRecord& record,
    const std::vector<DecisionUnit>& units) const {
  WYM_CHECK(fitted_) << "RelevanceScorer used before Fit";
  std::vector<double> scores(units.size());
  if (options_.kind == ScorerKind::kNeural && mlp_.fitted()) {
    if (units.empty()) return scores;
    // Units are scored one PredictRows block at a time, so the feature
    // scratch stays the size of one block however long the record is.
    const size_t width = 2 * EmbeddingDim(record);
    WYM_CHECK_EQ(width, mlp_.input_dim());
    const size_t block = nn::Mlp::kBlockRows;
    std::vector<double> features(std::min(units.size(), block) * width);
    for (size_t start = 0; start < units.size(); start += block) {
      const size_t rows = std::min(block, units.size() - start);
      for (size_t r = 0; r < rows; ++r) {
        FillUnitFeatures(record, units[start + r],
                         features.data() + r * width);
      }
      mlp_.PredictRows(features.data(), rows, scores.data() + start);
    }
    return scores;
  }
  for (size_t u = 0; u < units.size(); ++u) {
    const DecisionUnit& unit = units[u];
    if (options_.kind == ScorerKind::kCosine) {
      scores[u] = unit.paired ? std::clamp(unit.similarity, -1.0, 1.0) : -0.5;
    } else {
      // kBinary, and the kNeural fallback for a degenerate training
      // corpus (no MLP fitted).
      scores[u] = unit.paired ? 1.0 : -1.0;
    }
  }
  return scores;
}

void RelevanceScorer::Save(serde::Serializer* s) const {
  s->Tag("scorer/v1");
  s->U64(static_cast<uint64_t>(options_.kind));
  s->F64(options_.alpha);
  s->F64(options_.beta);
  s->Bool(fitted_);
  s->Bool(mlp_.fitted());
  if (mlp_.fitted()) mlp_.Save(s);
}

bool RelevanceScorer::Load(serde::Deserializer* d) {
  if (!d->Tag("scorer/v1")) return false;
  const uint64_t kind = d->U64();
  if (!d->ok() || kind > static_cast<uint64_t>(ScorerKind::kCosine)) {
    return false;
  }
  options_.kind = static_cast<ScorerKind>(kind);
  options_.alpha = d->F64();
  options_.beta = d->F64();
  fitted_ = d->Bool();
  const bool has_mlp = d->Bool();
  if (has_mlp && !mlp_.Load(d)) return false;
  return d->ok();
}

}  // namespace wym::core
