#include "core/unit_generator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "la/kernels.h"
#include "la/matrix.h"
#include "matching/stable_marriage.h"
#include "text/string_metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wym::core {

namespace {

/// GetSMPairs of Algorithm 1: stable marriage between the tokens listed
/// in `left_indices` and `right_indices`, preferences read from the
/// precomputed full L x R similarity matrix, truncated at `threshold`.
/// Returns (left flat index, right flat index, similarity) triples.
struct SmPair {
  size_t left;
  size_t right;
  double similarity;
};

std::vector<SmPair> GetSmPairs(const la::Matrix& sim_full,
                               const std::vector<size_t>& left_indices,
                               const std::vector<size_t>& right_indices,
                               double threshold) {
  if (left_indices.empty() || right_indices.empty()) return {};
  la::Matrix sim(left_indices.size(), right_indices.size());
  for (size_t i = 0; i < left_indices.size(); ++i) {
    const double* full_row = sim_full.Row(left_indices[i]);
    double* row = sim.Row(i);
    for (size_t j = 0; j < right_indices.size(); ++j) {
      row[j] = full_row[right_indices[j]];
    }
  }
  std::vector<SmPair> out;
  out.reserve(std::min(left_indices.size(), right_indices.size()));
  for (const auto& pair : matching::StableMarriage(sim, threshold)) {
    out.push_back({left_indices[pair.left], right_indices[pair.right],
                   pair.similarity});
  }
  return out;
}

/// The encoder's row contract: every row of the entity's embedding block
/// is unit-norm or all-zero.
bool RowsAreUnitOrZero(const TokenizedEntity& entity) {
  for (size_t i = 0; i < entity.size(); ++i) {
    const double squared =
        la::kernels::SquaredNorm(entity.Embedding(i), entity.embedding_dim);
    if (squared != 0.0 && !(std::abs(squared - 1.0) <= 1e-5)) return false;
  }
  return true;
}

TokenRef MakeRef(const TokenizedEntity& entity, size_t flat_index) {
  return {entity.attribute_of[flat_index], flat_index,
          entity.tokens[flat_index]};
}

}  // namespace

DecisionUnitGenerator::DecisionUnitGenerator(UnitGeneratorOptions options)
    : options_(std::move(options)) {}

la::Matrix DecisionUnitGenerator::PairSimilarityMatrix(
    const TokenizedEntity& left, const TokenizedEntity& right) const {
  la::Matrix sim(left.size(), right.size());
  if (left.size() == 0 || right.size() == 0) return sim;

  if (options_.similarity == PairingSimilarity::kJaroWinkler) {
    for (size_t l = 0; l < left.size(); ++l) {
      double* row = sim.Row(l);
      for (size_t r = 0; r < right.size(); ++r) {
        row[r] = text::JaroWinklerSimilarity(left.tokens[l], right.tokens[r]);
      }
    }
  } else {
    WYM_CHECK(left.embedding_dim > 0 &&
              left.embeddings.size() == left.size() * left.embedding_dim)
        << "embeddings missing on the left entity";
    WYM_CHECK(right.embedding_dim > 0 &&
              right.embeddings.size() == right.size() * right.embedding_dim)
        << "embeddings missing on the right entity";
    WYM_CHECK_EQ(left.embedding_dim, right.embedding_dim)
        << "left/right embedding dims differ";
    WYM_DCHECK(RowsAreUnitOrZero(left) && RowsAreUnitOrZero(right))
        << "embedding rows are neither unit-norm nor all-zero";
    // Rows are unit-norm or all-zero, so one A * B^T kernel call over
    // the encoder's blocks yields the full cosine matrix.
    la::kernels::SimilarityMatrix(left.embeddings.data(), left.size(),
                                  right.embeddings.data(), right.size(),
                                  left.embedding_dim, sim.data().data());
  }

  if (!options_.rules.empty()) {
    for (size_t l = 0; l < left.size(); ++l) {
      double* row = sim.Row(l);
      for (size_t r = 0; r < right.size(); ++r) {
        for (const PairingRule& rule : options_.rules) {
          if (!rule(left.tokens[l], right.tokens[r])) {
            row[r] = -1.0;  // Vetoed: below any threshold.
            break;
          }
        }
      }
    }
  }
  return sim;
}

std::vector<DecisionUnit> DecisionUnitGenerator::Generate(
    const TokenizedEntity& left, const TokenizedEntity& right,
    size_t num_attributes) const {
  // All four stable-marriage phases read the same token-pair
  // similarities, so the full L x R matrix is computed once up front
  // (one kernel call in the embedding case) and indexed per phase.
  const la::Matrix sim = PairSimilarityMatrix(left, right);

  std::vector<DecisionUnit> units;
  std::vector<bool> left_paired(left.size(), false);
  std::vector<bool> right_paired(right.size(), false);

  auto add_pair = [&](const SmPair& pair, UnitPhase phase) {
    DecisionUnit unit;
    unit.paired = true;
    unit.phase = phase;
    unit.left = MakeRef(left, pair.left);
    unit.right = MakeRef(right, pair.right);
    unit.similarity = pair.similarity;
    units.push_back(std::move(unit));
  };

  // Phase 1 — intra-attribute correspondences (threshold theta).
  for (size_t attr = 0; attr < num_attributes; ++attr) {
    const std::vector<size_t> l_attr = left.TokensOfAttribute(attr);
    const std::vector<size_t> r_attr = right.TokensOfAttribute(attr);
    for (const SmPair& pair :
         GetSmPairs(sim, l_attr, r_attr, options_.theta)) {
      left_paired[pair.left] = true;
      right_paired[pair.right] = true;
      add_pair(pair, UnitPhase::kIntraAttribute);
    }
  }

  auto unpaired_of = [](const std::vector<bool>& flags) {
    std::vector<size_t> out;
    for (size_t i = 0; i < flags.size(); ++i) {
      if (!flags[i]) out.push_back(i);
    }
    return out;
  };

  // Phase 2 — inter-attribute correspondences over leftovers (eta).
  for (const SmPair& pair : GetSmPairs(
           sim, unpaired_of(left_paired), unpaired_of(right_paired),
           options_.eta)) {
    left_paired[pair.left] = true;
    right_paired[pair.right] = true;
    add_pair(pair, UnitPhase::kInterAttribute);
  }

  // Phase 3 — one-to-many: leftovers against the *already paired* tokens
  // of the other entity (epsilon). This creates chains representing
  // repetitions and periphrasis (challenge R2).
  std::vector<size_t> right_already_paired;
  for (size_t r = 0; r < right.size(); ++r) {
    if (right_paired[r]) right_already_paired.push_back(r);
  }
  for (const SmPair& pair :
       GetSmPairs(sim, unpaired_of(left_paired), right_already_paired,
                  options_.epsilon)) {
    left_paired[pair.left] = true;  // Right token stays in its other unit.
    add_pair(pair, UnitPhase::kOneToMany);
  }
  std::vector<size_t> left_already_paired;
  for (size_t l = 0; l < left.size(); ++l) {
    if (left_paired[l]) left_already_paired.push_back(l);
  }
  // Mirror direction: unpaired right tokens propose to paired left tokens.
  {
    const std::vector<size_t> r_free = unpaired_of(right_paired);
    if (!r_free.empty() && !left_already_paired.empty()) {
      // Transposed view of the precomputed matrix: right tokens propose.
      la::Matrix sim_matrix(r_free.size(), left_already_paired.size());
      for (size_t i = 0; i < r_free.size(); ++i) {
        double* row = sim_matrix.Row(i);
        for (size_t j = 0; j < left_already_paired.size(); ++j) {
          row[j] = sim.Row(left_already_paired[j])[r_free[i]];
        }
      }
      for (const auto& pair :
           matching::StableMarriage(sim_matrix, options_.epsilon)) {
        const size_t r_index = r_free[pair.left];
        const size_t l_index = left_already_paired[pair.right];
        right_paired[r_index] = true;
        DecisionUnit unit;
        unit.paired = true;
        unit.phase = UnitPhase::kOneToMany;
        unit.left = MakeRef(left, l_index);
        unit.right = MakeRef(right, r_index);
        unit.similarity = pair.similarity;
        units.push_back(std::move(unit));
      }
    }
  }

  // Remaining tokens become unpaired units.
  for (size_t l = 0; l < left.size(); ++l) {
    if (left_paired[l]) continue;
    DecisionUnit unit;
    unit.paired = false;
    unit.phase = UnitPhase::kUnpaired;
    unit.unpaired_side = Side::kLeft;
    unit.left = MakeRef(left, l);
    units.push_back(std::move(unit));
  }
  for (size_t r = 0; r < right.size(); ++r) {
    if (right_paired[r]) continue;
    DecisionUnit unit;
    unit.paired = false;
    unit.phase = UnitPhase::kUnpaired;
    unit.unpaired_side = Side::kRight;
    unit.right = MakeRef(right, r);
    units.push_back(std::move(unit));
  }
  return units;
}

bool CheckUnitConstraints(const std::vector<DecisionUnit>& units,
                          const TokenizedEntity& left,
                          const TokenizedEntity& right) {
  std::set<size_t> left_in_paired, right_in_paired;
  std::set<size_t> left_in_unpaired, right_in_unpaired;
  for (const auto& unit : units) {
    if (unit.paired) {
      left_in_paired.insert(unit.left.position);
      right_in_paired.insert(unit.right.position);
    } else if (unit.unpaired_side == Side::kLeft) {
      left_in_unpaired.insert(unit.left.position);
    } else {
      right_in_unpaired.insert(unit.right.position);
    }
  }
  // Constraint 1: full coverage.
  for (size_t l = 0; l < left.size(); ++l) {
    if (left_in_paired.count(l) == 0 && left_in_unpaired.count(l) == 0) {
      return false;
    }
  }
  for (size_t r = 0; r < right.size(); ++r) {
    if (right_in_paired.count(r) == 0 && right_in_unpaired.count(r) == 0) {
      return false;
    }
  }
  // Constraint 2: exclusivity.
  for (size_t l : left_in_unpaired) {
    if (left_in_paired.count(l) > 0) return false;
  }
  for (size_t r : right_in_unpaired) {
    if (right_in_paired.count(r) > 0) return false;
  }
  return true;
}

PairingRule EqualProductCodeRule() {
  return [](const std::string& left, const std::string& right) {
    if (strings::IsAlphanumericCode(left) &&
        strings::IsAlphanumericCode(right)) {
      return left == right;
    }
    return true;
  };
}

}  // namespace wym::core
