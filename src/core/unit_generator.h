#ifndef WYM_CORE_UNIT_GENERATOR_H_
#define WYM_CORE_UNIT_GENERATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "core/decision_unit.h"
#include "core/tokenized_record.h"
#include "la/matrix.h"

/// \file
/// Algorithm 1 of the paper (DecisionUnitDiscovery): three phases of
/// relaxed stable-marriage pairing over token similarities —
///   1. intra-attribute pairs at threshold theta,
///   2. inter-attribute pairs over the leftovers at threshold eta,
///   3. one-to-many pairs between leftovers and already-paired tokens of
///      the other description at threshold epsilon —
/// followed by collection of the remaining tokens as unpaired units.

namespace wym::core {

/// Similarity used to build the preference lists.
enum class PairingSimilarity {
  /// Cosine of the contextual token embeddings (WYM default).
  kEmbedding,
  /// Jaro-Winkler over the token strings (Table 4 syntactic baseline).
  kJaroWinkler,
};

/// A domain-knowledge rule (paper §5.1.1 / §6 future work): returning
/// false vetoes a candidate pairing. Example: "alphanumeric product codes
/// may only pair when equal" raised T-AB F1 from 0.645 to 0.754.
using PairingRule =
    std::function<bool(const std::string& left, const std::string& right)>;

/// Options for DecisionUnitGenerator.
struct UnitGeneratorOptions {
  /// Intra-attribute threshold (paper setting theta = 0.6).
  double theta = 0.6;
  /// Inter-attribute threshold (eta = 0.65).
  double eta = 0.65;
  /// One-to-many threshold (epsilon = 0.7).
  double epsilon = 0.7;
  PairingSimilarity similarity = PairingSimilarity::kEmbedding;
  /// Optional pairing veto rules (all must accept a pairing).
  std::vector<PairingRule> rules;
};

/// Extracts the decision units of a record.
class DecisionUnitGenerator {
 public:
  explicit DecisionUnitGenerator(UnitGeneratorOptions options = {});

  /// Runs Algorithm 1. Requires embeddings to be filled when the
  /// similarity source is kEmbedding. `num_attributes` is the schema
  /// width. Paired units come first (discovery order), then unpaired.
  ///
  /// The full L x R token similarity matrix is computed once up front —
  /// a single SIMD kernel call over the packed unit embeddings in the
  /// kEmbedding case (see la/kernels.h) — and all four stable-marriage
  /// phases index into it instead of re-evaluating per-cell similarity.
  std::vector<DecisionUnit> Generate(const TokenizedEntity& left,
                                     const TokenizedEntity& right,
                                     size_t num_attributes) const;

  /// The precomputed similarity matrix Generate works from: cosine of
  /// unit embeddings (or Jaro-Winkler), with vetoed cells forced to -1.
  /// Exposed for tests and the micro benches.
  la::Matrix PairSimilarityMatrix(const TokenizedEntity& left,
                                  const TokenizedEntity& right) const;

  const UnitGeneratorOptions& options() const { return options_; }

 private:
  UnitGeneratorOptions options_;
};

/// Checks the two structural constraints of §3.1.1 on a generated unit
/// set: full token coverage and paired/unpaired exclusivity. Used by
/// tests and by WymModel's debug mode.
bool CheckUnitConstraints(const std::vector<DecisionUnit>& units,
                          const TokenizedEntity& left,
                          const TokenizedEntity& right);

/// The product-code rule from the paper's error analysis: alphanumeric
/// model codes pair only when string-equal.
PairingRule EqualProductCodeRule();

}  // namespace wym::core

#endif  // WYM_CORE_UNIT_GENERATOR_H_
