#ifndef WYM_EXPLAIN_LIME_H_
#define WYM_EXPLAIN_LIME_H_

#include <cstdint>
#include <vector>

#include "core/matcher.h"
#include "explain/token_explanation.h"

/// \file
/// LIME for EM (Ribeiro et al. 2016, as applied by Mojito/DITTO analyses):
/// samples token-dropout perturbations of the record, queries the
/// black-box matcher, and fits a locally-weighted ridge regression whose
/// coefficients are the token attributions. Used in Figure 7 to explain
/// both WYM and the DITTO stand-in post hoc.

namespace wym::explain {

/// Options for LimeExplainer.
struct LimeOptions {
  /// Number of perturbation samples per explanation (the paper configures
  /// Landmark with 100 perturbations per entity; LIME uses the same
  /// order).
  size_t num_samples = 100;
  /// Per-token dropout probability when sampling a perturbation.
  double dropout = 0.3;
  /// Exponential kernel width over the dropped-token fraction.
  double kernel_width = 0.35;
  /// Ridge regularization of the local linear model.
  double ridge = 1e-3;
  uint64_t seed = 0x11ED;
};

namespace internal {

/// The perturbation model LIME and Landmark share: draws
/// `options.num_samples` dropout masks over the tokens at `droppable`
/// (indices into `tokens`, the EnumerateTokens list of `record`; every
/// other token stays), queries `matcher` on each masked record, weights a
/// sample by the exponential kernel over its dropped fraction and fits a
/// weighted ridge, anchored by the unperturbed record at
/// `base_probability`. Returns one coefficient per entry of `droppable`,
/// none when it is empty.
std::vector<double> FitPerturbationModel(const core::Matcher& matcher,
                                         const data::EmRecord& record,
                                         const std::vector<TokenKey>& tokens,
                                         const std::vector<size_t>& droppable,
                                         double base_probability,
                                         const LimeOptions& options);

}  // namespace internal

/// Post-hoc token-level explainer for any Matcher.
class LimeExplainer {
 public:
  using Options = LimeOptions;

  explicit LimeExplainer(Options options = {});

  /// Explains one prediction of `matcher` on `record`.
  TokenLevelExplanation Explain(const core::Matcher& matcher,
                                const data::EmRecord& record) const;

 private:
  Options options_;
  text::Tokenizer tokenizer_;
};

}  // namespace wym::explain

#endif  // WYM_EXPLAIN_LIME_H_
