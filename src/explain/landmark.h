#ifndef WYM_EXPLAIN_LANDMARK_H_
#define WYM_EXPLAIN_LANDMARK_H_

#include <cstdint>

#include "core/matcher.h"
#include "explain/token_explanation.h"

/// \file
/// Landmark Explanation stand-in (Baraldi et al., CIKM 2021): the
/// post-hoc EM explainer the paper compares WYM against in Figure 9.
/// Unlike plain LIME, Landmark perturbs *one* entity description at a
/// time while the other acts as a fixed landmark, producing per-entity
/// token attributions that respect the pairwise structure of EM records.
/// Each pass is LIME's perturbation model (internal::FitPerturbationModel)
/// restricted to the tokens of one side.

namespace wym::explain {

/// Options for LandmarkExplainer.
struct LandmarkOptions {
  /// Perturbations generated per entity (the paper's experiment uses 100).
  size_t num_samples = 100;
  double dropout = 0.3;
  double kernel_width = 0.35;
  double ridge = 1e-3;
  uint64_t seed = 0x1A2D;
};

/// Landmark-style post-hoc explainer.
class LandmarkExplainer {
 public:
  using Options = LandmarkOptions;

  explicit LandmarkExplainer(Options options = {});

  /// Explains `matcher` on `record`: left-entity tokens are attributed
  /// with the right entity as landmark and vice versa; the two halves are
  /// concatenated.
  TokenLevelExplanation Explain(const core::Matcher& matcher,
                                const data::EmRecord& record) const;

 private:
  /// One landmark pass: perturb only `perturbed_side`.
  void ExplainSide(const core::Matcher& matcher,
                   const data::EmRecord& record, core::Side perturbed_side,
                   TokenLevelExplanation* out) const;

  Options options_;
  text::Tokenizer tokenizer_;
};

}  // namespace wym::explain

#endif  // WYM_EXPLAIN_LANDMARK_H_
