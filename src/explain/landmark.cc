#include "explain/landmark.h"

#include "explain/lime.h"

namespace wym::explain {

LandmarkExplainer::LandmarkExplainer(Options options) : options_(options) {}

void LandmarkExplainer::ExplainSide(const core::Matcher& matcher,
                                    const data::EmRecord& record,
                                    core::Side perturbed_side,
                                    TokenLevelExplanation* out) const {
  const std::vector<TokenKey> all_tokens =
      EnumerateTokens(record, tokenizer_);
  // Indices of the tokens on the perturbed side; the other side is the
  // landmark and stays intact.
  std::vector<size_t> side_tokens;
  for (size_t t = 0; t < all_tokens.size(); ++t) {
    if (all_tokens[t].side == perturbed_side) side_tokens.push_back(t);
  }

  const LimeOptions perturbation = {
      .num_samples = options_.num_samples,
      .dropout = options_.dropout,
      .kernel_width = options_.kernel_width,
      .ridge = options_.ridge,
      .seed = options_.seed ^
              (perturbed_side == core::Side::kLeft ? 0x11ull : 0x22ull)};
  const std::vector<double> beta = internal::FitPerturbationModel(
      matcher, record, all_tokens, side_tokens, out->base_probability,
      perturbation);
  for (size_t i = 0; i < side_tokens.size(); ++i) {
    out->weights.push_back({all_tokens[side_tokens[i]], beta[i]});
  }
}

TokenLevelExplanation LandmarkExplainer::Explain(
    const core::Matcher& matcher, const data::EmRecord& record) const {
  TokenLevelExplanation out;
  out.base_probability = matcher.PredictProba(record);
  ExplainSide(matcher, record, core::Side::kLeft, &out);
  ExplainSide(matcher, record, core::Side::kRight, &out);
  return out;
}

}  // namespace wym::explain
