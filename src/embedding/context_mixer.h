#ifndef WYM_EMBEDDING_CONTEXT_MIXER_H_
#define WYM_EMBEDDING_CONTEXT_MIXER_H_

#include <cstddef>

#include "la/vector_ops.h"

/// \file
/// Attention-like context mixing: every token's vector is blended with a
/// softmax-weighted average of the other tokens in the same entity
/// description. This is what makes the encoder *contextual* — the same
/// token in two different descriptions gets two different vectors — which
/// the paper obtains from BERT's hidden states (challenge R4).

namespace wym::embedding {

/// Options for ContextMixer.
struct ContextMixerOptions {
  /// Fraction in [0, 1] of the context vector blended into each token
  /// (0 = off); SemanticEncoder::Load refuses any other value.
  double blend = 0.3;
  /// Softmax temperature over cosine similarities; lower = peakier.
  double temperature = 0.25;
};

/// Stateless contextualization pass over one description's token block.
class ContextMixer {
 public:
  using Options = ContextMixerOptions;

  explicit ContextMixer(Options options = {});

  /// Contextualizes `block` in place: one row of `dim` floats per token,
  /// row-major; each row becomes a unit-norm blend of itself and its
  /// context. A single-token block is left as-is (no context exists).
  void Mix(size_t dim, la::Vec* block) const;

 private:
  Options options_;
};

}  // namespace wym::embedding

#endif  // WYM_EMBEDDING_CONTEXT_MIXER_H_
