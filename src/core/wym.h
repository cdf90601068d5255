#ifndef WYM_CORE_WYM_H_
#define WYM_CORE_WYM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/explainable_matcher.h"
#include "core/matcher.h"
#include "core/relevance_scorer.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "data/record.h"
#include "embedding/semantic_encoder.h"
#include "text/tokenizer.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/status.h"

/// \file
/// The WYM facade: the full "Why do You Match?" pipeline of the paper —
/// tokenize -> encode -> discover decision units (Algorithm 1) -> score
/// their relevance -> engineer features -> classify -> attribute impact
/// scores. This is the library's primary public API.
///
/// Typical use:
/// \code
///   wym::core::WymModel model;                 // default WymConfig
///   model.Fit(split.train, split.validation);
///   auto explanation = model.Explain(record);  // prediction + units
/// \endcode

namespace wym::core {

/// End-to-end configuration of the pipeline. Defaults reproduce the
/// paper's setting (theta/eta/epsilon = 0.6/0.65/0.7, SBERT-like encoder,
/// neural relevance scorer, full feature engineering, best-of-pool
/// classifier selection).
struct WymConfig {
  text::TokenizerOptions tokenizer;
  /// Pairing thresholds. The paper's values (0.6 / 0.65 / 0.7) are tuned
  /// to BERT's cosine geometry; the substitute hash-gram + PPMI encoder
  /// has a wider cosine spread, so the calibrated defaults sit lower
  /// while preserving the increasing theta < eta < epsilon ordering the
  /// paper prescribes (§4.1.2).
  UnitGeneratorOptions generator = {.theta = 0.45,
                                    .eta = 0.50,
                                    .epsilon = 0.55,
                                    .similarity =
                                        PairingSimilarity::kEmbedding,
                                    .rules = {}};
  embedding::SemanticEncoderOptions encoder = {
      .mode = embedding::EncoderMode::kSiamese,
      .hash_dim = 32,
      .cooc_dim = 16,
      .cooc = {},
      .context = {},
      .siamese = {},
      .seed = 0xE11C0DE};
  RelevanceScorerOptions scorer;
  /// Use the 6-feature simplified matcher (Table 4 ablation).
  bool simplified_features = false;
  /// Pin the classifier ("LR", ..., empty = best-of-pool).
  std::string classifier;
  uint64_t seed = 0x3717;
};

/// One explained decision unit.
struct ExplainedUnit {
  DecisionUnit unit;
  double relevance = 0.0;
  double impact = 0.0;
};

/// Per-run quarantine report of the prediction APIs. Degenerate records
/// — zero tokens on both sides after tokenization, or a non-finite
/// probability — are not predictable; instead of answering from an empty
/// unit set or propagating NaNs, every predict/explain call gives them
/// the non-match fallback (probability 0.0, prediction 0) and the batch
/// calls list them here.
struct PredictionReport {
  struct Quarantined {
    size_t index = 0;     ///< Record index within the batch.
    std::string reason;   ///< Why the record could not be predicted.
  };
  std::vector<Quarantined> quarantined;
  /// Records that went through the full pipeline.
  size_t predicted = 0;

  /// Where the record loop's work went. Counts are exact and identical
  /// at every thread count. The `*_ns` fields are filled only while
  /// metrics are on (WYM_METRICS): per-thread wall time of each stage,
  /// summed over the loop's chunks. Reporting only; nothing reads it
  /// back into a computation.
  struct Stages {
    std::uint64_t encode_ns = 0;    ///< Tokenize + encode both sides.
    std::uint64_t units_ns = 0;     ///< Decision-unit generation.
    std::uint64_t score_ns = 0;     ///< Relevance scoring.
    std::uint64_t classify_ns = 0;  ///< Probability (+ impact sums).
    std::uint64_t impacts_ns = 0;   ///< Explanation assembly (explain only).
    std::uint64_t tokens = 0;       ///< Tokens of both sides.
    std::uint64_t units = 0;
    std::uint64_t paired_units = 0;
    /// Sides that reused the previous record's prepared entity.
    std::uint64_t entity_reuses = 0;
  };
  Stages stages;

  bool clean() const { return quarantined.empty(); }
};

/// Prediction plus explanation for one record (paper §3.1: EX(r)).
struct Explanation {
  int prediction = 0;
  double probability = 0.0;
  std::vector<ExplainedUnit> units;

  /// Unit indices sorted by |impact| descending (explanation reading
  /// order; also used by the conciseness and MoRF/LeRF evaluations).
  std::vector<size_t> RankByImpactMagnitude() const;
};

/// The intrinsically interpretable EM system.
class WymModel : public Matcher {
 public:
  explicit WymModel(WymConfig config = {});

  const char* name() const override { return "WYM"; }

  /// Trains the full pipeline. `validation` steers classifier selection
  /// (pass an empty dataset to select on training F1).
  void Fit(const data::Dataset& train,
           const data::Dataset& validation) override;

  /// Matching probability for a record: the batch of one, so the
  /// degenerate-record rule below applies here too.
  double PredictProba(const data::EmRecord& record) const override;

  /// Prediction + decision units with relevance and impact scores: the
  /// batch of one of ExplainBatch.
  Explanation Explain(const data::EmRecord& record) const;

  /// --- batch APIs (deterministic parallel runtime) ---
  ///
  /// Every predict/explain entry point runs one record loop: tokenize
  /// -> encode -> degenerate-record check -> units -> score -> classify
  /// (-> impacts). Records are independent, so the loop fans them across
  /// `pool` (the global WYM_THREADS pool when nullptr) and writes
  /// results by record index; output is bit-identical at every thread
  /// count — see DESIGN.md "Threading model". A `data::Dataset` and a
  /// `std::vector<data::EmRecord>` both convert to the record span.
  ///
  /// Degenerate records — zero tokens on both sides, or a non-finite
  /// probability — get the non-match fallback (probability 0.0,
  /// prediction 0, no units) and are listed in `report` when non-null;
  /// the loop never aborts on bad records and never emits NaN. A
  /// non-null `report` also receives the loop's stage block.

  /// Matching probabilities for `records`, in order.
  std::vector<double> PredictProbaBatch(
      std::span<const data::EmRecord> records,
      PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const;

  /// Explanations for `records`, in order.
  std::vector<Explanation> ExplainBatch(
      std::span<const data::EmRecord> records,
      PredictionReport* report = nullptr,
      util::ThreadPool* pool = nullptr) const;

  /// Hard predictions: PredictProbaBatch thresholded at 0.5.
  std::vector<int> PredictDataset(const data::Dataset& dataset) const override;

  /// --- lower-level hooks used by the evaluation harnesses ---

  /// Tokenizes + encodes a record with the trained encoder.
  TokenizedRecord Prepare(const data::EmRecord& record) const;

  /// Decision units of a prepared record.
  std::vector<DecisionUnit> GenerateUnits(const TokenizedRecord& record) const;

  /// Relevance scores for given units.
  std::vector<double> ScoreUnits(const TokenizedRecord& record,
                                 const std::vector<DecisionUnit>& units) const;

  /// Probability from an explicit (possibly perturbed) scored unit set —
  /// the entry point of the MoRF/LeRF/sufficiency experiments, which
  /// remove units and re-predict. A non-null `impacts` also receives the
  /// unit impacts (ExplainableMatcher::PredictProba). A set with no units
  /// answers 0 (non-match) with no impacts.
  double PredictProbaFromUnits(const ScoredUnitSet& set,
                               std::vector<double>* impacts = nullptr) const;

  /// Persists the trained pipeline (encoder state, scorer network,
  /// selected classifier, calibration) in model-file format v2: a framed
  /// container with a magic + format-version header, one
  /// length-prefixed, CRC32C-checksummed section per component, and a
  /// whole-file trailer (see DESIGN.md "Failure model & file-format
  /// v2"). The write is atomic (temp file -> flush -> fsync -> rename),
  /// so a crashed or out-of-space save never clobbers a previous good
  /// model. Custom pairing rules (config().generator.rules) are code,
  /// not data: they are NOT serialized and must be re-registered via
  /// LoadFromFile's config parameter.
  [[nodiscard]] Status SaveToFile(const std::string& path) const;

  /// Restores a SaveToFile()d model. Format v2 files are verified frame
  /// by frame before any state is deserialized; damage yields
  /// `Status::Corruption` naming the broken section; anything that is
  /// not a framed v2 file is `Status::Corruption` too. `rules` re-attaches
  /// the pairing rules that were active at training time (empty = none).
  static Result<WymModel> LoadFromFile(
      const std::string& path, std::vector<PairingRule> rules = {});

  /// Checks a model file's structure and every CRC without
  /// deserializing any model state (the `wym_cli verify` backend).
  /// `summary` (optional) receives a per-frame report. A file that is
  /// not a framed v2 file is `Status::Corruption`.
  [[nodiscard]] static Status VerifyFile(const std::string& path,
                                         std::string* summary = nullptr);

  bool fitted() const { return fitted_; }
  const WymConfig& config() const { return config_; }
  const ExplainableMatcher& matcher() const { return matcher_; }
  const embedding::SemanticEncoder& encoder() const { return encoder_; }
  size_t num_attributes() const { return num_attributes_; }

 private:
  /// The record loop behind every entry point above, and the only code
  /// that times the inference stages. Fills `probabilities` or, when
  /// non-null, `explanations` (one slot per record), and `report`.
  void RunRecords(std::span<const data::EmRecord> records,
                  double* probabilities, Explanation* explanations,
                  PredictionReport* report, util::ThreadPool* pool) const;

  /// The anonymous schema of num_attributes() attributes that inference
  /// tokenizes against.
  data::Schema InferenceSchema() const;

  /// Tokenizes + encodes one entity description: the per-entity half of
  /// Prepare.
  TokenizedEntity PrepareEntity(const data::Entity& entity,
                                const data::Schema& schema) const;

  WymConfig config_;
  text::Tokenizer tokenizer_;
  embedding::SemanticEncoder encoder_;
  DecisionUnitGenerator generator_;
  RelevanceScorer scorer_;
  ExplainableMatcher matcher_;
  size_t num_attributes_ = 0;
  bool fitted_ = false;
};

}  // namespace wym::core

#endif  // WYM_CORE_WYM_H_
