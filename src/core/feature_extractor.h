#ifndef WYM_CORE_FEATURE_EXTRACTOR_H_
#define WYM_CORE_FEATURE_EXTRACTOR_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/decision_unit.h"

/// \file
/// The explainable matcher's feature engineering (paper §4.3): statistics
/// (max, min, count, sum, mean, median, range) over the relevance scores,
/// aggregated per attribute, per entity description and per record —
/// injecting structural and pragmatic knowledge into the classifier. The
/// extractor also provides the *inverse* transformation: for every
/// feature, the attribution weight of each decision unit (e.g. 1/N for a
/// mean over N units), which routes trained coefficients back to units to
/// form impact scores.

namespace wym::core {

/// A record's decision units plus their relevance scores (parallel).
struct ScoredUnitSet {
  std::vector<DecisionUnit> units;
  std::vector<double> scores;

  size_t size() const { return units.size(); }
};

/// One feature's contribution channel to a unit.
struct FeatureContribution {
  size_t feature = 0;
  double weight = 0.0;
  /// Count-style features carry their direction in the coefficient, so
  /// their impact uses |relevance| instead of the signed relevance
  /// (otherwise an unpaired unit's negative relevance would flip the sign
  /// of a negative "unpaired_count" coefficient into a spurious positive
  /// impact).
  bool magnitude = false;
};

/// Sparse per-unit attribution: attribution[u] lists the contributions.
using UnitAttribution = std::vector<std::vector<FeatureContribution>>;

/// Turns scored units into classifier features.
class FeatureExtractor {
 public:
  /// `num_attributes` = schema width. `simplified` selects the 6-feature
  /// variant of the Table 4 "Matcher / smp. feat." ablation (count and
  /// mean over all / positive / negative scores).
  explicit FeatureExtractor(size_t num_attributes, bool simplified = false);

  /// Number of features produced.
  size_t dim() const { return layout_.size(); }

  /// Stable, human-readable feature names (used by tests and benches).
  const std::vector<std::string>& feature_names() const { return names_; }

  bool simplified() const { return simplified_; }
  size_t num_attributes() const { return num_attributes_; }

  /// Extracts the feature row of one record.
  std::vector<double> Extract(const ScoredUnitSet& set) const;

  /// The inverse transformation: per-unit attribution weights over the
  /// features (paper §4.3: a mean over N units contributes 1/N to each;
  /// sums contribute 1; counts spread 1/N; min/max/median attach to the
  /// achieving unit; range is +1 on the max and -1 on the min unit).
  UnitAttribution Attribution(const ScoredUnitSet& set) const;

 private:
  /// The statistics a feature takes over its group of units.
  enum class Stat { kCount, kSum, kMean, kMedian, kMax, kMin, kRange };

  /// One feature: `stat` over the units of group `group` (the group
  /// numbering is in feature_extractor.cc).
  struct Feature {
    size_t group;
    Stat stat;
  };

  static const char* StatName(Stat stat);

  /// Emits `stat` over `members` (unit indices) as feature
  /// `feature_index` and, when `attribution` is non-null, its per-unit
  /// weights.
  static void EmitStat(Stat stat, const std::vector<size_t>& members,
                       const std::vector<double>& scores,
                       size_t feature_index, std::vector<double>* features,
                       UnitAttribution* attribution);

  void Compute(const ScoredUnitSet& set, std::vector<double>* features,
               UnitAttribution* attribution) const;

  size_t num_attributes_;
  bool simplified_;
  /// The feature layout, in feature order: built once by the
  /// constructor; names_ is rendered from it and Compute walks it.
  std::vector<Feature> layout_;
  std::vector<std::string> names_;
};

}  // namespace wym::core

#endif  // WYM_CORE_FEATURE_EXTRACTOR_H_
