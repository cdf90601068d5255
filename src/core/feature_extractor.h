#ifndef WYM_CORE_FEATURE_EXTRACTOR_H_
#define WYM_CORE_FEATURE_EXTRACTOR_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/decision_unit.h"

/// \file
/// The explainable matcher's feature engineering (paper §4.3): statistics
/// (max, min, count, sum, mean, median, range) over the relevance scores,
/// aggregated per attribute, per entity description and per record —
/// injecting structural and pragmatic knowledge into the classifier. The
/// same walk also runs the *inverse* transformation: given one
/// coefficient per feature, it routes each coefficient back to the units
/// the feature was computed from (e.g. 1/N to each unit of a mean over N
/// units) to form their impact scores.

namespace wym::core {

/// A record's decision units plus their relevance scores (parallel).
struct ScoredUnitSet {
  std::vector<DecisionUnit> units;
  std::vector<double> scores;

  size_t size() const { return units.size(); }
};

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

  /// Writes the dim() features of `set` into `row`. When `impacts` is
  /// non-null it also receives, in the same walk, each unit's impact
  /// under `coefficients` (one per feature; paper §4.3): the mean, over
  /// the features the unit contributes to, of coefficient x weight x
  /// relevance. The weights are the inverse transformation: a mean or a
  /// count over N units gives each 1/N, a sum 1, min/max/median attach
  /// to the achieving unit (1/2 each to the middle two of an even
  /// median), and a range is +1 on the max and -1 on the min unit.
  /// Counts carry their direction in the coefficient, so they use the
  /// relevance magnitude; every other statistic the signed relevance.
  void Compute(const ScoredUnitSet& set, std::span<double> row,
               std::span<const double> coefficients = {},
               std::vector<double>* impacts = nullptr) const;

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

  /// Returns `stat` over `members` (unit indices into `scores`) and
  /// calls attribute(unit, weight) for each unit it is computed from.
  template <typename Attribute>
  static double EmitStat(Stat stat, const std::vector<size_t>& members,
                         const std::vector<double>& scores,
                         const Attribute& attribute);

  size_t num_attributes_;
  bool simplified_;
  /// The feature layout, in feature order: built once by the
  /// constructor; names_ is rendered from it and Compute walks it.
  std::vector<Feature> layout_;
  std::vector<std::string> names_;
};

}  // namespace wym::core

#endif  // WYM_CORE_FEATURE_EXTRACTOR_H_
