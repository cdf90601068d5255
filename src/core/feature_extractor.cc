#include "core/feature_extractor.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>

#include "util/logging.h"

namespace wym::core {

namespace {

/// Unit groups, numbered as Compute fills them: the record- and
/// description-scope groups, then for attribute a its paired units at
/// kAttributeGroups + 2a and its unpaired units at kAttributeGroups +
/// 2a + 1.
enum Group : size_t {
  kAll,
  kPositive,
  kNegative,
  kPaired,
  kUnpaired,
  kLeftUnpaired,
  kRightUnpaired,
  kAttributeGroups,
};

std::string GroupName(size_t group) {
  switch (group) {
    case kAll:
      return "all";
    case kPositive:
      return "pos";
    case kNegative:
      return "neg";
    case kPaired:
      return "paired";
    case kUnpaired:
      return "unpaired";
    case kLeftUnpaired:
      return "left_unpaired";
    case kRightUnpaired:
      return "right_unpaired";
  }
  const size_t offset = group - kAttributeGroups;
  return "attr" + std::to_string(offset / 2) +
         (offset % 2 == 0 ? "_paired" : "_unpaired");
}

}  // namespace

const char* FeatureExtractor::StatName(Stat stat) {
  switch (stat) {
    case Stat::kCount:
      return "count";
    case Stat::kSum:
      return "sum";
    case Stat::kMean:
      return "mean";
    case Stat::kMedian:
      return "median";
    case Stat::kMax:
      return "max";
    case Stat::kMin:
      return "min";
    case Stat::kRange:
      return "range";
  }
  return "?";
}

template <typename Attribute>
double FeatureExtractor::EmitStat(Stat stat, const std::vector<size_t>& members,
                                  const std::vector<double>& scores,
                                  const Attribute& attribute) {
  const size_t n = members.size();
  if (n == 0) return 0.0;

  switch (stat) {
    case Stat::kCount: {
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      return static_cast<double>(n);
    }
    case Stat::kSum: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      for (size_t u : members) attribute(u, 1.0);
      return sum;
    }
    case Stat::kMean: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      return sum / static_cast<double>(n);
    }
    case Stat::kMedian: {
      std::vector<size_t> sorted = members;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](size_t a, size_t b) {
                         return scores[a] < scores[b];
                       });
      if (n % 2 == 1) {
        const size_t mid = sorted[n / 2];
        attribute(mid, 1.0);
        return scores[mid];
      }
      const size_t lo = sorted[n / 2 - 1];
      const size_t hi = sorted[n / 2];
      attribute(lo, 0.5);
      attribute(hi, 0.5);
      return 0.5 * (scores[lo] + scores[hi]);
    }
    case Stat::kMax: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[best]) best = u;
      }
      attribute(best, 1.0);
      return scores[best];
    }
    case Stat::kMin: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] < scores[best]) best = u;
      }
      attribute(best, 1.0);
      return scores[best];
    }
    case Stat::kRange: {
      size_t max_u = members[0], min_u = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[max_u]) max_u = u;
        if (scores[u] < scores[min_u]) min_u = u;
      }
      attribute(max_u, 1.0);
      attribute(min_u, -1.0);
      return scores[max_u] - scores[min_u];
    }
  }
  return 0.0;
}

FeatureExtractor::FeatureExtractor(size_t num_attributes, bool simplified)
    : num_attributes_(num_attributes), simplified_(simplified) {
  auto add = [&](size_t group, std::initializer_list<Stat> stats) {
    for (const Stat stat : stats) layout_.push_back({group, stat});
  };
  if (simplified_) {
    // Paper §5.1.3: 6 features — count and average over all scores, the
    // positive scores and the negative scores.
    add(kAll, {Stat::kCount, Stat::kMean});
    add(kPositive, {Stat::kCount, Stat::kMean});
    add(kNegative, {Stat::kCount, Stat::kMean});
  } else {
    for (size_t a = 0; a < num_attributes_; ++a) {
      add(kAttributeGroups + 2 * a,
          {Stat::kCount, Stat::kMean, Stat::kMax, Stat::kMin});
      add(kAttributeGroups + 2 * a + 1,
          {Stat::kCount, Stat::kMean, Stat::kMin});
    }
    // Entity-description scope.
    add(kLeftUnpaired, {Stat::kCount, Stat::kMean});
    add(kRightUnpaired, {Stat::kCount, Stat::kMean});
    // Record scope.
    add(kAll, {Stat::kCount, Stat::kSum, Stat::kMean, Stat::kMedian,
               Stat::kMax, Stat::kMin, Stat::kRange});
    add(kPositive, {Stat::kCount, Stat::kSum, Stat::kMean});
    add(kNegative, {Stat::kCount, Stat::kSum, Stat::kMean});
    add(kPaired, {Stat::kCount, Stat::kMean});
    add(kUnpaired, {Stat::kCount, Stat::kMean});
  }
  for (const Feature& feature : layout_) {
    names_.push_back(GroupName(feature.group) + "_" + StatName(feature.stat));
  }
}

void FeatureExtractor::Compute(const ScoredUnitSet& set,
                               std::span<double> row,
                               std::span<const double> coefficients,
                               std::vector<double>* impacts) const {
  WYM_CHECK_EQ(set.units.size(), set.scores.size());
  WYM_CHECK_EQ(row.size(), dim());

  // Group memberships, numbered as in Group.
  std::vector<std::vector<size_t>> groups(kAttributeGroups +
                                          2 * num_attributes_);
  for (size_t u = 0; u < set.size(); ++u) {
    const DecisionUnit& unit = set.units[u];
    groups[kAll].push_back(u);
    groups[set.scores[u] > 0.0 ? kPositive : kNegative].push_back(u);
    const size_t attr = std::min(unit.AnchorAttribute(),
                                 num_attributes_ == 0 ? 0
                                                      : num_attributes_ - 1);
    if (unit.paired) {
      groups[kPaired].push_back(u);
      if (num_attributes_ > 0) groups[kAttributeGroups + 2 * attr].push_back(u);
    } else {
      groups[kUnpaired].push_back(u);
      if (num_attributes_ > 0) {
        groups[kAttributeGroups + 2 * attr + 1].push_back(u);
      }
      groups[unit.unpaired_side == Side::kLeft ? kLeftUnpaired
                                               : kRightUnpaired]
          .push_back(u);
    }
  }

  // Each unit sums its contributions in layout order; the impact is
  // their mean.
  std::vector<size_t> touched;
  if (impacts != nullptr) {
    WYM_CHECK_EQ(coefficients.size(), dim());
    impacts->assign(set.size(), 0.0);
    touched.assign(set.size(), 0);
  }
  for (size_t f = 0; f < layout_.size(); ++f) {
    const Stat stat = layout_[f].stat;
    row[f] = EmitStat(stat, groups[layout_[f].group], set.scores,
                      [&](size_t u, double weight) {
                        if (impacts == nullptr) return;
                        const double relevance = stat == Stat::kCount
                                                     ? std::abs(set.scores[u])
                                                     : set.scores[u];
                        (*impacts)[u] += coefficients[f] * weight * relevance;
                        ++touched[u];
                      });
  }
  if (impacts == nullptr) return;
  for (size_t u = 0; u < set.size(); ++u) {
    if (touched[u] > 0) (*impacts)[u] /= static_cast<double>(touched[u]);
  }
}

}  // namespace wym::core
