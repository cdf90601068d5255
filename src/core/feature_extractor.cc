#include "core/feature_extractor.h"

#include <algorithm>
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

void FeatureExtractor::EmitStat(Stat stat, const std::vector<size_t>& members,
                                const std::vector<double>& scores,
                                size_t feature_index,
                                std::vector<double>* features,
                                UnitAttribution* attribution) {
  const size_t n = members.size();
  const bool magnitude = (stat == Stat::kCount);
  auto attribute = [&](size_t unit, double weight) {
    if (attribution != nullptr && weight != 0.0) {
      (*attribution)[unit].push_back({feature_index, weight, magnitude});
    }
  };

  if (n == 0) {
    features->push_back(0.0);
    return;
  }

  switch (stat) {
    case Stat::kCount: {
      features->push_back(static_cast<double>(n));
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      break;
    }
    case Stat::kSum: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      features->push_back(sum);
      for (size_t u : members) attribute(u, 1.0);
      break;
    }
    case Stat::kMean: {
      double sum = 0.0;
      for (size_t u : members) sum += scores[u];
      features->push_back(sum / static_cast<double>(n));
      const double weight = 1.0 / static_cast<double>(n);
      for (size_t u : members) attribute(u, weight);
      break;
    }
    case Stat::kMedian: {
      std::vector<size_t> sorted = members;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](size_t a, size_t b) {
                         return scores[a] < scores[b];
                       });
      if (n % 2 == 1) {
        const size_t mid = sorted[n / 2];
        features->push_back(scores[mid]);
        attribute(mid, 1.0);
      } else {
        const size_t lo = sorted[n / 2 - 1];
        const size_t hi = sorted[n / 2];
        features->push_back(0.5 * (scores[lo] + scores[hi]));
        attribute(lo, 0.5);
        attribute(hi, 0.5);
      }
      break;
    }
    case Stat::kMax: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[best]) best = u;
      }
      features->push_back(scores[best]);
      attribute(best, 1.0);
      break;
    }
    case Stat::kMin: {
      size_t best = members[0];
      for (size_t u : members) {
        if (scores[u] < scores[best]) best = u;
      }
      features->push_back(scores[best]);
      attribute(best, 1.0);
      break;
    }
    case Stat::kRange: {
      size_t max_u = members[0], min_u = members[0];
      for (size_t u : members) {
        if (scores[u] > scores[max_u]) max_u = u;
        if (scores[u] < scores[min_u]) min_u = u;
      }
      features->push_back(scores[max_u] - scores[min_u]);
      attribute(max_u, 1.0);
      attribute(min_u, -1.0);
      break;
    }
  }
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
                               std::vector<double>* features,
                               UnitAttribution* attribution) const {
  WYM_CHECK_EQ(set.units.size(), set.scores.size());
  features->clear();
  features->reserve(dim());
  if (attribution != nullptr) {
    attribution->assign(set.size(), {});
  }

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

  for (size_t f = 0; f < layout_.size(); ++f) {
    EmitStat(layout_[f].stat, groups[layout_[f].group], set.scores, f,
             features, attribution);
  }
}

std::vector<double> FeatureExtractor::Extract(const ScoredUnitSet& set) const {
  std::vector<double> features;
  Compute(set, &features, nullptr);
  return features;
}

UnitAttribution FeatureExtractor::Attribution(const ScoredUnitSet& set) const {
  std::vector<double> features;
  UnitAttribution attribution;
  Compute(set, &features, &attribution);
  return attribution;
}

}  // namespace wym::core
