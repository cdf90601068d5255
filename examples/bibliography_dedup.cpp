// Bibliographic deduplication on dirty data: trains WYM on the dirty
// DBLP-GoogleScholar-style dataset (attribute values spilled into the
// wrong columns, challenge R2) and shows how inter-attribute decision
// units recover the misplaced correspondences.
//
// Run: ./build/examples/bibliography_dedup

#include <cstdio>
#include <map>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "ml/metrics.h"

int main() {
  const wym::data::Dataset dataset =
      wym::data::GenerateById("D-DG", /*seed=*/11, /*scale=*/0.5);
  const wym::data::Split split = wym::data::DefaultSplit(dataset, 11);
  std::printf("dataset %s: %zu records (%.1f%% match)\n",
              dataset.name.c_str(), dataset.size(), dataset.MatchPercent());

  wym::core::WymModel model;
  model.Fit(split.train, split.validation);
  std::printf("selected classifier: %s\n",
              model.matcher().best_name().c_str());
  std::printf("test F1: %.3f\n",
              wym::ml::F1Score(split.test.Labels(),
                               model.PredictDataset(split.test)));

  // How often does each Algorithm 1 phase fire on dirty data? Phase 2
  // (inter-attribute, threshold eta) is what rescues spilled values.
  std::map<wym::core::UnitPhase, size_t> phase_counts;
  size_t total_units = 0;
  for (const auto& explanation : model.ExplainBatch(split.test)) {
    for (const auto& explained : explanation.units) {
      ++phase_counts[explained.unit.phase];
      ++total_units;
    }
  }
  auto share = [&](wym::core::UnitPhase phase) {
    return 100.0 * static_cast<double>(phase_counts[phase]) /
           static_cast<double>(total_units);
  };
  std::printf("\ndecision units on the test set (%zu total):\n", total_units);
  std::printf("  intra-attribute pairs (theta): %5.1f%%\n",
              share(wym::core::UnitPhase::kIntraAttribute));
  std::printf("  inter-attribute pairs (eta):   %5.1f%%  <- dirty rescue\n",
              share(wym::core::UnitPhase::kInterAttribute));
  std::printf("  one-to-many pairs (epsilon):   %5.1f%%\n",
              share(wym::core::UnitPhase::kOneToMany));
  std::printf("  unpaired units:                %5.1f%%\n",
              share(wym::core::UnitPhase::kUnpaired));
  return 0;
}
