// Regenerates Table 5: test F1 of every classifier in the explainable
// matcher's pool, per dataset, with per-dataset and per-classifier
// averages and standard deviations. Expected shape: all classifiers
// close (low per-dataset SD); the winner varies by dataset.

#include <cstdio>

#include "bench_common.h"
#include "ml/classifier_pool.h"
#include "ml/metrics.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wym;
  bench::PrintBanner("Table 5: the classifier pool (F1 per model)");
  const double scale = bench::ScaleFromEnv();

  const std::vector<std::string> names = ml::PoolMemberNames();
  std::vector<std::string> headers = {"Dataset"};
  for (const auto& name : names) headers.push_back(name);
  headers.push_back("Avg.");
  headers.push_back("S.D.");
  TablePrinter table(headers);

  std::vector<std::vector<double>> per_classifier(names.size());
  for (const auto& spec : bench::SelectedSpecs()) {
    const bench::PreparedData data = bench::Prepare(spec, scale);
    const core::WymModel model = bench::TrainWym(data);

    // Scored unit sets of the test records, once, from the record loop.
    std::vector<core::ScoredUnitSet> test_sets;
    test_sets.reserve(data.split.test.size());
    for (const auto& explanation : model.ExplainBatch(data.split.test)) {
      core::ScoredUnitSet set;
      for (const auto& explained : explanation.units) {
        set.units.push_back(explained.unit);
        set.scores.push_back(explained.relevance);
      }
      test_sets.push_back(std::move(set));
    }
    const std::vector<int> truth = data.split.test.Labels();

    std::vector<double> row_scores;
    const auto& pool = model.matcher().pool();
    for (size_t c = 0; c < pool.size(); ++c) {
      std::vector<int> predicted;
      predicted.reserve(test_sets.size());
      for (const auto& set : test_sets) {
        predicted.push_back(model.matcher().PredictWith(*pool[c], set));
      }
      const double f1 = ml::F1Score(truth, predicted);
      row_scores.push_back(f1);
      per_classifier[c].push_back(f1);
    }
    std::vector<std::string> row = {spec.id};
    for (double f1 : row_scores) {
      row.push_back(strings::FormatDouble(f1, 3));
    }
    row.push_back(strings::FormatDouble(stats::Mean(row_scores), 3));
    row.push_back(strings::FormatDouble(stats::StdDev(row_scores), 3));
    table.AddRow(row);
    std::printf("  [done] %s (selected: %s)\n", spec.id.c_str(),
                model.matcher().best_name().c_str());
  }

  std::vector<std::string> avg = {"Avg."};
  std::vector<std::string> sd = {"S.D."};
  for (const auto& scores : per_classifier) {
    avg.push_back(strings::FormatDouble(stats::Mean(scores), 3));
    sd.push_back(strings::FormatDouble(stats::StdDev(scores), 3));
  }
  avg.push_back("-");
  avg.push_back("-");
  sd.push_back("-");
  sd.push_back("-");
  table.AddRow(avg);
  table.AddRow(sd);
  std::printf("\n");
  table.Print();
  return 0;
}
