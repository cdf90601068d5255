// Regenerates Table 3: F1 of WYM vs the four baseline systems on the 12
// datasets, with per-dataset ranks and deltas. Expected shape: DITTO
// best on average; WYM / AutoML / CorDEL / DM+ close to each other; the
// easy datasets (S-FZ, S-IA, S-DA) near 1.0 and the hard ones (S-AG,
// T-AB, D-WA) lowest.

#include <cstdio>
#include <memory>

#include "baselines/automl.h"
#include "baselines/cordel.h"
#include "baselines/ditto.h"
#include "baselines/dm_plus.h"
#include "bench_common.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace wym;
  bench::PerfReport report =
      bench::PerfReport::FromArgs("table3", &argc, argv);
  bench::PrintBanner("Table 3: effectiveness (F1) vs competing systems");
  const double scale = bench::ScaleFromEnv();

  const std::vector<std::string> systems = {"WYM", "DM+", "AutoML", "CorDEL",
                                            "DITTO"};
  TablePrinter table({"Dataset", "WYM", "DM+", "AutoML", "CorDEL", "DITTO",
                      "rank(WYM)", "dDM+%", "dAutoML%", "dCorDEL%",
                      "dDITTO%"});
  std::vector<std::vector<double>> all_scores(systems.size());
  std::vector<double> all_ranks;

  for (const auto& spec : bench::SelectedSpecs()) {
    const bench::PreparedData data = bench::Prepare(spec, scale);

    std::vector<double> f1(systems.size());
    {
      const core::WymModel model = bench::TrainWym(data);
      // PredictDataset is the parallel batch path (PredictProbaBatch on
      // the global WYM_THREADS pool).
      f1[0] = bench::TestF1(model, data.split);
    }
    {
      baselines::DmPlusMatcher model;
      model.Fit(data.split.train, data.split.validation);
      f1[1] = bench::TestF1(model, data.split);
    }
    {
      baselines::AutoMlMatcher model;
      model.Fit(data.split.train, data.split.validation);
      f1[2] = bench::TestF1(model, data.split);
    }
    {
      baselines::CordelMatcher model;
      model.Fit(data.split.train, data.split.validation);
      f1[3] = bench::TestF1(model, data.split);
    }
    {
      baselines::DittoMatcher model;
      model.Fit(data.split.train, data.split.validation);
      f1[4] = bench::TestF1(model, data.split);
    }

    // Rank of WYM (1 = best; ties share the better rank as in the paper).
    size_t rank = 1;
    for (size_t s = 1; s < systems.size(); ++s) {
      if (f1[s] > f1[0]) ++rank;
    }

    std::vector<std::string> row = {spec.id};
    for (size_t s = 0; s < systems.size(); ++s) {
      row.push_back(strings::FormatDouble(f1[s], 3));
      all_scores[s].push_back(f1[s]);
    }
    row.push_back(std::to_string(rank));
    for (size_t s = 1; s < systems.size(); ++s) {
      row.push_back(strings::FormatDouble(100.0 * (f1[0] - f1[s]), 1));
    }
    table.AddRow(row);
    all_ranks.push_back(static_cast<double>(rank));
    std::printf("  [done] %s\n", spec.id.c_str());
  }

  std::printf("\n");
  std::vector<std::string> avg_row = {"AVG"};
  for (size_t s = 0; s < all_scores.size(); ++s) {
    avg_row.push_back(strings::FormatDouble(stats::Mean(all_scores[s]), 3));
  }
  avg_row.push_back(strings::FormatDouble(stats::Mean(all_ranks), 1));
  for (size_t s = 1; s < systems.size(); ++s) {
    avg_row.push_back(strings::FormatDouble(
        100.0 * (stats::Mean(all_scores[0]) - stats::Mean(all_scores[s])),
        1));
  }
  table.AddRow(avg_row);
  table.Print();

  report.AddRate("table3.f1_wym_mean", stats::Mean(all_scores[0]));
  report.Write();
  return 0;
}
