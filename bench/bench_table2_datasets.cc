// Regenerates Table 2 (the benchmark's descriptive statistics) and
// Figure 4 (average distribution of paired/unpaired decision units in
// matching vs non-matching records, with T-AB's unpaired outlier).

#include <cstdio>

#include "bench_common.h"
#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "util/string_util.h"
#include "util/table.h"

namespace wym {
namespace {

struct UnitStats {
  double paired_match = 0.0;
  double unpaired_match = 0.0;
  double paired_non_match = 0.0;
  double unpaired_non_match = 0.0;
};

/// Counts average paired/unpaired units per record class using the
/// fine-tuned encoder (Figure 4 is computed before any matcher training).
UnitStats CollectUnitStats(const data::Dataset& dataset) {
  const text::Tokenizer tokenizer;
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kFineTuned;
  encoder_options.hash_dim = 32;
  encoder_options.cooc_dim = 16;
  embedding::SemanticEncoder encoder(encoder_options);

  std::vector<core::TokenizedRecord> records;
  std::vector<std::vector<std::string>> corpus;
  for (const auto& record : dataset.records) {
    core::TokenizedRecord tokenized =
        core::TokenizeRecord(record, dataset.schema, tokenizer);
    corpus.push_back(tokenized.left.tokens);
    corpus.push_back(tokenized.right.tokens);
    records.push_back(std::move(tokenized));
  }
  encoder.Fit(corpus);

  const core::DecisionUnitGenerator generator;
  UnitStats stats;
  size_t matches = 0, non_matches = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    core::TokenizedRecord& record = records[r];
    core::EncodeEntity(encoder, &record.left);
    core::EncodeEntity(encoder, &record.right);
    size_t paired = 0, unpaired = 0;
    for (const auto& unit : generator.Generate(record.left, record.right,
                                               dataset.schema.size())) {
      (unit.paired ? paired : unpaired) += 1;
    }
    if (dataset.records[r].label == 1) {
      ++matches;
      stats.paired_match += static_cast<double>(paired);
      stats.unpaired_match += static_cast<double>(unpaired);
    } else {
      ++non_matches;
      stats.paired_non_match += static_cast<double>(paired);
      stats.unpaired_non_match += static_cast<double>(unpaired);
    }
  }
  if (matches > 0) {
    stats.paired_match /= static_cast<double>(matches);
    stats.unpaired_match /= static_cast<double>(matches);
  }
  if (non_matches > 0) {
    stats.paired_non_match /= static_cast<double>(non_matches);
    stats.unpaired_non_match /= static_cast<double>(non_matches);
  }
  return stats;
}

}  // namespace
}  // namespace wym

int main() {
  using namespace wym;
  bench::PrintBanner("Table 2: benchmark datasets / Figure 4: unit mix");
  const double scale = bench::ScaleFromEnv();

  TablePrinter table2({"Dataset", "Type", "Datasets", "Paper size",
                       "Paper %match", "Gen. size", "Gen. %match"});
  std::vector<std::pair<std::string, UnitStats>> figure4;
  for (const auto& spec : bench::SelectedSpecs()) {
    const data::Dataset dataset =
        data::GenerateDataset(spec, bench::kSeed, scale);
    table2.AddRow({spec.id, data::DatasetTypeName(spec.type), spec.full_name,
                   std::to_string(spec.paper_size),
                   strings::FormatDouble(spec.paper_match_percent, 2),
                   std::to_string(dataset.size()),
                   strings::FormatDouble(dataset.MatchPercent(), 2)});
    figure4.emplace_back(spec.id, CollectUnitStats(dataset));
  }
  table2.Print();

  std::printf("\nFigure 4: average decision units per record\n");
  TablePrinter fig4({"Dataset", "paired(match)", "unpaired(match)",
                     "paired(non-match)", "unpaired(non-match)"});
  for (const auto& [id, stats] : figure4) {
    fig4.AddRow(id, {stats.paired_match, stats.unpaired_match,
                     stats.paired_non_match, stats.unpaired_non_match},
                1);
  }
  fig4.Print();
  std::printf(
      "\nExpected shape: non-matching records carry more units overall and\n"
      "more unpaired than paired; the textual T-AB shows the largest\n"
      "unpaired counts (periphrasis in long descriptions).\n");
  return 0;
}
