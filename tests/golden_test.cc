// Golden behaviour files: end-to-end WYM output at a fixed dataset,
// seed and scale, compared field by field against the files committed
// under tests/golden/. A refactor that is meant to keep predictions and
// explanations byte-identical must pass this test without touching the
// files; a deliberate behaviour change regenerates them with
//   golden_test --write-golden
// so every changed number shows up in the diff.
//
// Each file is a list of "key value" lines: the test F1, the %.17g
// probability of the first kProbabilities test records, and for the
// first kExplained test records every decision unit's phase, tokens,
// %.17g similarity and %.17g impact, plus the exact ExplanationToJson
// bytes. S-WA-KNN.txt is the same render of an S-WA model whose
// classifier is pinned to KNN, which no default selection picks here;
// its impacts pin KNN's surrogate importance, computed in Fit through
// PredictProba. wire.txt holds the exact bytes of wym-serve/v1 requests and
// responses and of a wym-analysis-report/v1 document, built from fixed
// inputs whose strings carry every character JSON must escape.
// blocking.txt holds the candidate-generation output over the S-WA test
// split's left and right entities, taken as two raw tables: the LSH-on
// CandidateStream count and first candidates, every MatchTables match
// and its stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/findings.h"
#include "blocking/candidate_stream.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "explain/report.h"
#include "ml/metrics.h"
#include "serve/protocol.h"

namespace wym {
namespace {

constexpr uint64_t kSeed = 42;
constexpr double kScale = 0.25;
constexpr size_t kProbabilities = 64;
constexpr size_t kExplained = 8;
constexpr size_t kCandidates = 64;

const char* const kDatasets[] = {"S-WA", "T-AB"};

bool g_write_golden = false;

using Record = std::vector<std::pair<std::string, std::string>>;

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* PhaseName(core::UnitPhase phase) {
  switch (phase) {
    case core::UnitPhase::kIntraAttribute:
      return "intra";
    case core::UnitPhase::kInterAttribute:
      return "inter";
    case core::UnitPhase::kOneToMany:
      return "one-to-many";
    case core::UnitPhase::kUnpaired:
      return "unpaired";
  }
  return "?";
}

/// A dataset, its default split and the model fitted on it.
struct Trained {
  data::Dataset dataset;
  data::Split split;
  core::WymModel model;
};

/// Trains WYM on `dataset_id` once per process, with the classifier
/// pinned to `classifier` (empty = best-of-pool selection); the golden
/// renders that share a dataset and classifier share its model.
const Trained& Train(const std::string& dataset_id,
                     const std::string& classifier = "") {
  static std::map<std::string, std::unique_ptr<Trained>> cache;
  std::unique_ptr<Trained>& slot = cache[dataset_id + "/" + classifier];
  if (slot == nullptr) {
    core::WymConfig config;
    config.classifier = classifier;
    slot = std::make_unique<Trained>(Trained{{}, {}, core::WymModel(config)});
    slot->dataset = data::GenerateById(dataset_id, kSeed, kScale);
    slot->split = data::DefaultSplit(slot->dataset, kSeed);
    slot->model.Fit(slot->split.train, slot->split.validation);
  }
  return *slot;
}

/// Renders the golden record of the model trained on `dataset_id` with
/// `classifier` pinned (empty = best-of-pool selection).
Record Render(const std::string& dataset_id,
              const std::string& classifier = "") {
  const Trained& trained = Train(dataset_id, classifier);
  const data::Split& split = trained.split;
  const core::WymModel& model = trained.model;

  Record out;
  auto add = [&](std::string key, std::string value) {
    out.emplace_back(std::move(key), std::move(value));
  };
  add("dataset", dataset_id);
  if (!classifier.empty()) add("classifier", model.matcher().best_name());
  add("f1", Exact(ml::F1Score(split.test.Labels(),
                              model.PredictDataset(split.test))));

  const std::vector<double> probabilities =
      model.PredictProbaBatch(split.test);
  const size_t n_prob = std::min(kProbabilities, probabilities.size());
  for (size_t i = 0; i < n_prob; ++i) {
    add("record." + std::to_string(i) + ".probability",
        Exact(probabilities[i]));
  }

  const size_t n_explained = std::min(kExplained, split.test.size());
  for (size_t i = 0; i < n_explained; ++i) {
    const core::Explanation explanation =
        model.Explain(split.test.records[i]);
    const std::string record = "record." + std::to_string(i);
    add(record + ".units", std::to_string(explanation.units.size()));
    add(record + ".explanation_json",
        explain::ExplanationToJson(explanation));
    for (size_t u = 0; u < explanation.units.size(); ++u) {
      const core::ExplainedUnit& eu = explanation.units[u];
      const bool has_left =
          eu.unit.paired || eu.unit.unpaired_side == core::Side::kLeft;
      const bool has_right =
          eu.unit.paired || eu.unit.unpaired_side == core::Side::kRight;
      const std::string unit = record + ".unit." + std::to_string(u);
      add(unit + ".phase", PhaseName(eu.unit.phase));
      add(unit + ".left", has_left ? eu.unit.left.token : "-");
      add(unit + ".right", has_right ? eu.unit.right.token : "-");
      add(unit + ".similarity", Exact(eu.unit.similarity));
      add(unit + ".impact", Exact(eu.impact));
    }
  }
  return out;
}

/// Candidate generation and two-table matching over the S-WA test
/// split: its left entities form one table, its right entities the
/// other.
Record RenderBlocking() {
  const Trained& trained = Train("S-WA");
  blocking::EntityTable left, right;
  left.schema = trained.dataset.schema;
  right.schema = trained.dataset.schema;
  for (const data::EmRecord& record : trained.split.test.records) {
    left.rows.push_back(record.left);
    right.rows.push_back(record.right);
  }

  Record out;
  auto add = [&](std::string key, std::string value) {
    out.emplace_back(std::move(key), std::move(value));
  };
  add("tables", std::to_string(left.size()) + " x " +
                    std::to_string(right.size()));

  blocking::CandidateStreamOptions stream_options;
  stream_options.encoder = &trained.model.encoder();
  blocking::CandidateStream stream(left, right, stream_options);
  const std::vector<blocking::CandidatePair> candidates = stream.Drain();
  add("candidates", std::to_string(candidates.size()));
  for (size_t i = 0; i < std::min(kCandidates, candidates.size()); ++i) {
    const blocking::CandidatePair& c = candidates[i];
    add("candidate." + std::to_string(i),
        std::to_string(c.left_row) + " " + std::to_string(c.right_row) + " " +
            Exact(c.score));
  }

  blocking::MatchTablesStats stats;
  const std::vector<blocking::TableMatch> matches = blocking::MatchTables(
      trained.model, left, right, blocking::MatchTablesOptions{}, nullptr,
      &stats);
  add("matches", std::to_string(matches.size()));
  for (size_t i = 0; i < matches.size(); ++i) {
    const blocking::TableMatch& m = matches[i];
    add("match." + std::to_string(i),
        std::to_string(m.left_row) + " " + std::to_string(m.right_row) + " " +
            Exact(m.probability) + " " + Exact(m.blocking_score));
  }
  add("stats.candidates_scored", std::to_string(stats.candidates_scored));
  add("stats.records_quarantined", std::to_string(stats.records_quarantined));
  return out;
}

/// `"`, `\`, every byte 0x01-0x1f, DEL and a two-byte UTF-8 sequence.
std::string Hostile() {
  std::string text = "say \"hi\" \\ ";
  for (char c = 0x01; c < 0x20; ++c) text += c;
  text += '\x7f';
  text += "caf\xc3\xa9";
  return text;
}

/// A hand-built explanation: one unit of each shape, hostile tokens.
core::Explanation WireExplanation() {
  core::Explanation explanation;
  explanation.prediction = 1;
  explanation.probability = 0.5;
  core::ExplainedUnit paired;
  paired.unit.paired = true;
  paired.unit.phase = core::UnitPhase::kInterAttribute;
  paired.unit.left = {0, 0, "iphone"};
  paired.unit.right = {1, 2, Hostile()};
  paired.relevance = 1.0;
  paired.impact = 0.123456789;
  core::ExplainedUnit unpaired;
  unpaired.unit.phase = core::UnitPhase::kUnpaired;
  unpaired.unit.right = {2, 4, "blk"};
  unpaired.unit.unpaired_side = core::Side::kRight;
  unpaired.relevance = 0.25;
  unpaired.impact = -0.0625;
  explanation.units = {paired, unpaired};
  return explanation;
}

/// Wire bytes of fixed requests, responses and an analysis report.
Record RenderWire() {
  Record out;
  auto add = [&](std::string key, std::string value) {
    out.emplace_back(std::move(key), std::move(value));
  };

  serve::Request predict;
  predict.op = serve::Request::Op::kPredict;
  predict.id = "r1";
  predict.model = "default";
  predict.explain = true;
  predict.deadline_ms = 250;
  data::EmRecord pair;
  pair.left.values = {"iphone 4s", Hostile()};
  pair.right.values = {"iphone 4s", "blk"};
  predict.pairs.push_back(pair);
  add("request.predict", serve::RenderRequest(predict));

  serve::Request load;
  load.op = serve::Request::Op::kLoadModel;
  load.id = "r2";
  load.name = "v2";
  load.path = "/models/v2.wym";
  add("request.load_model", serve::RenderRequest(load));

  serve::Response explained;
  explained.id = "r1";
  explained.request_id = "q1";
  explained.op = "predict";
  explained.model = "default";
  serve::PairResult result;
  result.prediction = 1;
  result.probability = 0.5;
  result.explanation_json = explain::ExplanationToJson(WireExplanation());
  explained.results.push_back(result);
  add("response.predict_explain", serve::RenderResponse(explained));

  serve::Response cached;
  cached.id = "r3";
  cached.request_id = "q3";
  cached.op = "predict";
  cached.model = "default";
  for (const double probability :
       {0.1, 0.123456789123456789, 1e-300, -0.0, 1.0,
        std::numeric_limits<double>::quiet_NaN()}) {
    serve::PairResult hit;
    hit.prediction = probability >= 0.5 ? 1 : 0;
    hit.probability = probability;
    hit.cached = true;
    cached.results.push_back(hit);
  }
  add("response.cached", serve::RenderResponse(cached));

  serve::Response loaded;
  loaded.id = "r2";
  loaded.request_id = "q2";
  loaded.op = "load_model";
  loaded.payload_json = "{\"models\":[\"default\",\"v2\"]}";
  add("response.load_model", serve::RenderResponse(loaded));

  serve::Response error;
  error.id = Hostile();
  error.request_id = "q4";
  error.op = "predict";
  error.status = Status::InvalidArgument(Hostile());
  add("response.error", serve::RenderResponse(error));

  analysis::Report report;
  report.pass = "lint";
  report.files_scanned = 3;
  report.suppressions_honored = 1;
  report.findings.push_back({"src/a.cc", 7, "no-rand", Hostile()});
  report.findings.push_back({"src/b.cc", 9, "stale-suppression", "x"});
  // One golden line per report line: a string escape that let a raw
  // newline through would show up as an extra line.
  std::istringstream lines(analysis::RenderJson(report));
  std::string line;
  for (int i = 0; std::getline(lines, line); ++i) {
    add("analysis.report." + std::to_string(i), line);
  }
  return out;
}

std::string GoldenPath(const std::string& name) {
  return std::string(WYM_GOLDEN_DIR) + "/" + name + ".txt";
}

bool ReadGolden(const std::string& path, Record* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      out->emplace_back(line, "");
    } else {
      out->emplace_back(line.substr(0, space), line.substr(space + 1));
    }
  }
  return true;
}

bool WriteGolden(const std::string& path, const std::string& header,
                 const Record& record) {
  std::ofstream out(path);
  out << "# " << header << "\n"
      << "# Regenerate with `golden_test --write-golden` only for an "
         "intended behaviour change.\n";
  for (const auto& [key, value] : record) out << key << ' ' << value << '\n';
  return static_cast<bool>(out);
}

/// "record.3.unit.2.similarity" -> "record 3, field unit.2.similarity";
/// top-level keys ("f1") name only the field.
std::string Describe(const std::string& key) {
  if (key.rfind("record.", 0) == 0) {
    const size_t dot = key.find('.', 7);
    if (dot != std::string::npos) {
      return "record " + key.substr(7, dot - 7) + ", field " +
             key.substr(dot + 1);
    }
  }
  return "field " + key;
}

/// Writes `actual` to golden file `name` under --write-golden; otherwise
/// compares it field by field against the file.
void CheckGolden(const std::string& name, const std::string& header,
                 const Record& actual) {
  const std::string path = GoldenPath(name);
  if (g_write_golden) {
    ASSERT_TRUE(WriteGolden(path, header, actual)) << "cannot write " << path;
    return;
  }

  Record expected;
  ASSERT_TRUE(ReadGolden(path, &expected)) << "missing golden file " << path;
  const std::map<std::string, std::string> expected_by_key(expected.begin(),
                                                           expected.end());
  const std::map<std::string, std::string> actual_by_key(actual.begin(),
                                                         actual.end());
  for (const auto& [key, value] : expected) {
    const auto it = actual_by_key.find(key);
    if (it == actual_by_key.end()) {
      ADD_FAILURE() << name << ": " << Describe(key)
                    << " is missing from the output (expected " << value
                    << ")";
    } else {
      EXPECT_EQ(value, it->second) << name << ": " << Describe(key)
                                   << " differs";
    }
  }
  for (const auto& [key, value] : actual) {
    if (expected_by_key.count(key) == 0) {
      ADD_FAILURE() << name << ": unexpected " << Describe(key) << " = "
                    << value;
    }
  }
}

TEST(GoldenWireTest, MatchesCommittedOutput) {
  CheckGolden("wire",
              "wym-serve/v1 and wym-analysis-report/v1 bytes of fixed "
              "inputs.",
              RenderWire());
}

TEST(GoldenBlockingTest, MatchesCommittedOutput) {
  std::ostringstream header;
  header << "Candidate generation and MatchTables over the S-WA test split "
            "(seed "
         << kSeed << ", scale " << kScale
         << "): left entities vs right entities, default options, LSH on "
            "with the model's encoder.";
  CheckGolden("blocking", header.str(), RenderBlocking());
}

TEST(GoldenKnnTest, MatchesCommittedOutput) {
  std::ostringstream header;
  header << "WYM golden output: seed " << kSeed << ", scale " << kScale
         << ", default WymConfig with classifier = KNN, DefaultSplit test "
            "partition.";
  CheckGolden("S-WA-KNN", header.str(), Render("S-WA", "KNN"));
}

class GoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTest, MatchesCommittedOutput) {
  const std::string dataset_id = GetParam();
  std::ostringstream header;
  header << "WYM golden output: seed " << kSeed << ", scale " << kScale
         << ", default WymConfig, DefaultSplit test partition.";
  CheckGolden(dataset_id, header.str(), Render(dataset_id));
}

INSTANTIATE_TEST_SUITE_P(Datasets, GoldenTest, ::testing::ValuesIn(kDatasets),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

}  // namespace
}  // namespace wym

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-golden") == 0) wym::g_write_golden = true;
  }
  return RUN_ALL_TESTS();
}
