// Candidate-generation throughput harness: two synthetic raw tables
// (corrupted views of one product catalog) streamed through the
// blocking tier, against an embedded exhaustive probe as the baseline:
// the seed blocker's probe loop plus the stream's exact-duplicate rule.
//
// Reported quantities:
//   * blocking recall (fraction of true duplicate pairs surviving into
//     the candidate set) for the baseline, the token stage
//     (CandidateStream without an encoder: exact-duplicate
//     short-circuit + prefix-filtered index probe), and the full stream
//     (token stage + embedding LSH);
//   * candidates/second for each of the above, and the token-stage
//     speedup over the seed baseline (the >= 10x acceptance bar).
//
// The baseline is exhaustive per left row, so it runs on a capped left
// subsample (WYM_BLOCK_BASELINE_ROWS, default 1000) and its rate
// extrapolates; the token stage runs the same subsample (for the
// apples-to-apples speedup and a pair-for-pair candidate-list equality
// check; the bench exits 1 on a mismatch) and the full stream the
// whole table.
//
// Environment knobs:
//   WYM_BLOCK_ROWS          — rows per table (default 2000).
//   WYM_BLOCK_BASELINE_ROWS — left rows for the exhaustive baseline.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "blocking/blocker.h"
#include "blocking/candidate_stream.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "embedding/semantic_encoder.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace wym;

size_t EnvRows(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::set<std::string> SeedRowTokens(const data::Entity& row,
                                    const text::Tokenizer& tokenizer) {
  std::set<std::string> tokens;
  for (const auto& value : row.values) {
    for (auto& token : tokenizer.Tokenize(value)) {
      tokens.insert(std::move(token));
    }
  }
  return tokens;
}

/// The seed blocker's index structures, built in its idiom (std::set
/// token rows, map-of-vectors postings), plus the rows of each whole
/// token set for the exact-duplicate rule.
struct SeedIndex {
  std::vector<std::set<std::string>> right_tokens;
  std::map<std::string, std::vector<size_t>> postings;
  std::map<std::set<std::string>, std::vector<size_t>> rows_by_token_set;
};

SeedIndex BuildSeedIndex(const blocking::EntityTable& right,
                         const text::Tokenizer& tokenizer) {
  SeedIndex index;
  index.right_tokens.resize(right.size());
  for (size_t r = 0; r < right.size(); ++r) {
    index.right_tokens[r] = SeedRowTokens(right.rows[r], tokenizer);
    for (const auto& token : index.right_tokens[r]) {
      index.postings[token].push_back(r);
    }
    index.rows_by_token_set[index.right_tokens[r]].push_back(r);
  }
  return index;
}

/// The seed blocker's probe loop, verbatim in structure: exhaustive
/// posting walks, per-pair set intersections. This is the comparison
/// point the speedup is measured against. A left row whose token set
/// equals some right rows' yields exactly those rows (ascending, score
/// 1.0, uncapped), as the stream's exact-duplicate short-circuit does.
std::vector<blocking::CandidatePair> SeedTokenProbe(
    const blocking::EntityTable& left, const blocking::EntityTable& right,
    const SeedIndex& seed, const blocking::TokenStageOptions& options) {
  const text::Tokenizer tokenizer;
  const auto& right_tokens = seed.right_tokens;
  const auto& index = seed.postings;
  const size_t stop_count = static_cast<size_t>(
      options.max_token_frequency * static_cast<double>(right.size()));

  std::vector<blocking::CandidatePair> out;
  for (size_t l = 0; l < left.size(); ++l) {
    const std::set<std::string> tokens = SeedRowTokens(left.rows[l], tokenizer);
    const auto dup = seed.rows_by_token_set.find(tokens);
    if (!tokens.empty() && dup != seed.rows_by_token_set.end()) {
      for (const size_t r : dup->second) out.push_back({l, r, 1.0});
      continue;
    }
    std::map<size_t, size_t> shared_counts;
    for (const auto& token : tokens) {
      auto it = index.find(token);
      if (it == index.end()) continue;
      if (stop_count > 0 && it->second.size() > stop_count) continue;
      for (size_t r : it->second) ++shared_counts[r];
    }
    std::vector<blocking::CandidatePair> row_candidates;
    for (const auto& [r, shared] : shared_counts) {
      if (shared < options.min_shared_tokens) continue;
      size_t full_shared = 0;
      for (const auto& token : tokens) {
        full_shared += right_tokens[r].count(token);
      }
      const size_t unioned =
          tokens.size() + right_tokens[r].size() - full_shared;
      const double jaccard = unioned == 0 ? 0.0
                                          : static_cast<double>(full_shared) /
                                                static_cast<double>(unioned);
      if (jaccard < options.min_jaccard) continue;
      row_candidates.push_back({l, r, jaccard});
    }
    std::sort(row_candidates.begin(), row_candidates.end(),
              [](const blocking::CandidatePair& a,
                 const blocking::CandidatePair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.right_row < b.right_row;
              });
    if (options.max_candidates_per_row > 0 &&
        row_candidates.size() > options.max_candidates_per_row) {
      row_candidates.resize(options.max_candidates_per_row);
    }
    out.insert(out.end(), row_candidates.begin(), row_candidates.end());
  }
  return out;
}

blocking::EntityTable HeadRows(const blocking::EntityTable& table,
                               size_t limit) {
  blocking::EntityTable out;
  out.schema = table.schema;
  out.rows.assign(table.rows.begin(),
                  table.rows.begin() +
                      static_cast<long>(std::min(limit, table.size())));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfReport report =
      bench::PerfReport::FromArgs("blocking", &argc, argv);
  bench::PrintBanner("Blocking: candidate-generation throughput");

  const size_t rows = EnvRows("WYM_BLOCK_ROWS", 2000);
  const size_t baseline_rows =
      std::min(rows, EnvRows("WYM_BLOCK_BASELINE_ROWS", 1000));
  std::printf("Tables: %zu rows each; exhaustive baseline on %zu left "
              "rows (WYM_BLOCK_ROWS / WYM_BLOCK_BASELINE_ROWS).\n\n",
              rows, baseline_rows);

  // Two corrupted views of one catalog; row i <-> row i is the truth.
  Rng rng(bench::kSeed);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog = data::GenerateCatalog(data::Domain::kProduct, rows, &rng);
  data::CorruptionProfile profile;
  blocking::EntityTable left{schema, {}}, right{schema, {}};
  std::vector<size_t> ids(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    data::Entity base;
    base.values = catalog[i].values;
    left.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    right.rows.push_back(data::CorruptEntity(base, schema, profile, &rng));
    ids[i] = i;
  }
  const blocking::EntityTable left_head = HeadRows(left, baseline_rows);
  const std::vector<size_t> ids_head(ids.begin(),
                                     ids.begin() +
                                         static_cast<long>(baseline_rows));

  const blocking::TokenStageOptions token_options;
  TablePrinter table({"stage", "left rows", "candidates", "build s",
                      "probe s", "cand/s", "recall"});
  auto add_row = [&](const std::string& stage, size_t n_left,
                     size_t candidates, double build_seconds,
                     double probe_seconds, double recall) {
    // Throughput over the probe phase: the index build is a one-time
    // cost (reported as its own stage) that amortizes over left rows.
    const double rate =
        static_cast<double>(candidates) / std::max(probe_seconds, 1e-9);
    table.AddRow({stage, std::to_string(n_left), std::to_string(candidates),
                  strings::FormatDouble(build_seconds, 3),
                  strings::FormatDouble(probe_seconds, 3),
                  strings::FormatDouble(rate, 0),
                  strings::FormatDouble(recall, 4)});
    report.AddStage(stage + ".build", build_seconds);
    report.AddStage(stage + ".probe", probe_seconds);
    report.AddRate(stage + ".candidates_per_sec", rate);
    report.AddRate(stage + ".recall", recall);
    return rate;
  };

  // Seed baseline: exhaustive probe on the capped subsample.
  const text::Tokenizer tokenizer;
  Stopwatch watch;
  const SeedIndex seed_index = BuildSeedIndex(right, tokenizer);
  const double baseline_build = watch.ElapsedSeconds();
  watch.Reset();
  const auto baseline =
      SeedTokenProbe(left_head, right, seed_index, token_options);
  const double baseline_probe = watch.ElapsedSeconds();
  const double baseline_rate =
      add_row("baseline_token", baseline_rows, baseline.size(),
              baseline_build, baseline_probe,
              blocking::BlockingRecall(baseline, ids_head, ids));

  // Token stage, same subsample: same candidates, faster.
  blocking::CandidateStreamOptions token_stream_options;
  token_stream_options.token = token_options;
  blocking::CandidateStream token_stream(left_head, right,
                                         token_stream_options);
  watch.Reset();
  token_stream.Prepare();
  const double token_build = watch.ElapsedSeconds();
  watch.Reset();
  const auto token_head = token_stream.Drain();
  const double token_probe = watch.ElapsedSeconds();
  const double token_rate =
      add_row("token", baseline_rows, token_head.size(), token_build,
              token_probe, blocking::BlockingRecall(token_head, ids_head, ids));
  bool identical = token_head.size() == baseline.size();
  for (size_t i = 0; identical && i < token_head.size(); ++i) {
    identical = token_head[i].left_row == baseline[i].left_row &&
                token_head[i].right_row == baseline[i].right_row &&
                token_head[i].score == baseline[i].score;
  }

  // Full stream on the whole table: token stage + embedding-LSH second
  // stage, chunked.
  embedding::SemanticEncoderOptions encoder_options;
  encoder_options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(encoder_options);
  encoder.Fit({});
  blocking::CandidateStreamOptions stream_options;
  stream_options.token = token_options;
  stream_options.encoder = &encoder;
  blocking::CandidateStream stream(left, right, stream_options);
  watch.Reset();
  stream.Prepare();
  const double stream_build = watch.ElapsedSeconds();
  watch.Reset();
  std::vector<blocking::CandidatePair> chunk;
  size_t stream_candidates = 0;
  std::set<std::pair<size_t, size_t>> truth_hits;
  while (stream.Next(&chunk)) {
    stream_candidates += chunk.size();
    for (const auto& c : chunk) {
      if (c.left_row == c.right_row) {
        truth_hits.emplace(c.left_row, c.right_row);
      }
    }
  }
  const double stream_probe = watch.ElapsedSeconds();
  const double stream_recall =
      static_cast<double>(truth_hits.size()) / static_cast<double>(rows);
  add_row("stream_full", rows, stream_candidates, stream_build, stream_probe,
          stream_recall);

  const double speedup = token_rate / std::max(baseline_rate, 1e-9);
  report.AddRate("token.speedup_vs_baseline", speedup);
  std::printf("\n");
  table.Print();
  std::printf(
      "\nToken-stage candidates identical to the exhaustive probe: %s\n"
      "Token-stage speedup over the seed blocker: %.1fx (target >= 10x)\n"
      "Full-stream recall: %.4f (baseline %.4f on its subsample)\n",
      identical ? "yes" : "NO — INVESTIGATE", speedup, stream_recall,
      blocking::BlockingRecall(baseline, ids_head, ids));
  if (!identical) return 1;
  return report.Write() ? 0 : 1;
}
