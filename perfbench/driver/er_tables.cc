// Workload er_tables: offline resolution of two raw product tables.
//
// Set-up fits WYM on S-WA (3-attribute product rows). The timed loop
// runs blocking::MatchTables over two generated tables (corrupted views
// of one catalog; row i <-> row i is the truth), then ExplainBatch over
// every match. Rows are short and batches large, so blocking and batch
// predict dominate; no serve layer runs.
#include <algorithm>
#include <cstdio>

#include "blocking/candidate_stream.h"
#include "common.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "explain/report.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace wym;

constexpr const char* kFitDataset = "S-WA";
constexpr double kFitScale = 1.0;
/// Rows per table: small enough for several passes per run, so the
/// medians span more than one slow spell of the machine.
constexpr size_t kTableRows = 5000;
constexpr int kSetupReps = 3;
/// Matches explained one at a time after each pass, as an operator
/// reviewing them would open each (this workload's printed latency).
constexpr size_t kReviewPerPass = 500;
/// Left rows re-resolved on a 1-thread pool for the thread-count check.
constexpr size_t kThreadCheckRows = 1000;
/// Candidate pairs replayed stage by stage in the traced run.
constexpr size_t kReplaySample = 300;

struct Tables {
  blocking::EntityTable left;
  blocking::EntityTable right;
};

Tables MakeTables(uint64_t seed) {
  Rng rng(seed ^ 0x5EEDCA7A1060ull);
  const data::Schema schema = data::DomainSchema(data::Domain::kProduct);
  const auto catalog =
      data::GenerateCatalog(data::Domain::kProduct, kTableRows, &rng);
  const data::CorruptionProfile profile;
  Tables tables{{schema, {}}, {schema, {}}};
  for (const auto& entity : catalog) {
    data::Entity base;
    base.values = entity.values;
    tables.left.rows.push_back(
        data::CorruptEntity(base, schema, profile, &rng));
    tables.right.rows.push_back(
        data::CorruptEntity(base, schema, profile, &rng));
  }
  return tables;
}

data::EmRecord PairOf(const Tables& tables, size_t left_row, size_t right_row) {
  data::EmRecord record;
  record.left = tables.left.rows[left_row];
  record.right = tables.right.rows[right_row];
  return record;
}

uint64_t Digest(const std::vector<blocking::TableMatch>& matches) {
  uint64_t hash = Fnv1a(nullptr, 0);
  for (const auto& m : matches) {
    hash = Fnv1a(&m.left_row, sizeof(m.left_row), hash);
    hash = Fnv1a(&m.right_row, sizeof(m.right_row), hash);
    hash = Fnv1a(&m.probability, sizeof(m.probability), hash);
  }
  return hash;
}

size_t TruePositives(const std::vector<blocking::TableMatch>& matches) {
  size_t hits = 0;
  for (const auto& m : matches) hits += m.left_row == m.right_row ? 1 : 0;
  return hits;
}

bool SameMatches(const std::vector<blocking::TableMatch>& a,
                 const std::vector<blocking::TableMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].left_row != b[i].left_row || a[i].right_row != b[i].right_row ||
        a[i].probability != b[i].probability) {
      return false;
    }
  }
  return true;
}

/// One resolution pass: MatchTables, then ExplainBatch over the matches.
struct Pass {
  std::vector<blocking::TableMatch> matches;
  std::vector<core::Explanation> explanations;
  size_t candidates = 0;
  double match_s = 0.0;
  double explain_s = 0.0;
};

Pass Resolve(const core::WymModel& model, const Tables& tables) {
  Pass pass;
  blocking::MatchTablesStats stats;
  uint64_t t0 = NowNs();
  pass.matches =
      blocking::MatchTables(model, tables.left, tables.right, {}, nullptr,
                            &stats);
  pass.match_s = static_cast<double>(NowNs() - t0) / 1e9;
  pass.candidates = stats.candidates_scored;
  data::Dataset review;
  for (const auto& m : pass.matches) {
    review.records.push_back(PairOf(tables, m.left_row, m.right_row));
  }
  t0 = NowNs();
  pass.explanations = model.ExplainBatch(review);
  pass.explain_s = static_cast<double>(NowNs() - t0) / 1e9;
  return pass;
}

/// Offline explanations must agree with the batch predictor and carry
/// units; returns the number of matches that do not.
size_t CheckExplanations(const Pass& pass) {
  size_t bad = 0;
  for (size_t i = 0; i < pass.matches.size(); ++i) {
    const core::Explanation& e = pass.explanations[i];
    if (e.units.empty() || e.probability != pass.matches[i].probability) ++bad;
  }
  return bad;
}

/// The traced pass: the MatchTables loop driven from here, chunk by
/// chunk, with a span around every call into the blocking, core and
/// explain layers. Returns the match list for the equality check.
std::vector<blocking::TableMatch> TracedResolve(
    const core::WymModel& model, const Tables& tables, Tracer* tracer,
    RunResult* result, std::vector<data::EmRecord>* replay_records,
    std::vector<double>* replay_expected) {
  const blocking::MatchTablesOptions options;
  blocking::CandidateStreamOptions stream_options = options.stream;
  stream_options.encoder = &model.encoder();
  blocking::CandidateStream stream(tables.left, tables.right, stream_options);
  {
    ScopedSpan span(tracer, "blocking.build");
    stream.Prepare();
  }
  std::vector<blocking::TableMatch> matches;
  std::vector<blocking::CandidatePair> pending, chunk;
  std::vector<data::EmRecord> records;
  size_t candidates = 0, truth_candidates = 0;
  const size_t stride = 1 + kTableRows * 13 / kReplaySample;
  const auto flush = [&](size_t count) {
    records.clear();
    for (size_t i = 0; i < count; ++i) {
      records.push_back(
          PairOf(tables, pending[i].left_row, pending[i].right_row));
    }
    std::vector<double> probas;
    {
      ScopedSpan span(tracer, "core.predict");
      probas = model.PredictProbaBatch(records);
    }
    for (size_t i = 0; i < count; ++i) {
      if ((candidates + i) % stride == 0 &&
          replay_records->size() < kReplaySample) {
        replay_records->push_back(records[i]);
        replay_expected->push_back(probas[i]);
      }
      if (probas[i] < options.min_probability) continue;
      matches.push_back({pending[i].left_row, pending[i].right_row, probas[i],
                         pending[i].score});
    }
    candidates += count;
    pending.erase(pending.begin(), pending.begin() + static_cast<long>(count));
  };
  while (true) {
    bool more = false;
    {
      ScopedSpan span(tracer, "blocking.probe");
      more = stream.Next(&chunk);
    }
    if (!more) break;
    for (const auto& c : chunk) truth_candidates += c.left_row == c.right_row;
    pending.insert(pending.end(), chunk.begin(), chunk.end());
    while (pending.size() >= options.batch_candidates) {
      flush(options.batch_candidates);
    }
  }
  if (!pending.empty()) flush(pending.size());
  std::sort(matches.begin(), matches.end(),
            [](const blocking::TableMatch& a, const blocking::TableMatch& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              if (a.left_row != b.left_row) return a.left_row < b.left_row;
              return a.right_row < b.right_row;
            });

  data::Dataset review;
  for (const auto& m : matches) {
    review.records.push_back(PairOf(tables, m.left_row, m.right_row));
  }
  std::vector<core::Explanation> explanations;
  {
    ScopedSpan span(tracer, "explain.batch");
    explanations = model.ExplainBatch(review);
  }
  for (const auto& e : explanations) {
    ScopedSpan span(tracer, "explain.render");
    (void)explain::ExplanationToJson(e);
  }
  result->Add("blocking.candidates", static_cast<double>(candidates), "count");
  result->Add("blocking.recall",
              static_cast<double>(truth_candidates) / kTableRows, "frac");
  result->Add("blocking.match_yield",
              static_cast<double>(matches.size()) /
                  std::max<double>(1.0, static_cast<double>(candidates)),
              "frac");
  return matches;
}

int RunTraced(const RunOptions& options, const Tables& tables,
              RunResult* result) {
  Tracer tracer;
  ModelSetup setup =
      SetUpModel(kFitDataset, kFitScale, kModelSeed,
                 options.work_dir + "/er_model.wym", &tracer, result);
  if (!result->correct) return 1;
  const core::WymModel& model = setup.model;

  // Untraced reference: the library's own MatchTables, the same
  // explanations, and the same rendering as the traced pass. It runs
  // before and after the traced pass, so warm-up favours neither side.
  const auto untraced = [&] {
    const uint64_t start = NowNs();
    Pass pass = Resolve(model, tables);
    for (const auto& e : pass.explanations) {
      (void)explain::ExplanationToJson(e);
    }
    return std::make_pair(std::move(pass),
                          static_cast<double>(NowNs() - start) / 1e9);
  };
  auto [reference, untraced_before_s] = untraced();

  std::vector<data::EmRecord> replay_records;
  std::vector<double> replay_expected;
  const uint64_t t0 = NowNs();
  tracer.Open("er_tables");
  const auto matches = TracedResolve(model, tables, &tracer, result,
                                     &replay_records, &replay_expected);
  tracer.Close();
  const double traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!SameMatches(matches, reference.matches)) {
    result->Fail("traced chunk-by-chunk resolution differs from MatchTables");
  }
  const double untraced_s = 0.5 * (untraced_before_s + untraced().second);

  const StageReplay replay =
      ReplayStages(model, replay_records, replay_expected, &tracer);
  if (replay.mismatches != 0) {
    result->Fail("stage replay disagrees with PredictProbaBatch on " +
                 std::to_string(replay.mismatches) + " pairs");
  }
  result->attempted = kTableRows;
  result->Add("fit.total_s", setup.fit_s, "s");
  for (const char* span : {"blocking.build", "blocking.probe", "core.predict",
                           "explain.batch"}) {
    result->Add(std::string(span) + "_s", tracer.TotalSeconds(span), "s");
  }
  replay.AddTo(result);
  AddSelfTimes(tracer, result);
  // The root's self time is the glue between layer calls (building
  // record batches, sorting): the share no layer span covers.
  result->Add("trace.unattributed_frac",
              tracer.SelfSeconds()["er_tables"] /
                  tracer.TotalSeconds("er_tables"),
              "frac");
  result->Add("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
              "frac");
  const std::string trace_path = options.work_dir + "/trace_er_tables.json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    result->Fail("cannot write " + trace_path);
  }
  std::printf("traced %.3f s vs untraced %.3f s; trace: %s\n", traced_s,
              untraced_s, trace_path.c_str());
  return 0;
}

}  // namespace

int RunErTables(const RunOptions& options, RunResult* result) {
  const Tables tables = MakeTables(options.seed);
  if (options.trace) return RunTraced(options, tables, result);

  std::vector<double> setup_s, generate_s, fit_s, persist_s;
  ModelSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ModelSetup next = SetUpModel(kFitDataset, kFitScale, kModelSeed,
                                 options.work_dir + "/er_model.wym", nullptr,
                                 result);
    if (!result->correct) return 1;
    if (rep > 0 && next.file_digest != setup.file_digest) {
      result->Fail("Fit is not deterministic: model files differ");
    }
    setup_s.push_back(next.setup_s);
    generate_s.push_back(next.generate_s);
    fit_s.push_back(next.fit_s);
    persist_s.push_back(next.persist_s);
    setup = std::move(next);
  }
  const core::WymModel& model = setup.model;

  // Timed loop: whole passes until the run's time is spent (at least 2,
  // so the match list is checked against a repeat).
  std::vector<double> match_s, explain_s, review_ms;
  Pass first;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  for (int pass_index = 0; pass_index < 2 || NowNs() < deadline;
       ++pass_index) {
    Pass pass = Resolve(model, tables);
    match_s.push_back(pass.match_s);
    explain_s.push_back(pass.explain_s);
    result->attempted += kTableRows;
    const size_t bad = CheckExplanations(pass);
    if (bad != 0) {
      result->failed += bad;
      result->Fail(std::to_string(bad) +
                   " explanations lack units or disagree with MatchTables");
    }
    // Operator review: a slice of the matches, each explanation opened
    // one at a time (a different slice every pass).
    const size_t step =
        std::max<size_t>(1, pass.matches.size() / kReviewPerPass);
    for (size_t i = pass_index % step; i < pass.matches.size(); i += step) {
      const auto& m = pass.matches[i];
      const data::EmRecord record = PairOf(tables, m.left_row, m.right_row);
      const uint64_t t0 = NowNs();
      const std::string json =
          explain::ExplanationToJson(model.Explain(record));
      review_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
      if (json.find("\"units\":[{") == std::string::npos) {
        result->failed += 1;
        result->Fail("review explanation carries no units");
      }
    }
    if (pass_index == 0) {
      first = std::move(pass);
    } else if (!SameMatches(pass.matches, first.matches)) {
      result->failed += 1;
      result->Fail("match list differs between repeated passes");
    }
  }

  // WYM_THREADS=1 vs the default pool: re-resolve a head slice of the
  // left table on a 1-thread pool; per-row candidates make it equal to
  // the head rows' share of the full result.
  {
    Tables head{{tables.left.schema, {}}, tables.right};
    head.left.rows.assign(tables.left.rows.begin(),
                          tables.left.rows.begin() + kThreadCheckRows);
    util::ThreadPool one_thread(1);
    const auto single = blocking::MatchTables(model, head.left, head.right, {},
                                              &one_thread);
    std::vector<blocking::TableMatch> expected;
    for (const auto& m : first.matches) {
      if (m.left_row < kThreadCheckRows) expected.push_back(m);
    }
    if (!SameMatches(single, expected)) {
      result->failed += 1;
      result->Fail("1-thread match list differs from the default pool's");
    }
  }

  const size_t tp = TruePositives(first.matches);
  const double f1 = F1(tp, first.matches.size(), kTableRows);
  const double rows_per_s = kTableRows / Median(match_s);
  const double explain_rate =
      static_cast<double>(first.matches.size()) / Median(explain_s);
  std::printf(
      "er_tables: %zu x %zu rows, %zu candidates, %zu matches, digest "
      "%016llx, %zu passes\n",
      kTableRows, kTableRows, first.candidates, first.matches.size(),
      static_cast<unsigned long long>(Digest(first.matches)), match_s.size());
  std::printf("  setup phases (median of %d): generate %.3f s, fit %.3f s, "
              "save+load %.3f s\n",
              kSetupReps, Median(generate_s), Median(fit_s), Median(persist_s));
  std::printf("  match_rows_per_s %.1f 1/s\n  match_f1 %.6f\n"
              "  explain_rec_per_s %.1f 1/s\n  review p50 %.4f ms, p99 %.4f ms "
              "over %zu matches\n",
              rows_per_s, f1, explain_rate, Median(review_ms),
              Quantile(review_ms, 0.99), review_ms.size());

  result->Add("setup_s", Median(setup_s), "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("fit_rec_per_s", setup.train_records / Median(fit_s), "1/s");
  result->Add("resolve_rec_per_s", rows_per_s, "1/s");
  result->Add("explain_rec_per_s", explain_rate, "1/s");
  result->Add("f1", f1, "frac");
  return 0;
}

}  // namespace perfbench
