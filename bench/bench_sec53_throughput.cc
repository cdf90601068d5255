// Regenerates §5.3: time performance — end-to-end training throughput,
// prediction/explanation throughput (records/second) and the pipeline
// time breakdown per stage. The paper reports training throughput
// comparable to DITTO (~9 rec/s on their GPU box), ~20 explanations/s
// (70k+/hour), and ~40% of inference time spent on the explanation side.
// Absolute numbers differ on this substrate; the harness reports the
// same quantities.
//
// Explanation throughput is measured twice through the batch API
// (WymModel::ExplainBatch): once on a 1-thread pool (the sequential
// baseline) and once on the global WYM_THREADS pool, so the speedup of
// the deterministic parallel runtime is visible side by side. Both runs
// produce bit-identical explanations (see DESIGN.md "Threading model").
// The stage columns come from the 1-thread run's PredictionReport: the
// record loop times its own stages, as shares of that run's wall time;
// "unattr." is the remainder no stage covers. The impact sums come out
// of the classify pass, so "classify" includes them and "impacts" is
// only the assembly of each Explanation.

#include <cstdio>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace wym;
  bench::PerfReport report =
      bench::PerfReport::FromArgs("sec53_throughput", &argc, argv);
  bench::PrintBanner("Section 5.3: time performance");
  const double scale = bench::ScaleFromEnv();

  const size_t n_threads = util::ThreadPool::DefaultThreadCount();
  util::ThreadPool sequential_pool(1);
  std::printf("Thread pool: %zu thread(s) (WYM_THREADS to override).\n\n",
              n_threads);

  // The pool column names itself "pool", so its header stays distinct
  // from the 1T column at every thread count, WYM_THREADS=1 included.
  TablePrinter table(
      {"Dataset", "train recs", "train s", "train rec/s", "explain rec/s 1T",
       "explain rec/s pool " + std::to_string(n_threads) + "T", "speedup",
       "encode %", "units %", "score %", "classify %", "impacts %",
       "unattr. %"});

  for (const auto& spec : bench::SelectedSpecs()) {
    const bench::PreparedData data = bench::Prepare(spec, scale);

    Stopwatch train_watch;
    const core::WymModel model = bench::TrainWym(data);
    const double train_seconds = train_watch.ElapsedSeconds();
    const double train_rps = static_cast<double>(data.split.train.size()) /
                             std::max(train_seconds, 1e-9);

    const data::Dataset sample = bench::Head(data.split.test, 150);

    // Batch explanation throughput: sequential baseline vs the pool. The
    // sequential run also reports the record loop's own stage times, so
    // the percentages describe one record's critical path.
    core::PredictionReport loop;
    const double rps_1t =
        bench::ExplainRecPerSec(model, sample, &sequential_pool, &loop);
    const double rps_nt = bench::ExplainRecPerSec(model, sample, nullptr);

    const core::PredictionReport::Stages& st = loop.stages;
    const std::pair<const char*, std::uint64_t> stages[] = {
        {"encode", st.encode_ns},
        {"units", st.units_ns},
        {"score", st.score_ns},
        {"classify", st.classify_ns},
        {"impacts", st.impacts_ns}};
    const double seconds_1t =
        static_cast<double>(sample.size()) / std::max(rps_1t, 1e-9);
    auto pct = [&](double t) {
      return strings::FormatDouble(
          seconds_1t > 0 ? 100.0 * t / seconds_1t : 0.0, 1);
    };
    std::vector<std::string> row = {
        spec.id, std::to_string(data.split.train.size()),
        strings::FormatDouble(train_seconds, 2),
        strings::FormatDouble(train_rps, 1), strings::FormatDouble(rps_1t, 1), strings::FormatDouble(rps_nt, 1),
        strings::FormatDouble(rps_nt / std::max(rps_1t, 1e-9), 2)};
    report.AddStage(spec.id + ".train", train_seconds);
    double unattributed = seconds_1t;
    for (const auto& [name, ns] : stages) {
      const double seconds = 1e-9 * static_cast<double>(ns);
      unattributed -= seconds;
      row.push_back(pct(seconds));
      report.AddStage(spec.id + ".infer." + name, seconds);
    }
    row.push_back(pct(unattributed));
    report.AddStage(spec.id + ".infer.unattributed", unattributed);
    table.AddRow(row);
    report.AddRate(spec.id + ".train_rec_per_sec", train_rps);
    report.AddRate(spec.id + ".explain_rec_per_sec_1t", rps_1t);
    report.AddRate(spec.id + ".explain_rec_per_sec_nt", rps_nt);
    std::printf("  [done] %s\n", spec.id.c_str());
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nShape check vs the paper: explanation throughput extrapolates to\n"
      "tens of thousands per hour; the explanation-specific stages (unit\n"
      "scoring + impact attribution) are a visible share of inference\n"
      "(the paper reports ~40%% on their BERT-sized stack). The 1T vs pool\n"
      "columns compare the same batch API on a 1-thread pool and on the\n"
      "WYM_THREADS-sized global pool; outputs are bit-identical. Stage\n"
      "shares are of the 1T wall time (stage clock needs WYM_METRICS on).\n"
      "Impact sums come out of the classify pass, so classify %% includes\n"
      "them and impacts %% covers only assembling each Explanation.\n");
  return report.Write() ? 0 : 1;
}
