#include "blocking/candidate_stream.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::blocking {

namespace {

/// Rows per parallel probe chunk: amortizes the right-table-sized
/// scratch allocation without starving an 8-thread pool on small
/// chunks.
constexpr size_t kProbeGrain = 256;

/// Conservative integer ceiling of a float bound: the smallest integer
/// s with s >= x, nudged so float rounding can only lengthen a probe
/// prefix, never skip a qualifying pair.
size_t CeilBound(double x) {
  if (x <= 0.0) return 0;
  return static_cast<size_t>(std::ceil(x - 1e-9));
}

void SortRowCandidates(std::vector<CandidatePair>* row) {
  std::sort(row->begin(), row->end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.right_row < b.right_row;
            });
}

}  // namespace

/// Per-probe-chunk scratch: the generation-stamped touched-row set and
/// the reusable small vectors. One instance per ParallelFor chunk, so
/// the right-table-sized `seen` array is allocated once per
/// kProbeGrain rows, not per row.
struct CandidateStream::ProbeScratch {
  explicit ProbeScratch(size_t right_rows)
      : seen(right_rows, 0), counts(right_rows, 0) {}

  std::vector<uint32_t> seen;    ///< seen[r] == generation -> touched.
  std::vector<uint32_t> counts;  ///< Shared probeable tokens with row r.
  uint32_t generation = 0;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> stop_ids;  ///< Present stop-token ids.
  std::vector<std::string> doc_tokens;   ///< Document-order tokens.
  std::vector<std::string> uniq_tokens;  ///< Sorted unique tokens.
  std::vector<uint32_t> present_ids;     ///< Ascending ids found in the index.
  std::vector<uint32_t> probe_ids;       ///< Non-stop ids, df-ascending.
  std::vector<uint32_t> dup_rows;
  std::vector<CandidatePair> row_out;
  std::vector<CandidatePair> lsh_out;
  /// Deferred counter deltas (flushed once per row).
  uint64_t pairs_pruned = 0;
  uint64_t exact_dupes = 0;
  uint64_t candidates = 0;
};

CandidateStream::CandidateStream(const EntityTable& left,
                                 const EntityTable& right, Options options,
                                 util::ThreadPool* pool)
    : left_(left), right_(right), options_(options), pool_(pool) {
  WYM_CHECK(left_.schema == right_.schema)
      << "schema mismatch in candidate stream";
  // A NaN or out-of-range bound would reach CeilBound's size_t cast.
  const double min_jaccard = options_.token.min_jaccard;
  WYM_CHECK(min_jaccard >= 0.0 && min_jaccard <= 1.0)
      << "min_jaccard must be in [0, 1], got " << min_jaccard;
  if (options_.encoder != nullptr) {
    WYM_CHECK(options_.encoder->fitted())
        << "encoder must be fitted before LSH blocking";
  }
  options_.chunk_left_rows = std::max<size_t>(options_.chunk_left_rows, 1);
}

CandidateStream::~CandidateStream() = default;

void CandidateStream::EnsureBuilt() {
  if (built_) return;
  built_ = true;
  index_.Build(right_, tokenizer_, options_.token.max_token_frequency, pool_);
  fingerprints_.Build(index_);
  if (options_.encoder != nullptr) {
    lsh_ = std::make_unique<EmbeddingLsh>(options_.encoder, options_.lsh);
    lsh_->Build(right_, tokenizer_, pool_);
  }
}

void CandidateStream::ProbeRow(size_t left_row, ProbeScratch* s,
                               std::vector<CandidatePair>* out) const {
  // 1. Tokenize: document order (LSH pooling is contextual) and the
  // sorted unique set (Jaccard universe |L|).
  s->doc_tokens.clear();
  for (const auto& value : left_.rows[left_row].values) {
    for (auto& token : tokenizer_.Tokenize(value)) {
      s->doc_tokens.push_back(std::move(token));
    }
  }
  s->uniq_tokens = s->doc_tokens;
  std::sort(s->uniq_tokens.begin(), s->uniq_tokens.end());
  s->uniq_tokens.erase(
      std::unique(s->uniq_tokens.begin(), s->uniq_tokens.end()),
      s->uniq_tokens.end());
  const size_t l_full = s->uniq_tokens.size();
  if (l_full == 0) return;

  // 2. Map onto the right vocabulary. uniq_tokens is sorted and the
  // vocabulary order is the string order, so present_ids ascends.
  s->present_ids.clear();
  size_t n_stop = 0;
  for (const std::string& token : s->uniq_tokens) {
    const uint32_t id = index_.TokenId(token);
    if (id == ShardedInvertedIndex::kNoToken) continue;
    s->present_ids.push_back(id);
    if (index_.IsStop(id)) ++n_stop;
  }

  // 3. Exact-duplicate short-circuit: same normalized token set as some
  // right rows -> emit exactly those rows at score 1.0 (ascending, not
  // capped by max_candidates_per_row) and skip the probes. Fingerprint
  // hits are verified against the indexed id lists, so collisions
  // cannot fabricate duplicates.
  if (s->present_ids.size() == l_full) {  // Else an unindexed token: no dup.
    s->dup_rows.clear();
    fingerprints_.Lookup(FingerprintTokens(s->uniq_tokens), &s->dup_rows);
    size_t dupes = 0;
    for (const uint32_t r : s->dup_rows) {
      size_t count = 0;
      const uint32_t* ids = index_.RowTokens(r, &count);
      if (count != l_full ||
          !std::equal(ids, ids + count, s->present_ids.begin())) {
        continue;
      }
      out->push_back({left_row, r, 1.0});
      ++dupes;
    }
    if (dupes > 0) {
      ++s->exact_dupes;
      s->candidates += dupes;
      return;
    }
  }

  s->row_out.clear();

  // 4. Token-index probe, rare-token-first with skip pruning. A pair
  // passing the caller's bounds needs
  //   shared_full >= ceil(min_jaccard * |L|)        (since |R| >= shared)
  //   shared_probe >= shared_full - n_stop          (stop tokens are
  //                                                  shared at most n_stop times)
  //   shared_probe >= min_shared_tokens             (seed blocker contract)
  // so it must share a token within the first
  // |probeable| - required + 1 rarest probeable tokens (the prefix).
  // The walk counts exact shared-token totals as it goes; posting lists
  // past the prefix are walked in update-only mode — they can no longer
  // qualify a new row, so rows first seen there are skipped, which is
  // what keeps the touched set (and all downstream work) small.
  const TokenStageOptions& topt = options_.token;
  const size_t required_full = CeilBound(topt.min_jaccard * l_full);
  size_t required_probe =
      std::max<size_t>(topt.min_shared_tokens,
                       required_full > n_stop ? required_full - n_stop : 0);
  required_probe = std::max<size_t>(required_probe, 1);

  s->probe_ids.clear();
  s->stop_ids.clear();
  for (const uint32_t id : s->present_ids) {
    if (index_.IsStop(id)) {
      s->stop_ids.push_back(id);
    } else {
      s->probe_ids.push_back(id);
    }
  }
  if (s->probe_ids.size() >= required_probe) {
    std::sort(s->probe_ids.begin(), s->probe_ids.end(),
              [&](uint32_t a, uint32_t b) {
                const size_t da = index_.Df(a), db = index_.Df(b);
                if (da != db) return da < db;
                return a < b;
              });
    const size_t prefix = s->probe_ids.size() - required_probe + 1;

    ++s->generation;
    s->touched.clear();
    for (size_t k = 0; k < s->probe_ids.size(); ++k) {
      size_t count = 0;
      const uint32_t* rows = index_.Postings(s->probe_ids[k], &count);
      const bool discover = k < prefix;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t r = rows[i];
        WYM_DCHECK_LT(r, s->seen.size());
        if (s->seen[r] == s->generation) {
          ++s->counts[r];
        } else if (discover) {
          s->seen[r] = s->generation;
          s->counts[r] = 1;
          s->touched.push_back(r);
        }
        // else: first shared token is past the prefix, so the row can
        // reach at most required_probe - 1 shared tokens — skip it.
      }
    }

    // Score the touched rows. `counts` is the exact non-stop shared
    // count for rows discovered in the prefix, so no per-pair
    // intersection is needed; the (few) stop tokens are resolved by
    // binary search in the row's sorted id list. Iteration follows the
    // deterministic discovery order — the per-row sort below fixes the
    // output order.
    const size_t n_present = s->present_ids.size();
    for (const uint32_t r : s->touched) {
      const size_t shared_probe = s->counts[r];
      if (shared_probe < required_probe) {
        ++s->pairs_pruned;
        continue;
      }
      const size_t r_size = index_.RowTokenCount(r);
      const size_t required_pair = std::max<size_t>(
          topt.min_shared_tokens,
          CeilBound(topt.min_jaccard * static_cast<double>(l_full + r_size) /
                    (1.0 + topt.min_jaccard)));
      if (std::min(n_present, r_size) < required_pair) {
        ++s->pairs_pruned;
        continue;
      }
      size_t shared_full = shared_probe;
      if (!s->stop_ids.empty()) {
        size_t count = 0;
        const uint32_t* rids = index_.RowTokens(r, &count);
        for (const uint32_t id : s->stop_ids) {
          shared_full += std::binary_search(rids, rids + count, id);
        }
      }
      if (shared_full < required_pair) {
        ++s->pairs_pruned;
        continue;
      }
      const size_t unioned = l_full + r_size - shared_full;
      const double jaccard =
          unioned == 0
              ? 0.0
              : static_cast<double>(shared_full) / static_cast<double>(unioned);
      if (jaccard < topt.min_jaccard) continue;
      s->row_out.push_back({left_row, r, jaccard});
    }
    SortRowCandidates(&s->row_out);
    if (topt.max_candidates_per_row > 0 &&
        s->row_out.size() > topt.max_candidates_per_row) {
      s->row_out.resize(topt.max_candidates_per_row);
    }
  }

  // 5. Embedding-LSH second stage: recovers matches sharing no surface
  // token; merged best-score-per-pair with the token candidates.
  if (lsh_ != nullptr && !s->doc_tokens.empty()) {
    const la::Vec pooled = embedding::SemanticEncoder::PoolTokens(
        options_.encoder->EncodeTokens(s->doc_tokens));
    s->lsh_out.clear();
    lsh_->Probe(left_row, pooled, &s->lsh_out);
    for (const CandidatePair& cand : s->lsh_out) {
      bool merged = false;
      for (CandidatePair& existing : s->row_out) {
        if (existing.right_row == cand.right_row) {
          existing.score = std::max(existing.score, cand.score);
          merged = true;
          break;
        }
      }
      if (!merged) s->row_out.push_back(cand);
    }
    SortRowCandidates(&s->row_out);
  }

  s->candidates += s->row_out.size();
  out->insert(out->end(), s->row_out.begin(), s->row_out.end());
}

bool CandidateStream::Next(std::vector<CandidatePair>* chunk) {
  chunk->clear();
  EnsureBuilt();
  if (next_left_row_ >= left_.size()) return false;
  obs::SpanScope span("blocking.probe");

  const size_t begin = next_left_row_;
  const size_t end =
      std::min(begin + options_.chunk_left_rows, left_.size());
  next_left_row_ = end;
  const size_t n = end - begin;

  static obs::Counter& candidates_emitted =
      obs::Registry::Global().GetCounter("blocking.candidates_emitted");
  static obs::Counter& pairs_pruned =
      obs::Registry::Global().GetCounter("blocking.pairs_pruned");
  static obs::Counter& exact_dupes =
      obs::Registry::Global().GetCounter("blocking.exact_dupes");
  static obs::Histogram& probe_ns =
      obs::Registry::Global().GetHistogram("blocking.probe_ns");
  const bool metrics = obs::MetricsEnabled();

  // Per-row output slots merged in row order: byte-identical chunks at
  // every thread count.
  std::vector<std::vector<CandidatePair>> rows(n);
  util::ParallelFor(
      n, kProbeGrain,
      [&](size_t chunk_begin, size_t chunk_end, size_t) {
        ProbeScratch scratch(right_.size());
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          const std::uint64_t t0 = metrics ? obs::NowNanos() : 0;
          ProbeRow(begin + i, &scratch, &rows[i]);
          if (metrics) probe_ns.Record(obs::NowNanos() - t0);
        }
        if (metrics) {
          candidates_emitted.Add(scratch.candidates);
          pairs_pruned.Add(scratch.pairs_pruned);
          exact_dupes.Add(scratch.exact_dupes);
        }
      },
      pool_);

  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  chunk->reserve(total);
  for (const auto& row : rows) {
    chunk->insert(chunk->end(), row.begin(), row.end());
  }
  return true;
}

std::vector<CandidatePair> CandidateStream::Drain() {
  std::vector<CandidatePair> all, chunk;
  while (Next(&chunk)) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

std::vector<TableMatch> MatchTables(const core::WymModel& model,
                                    const EntityTable& left,
                                    const EntityTable& right,
                                    const MatchTablesOptions& options,
                                    util::ThreadPool* pool,
                                    MatchTablesStats* stats) {
  WYM_CHECK(model.fitted()) << "MatchTables requires a fitted model";
  WYM_CHECK_EQ(model.num_attributes(), left.schema.size())
      << "model was trained on a different schema";

  CandidateStreamOptions stream_options = options.stream;
  stream_options.encoder = &model.encoder();
  CandidateStream stream(left, right, stream_options, pool);

  if (stats != nullptr) *stats = MatchTablesStats{};
  const size_t batch = std::max<size_t>(options.batch_candidates, 1);

  std::vector<TableMatch> matches;
  std::vector<CandidatePair> pending, chunk;
  std::vector<data::EmRecord> records;

  // Scores `count` pending candidates through the batch predictor and
  // keeps the matches; pending memory stays bounded by ~2 batches.
  const auto flush = [&](size_t count) {
    records.clear();
    records.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      data::EmRecord record;
      record.left = left.rows[pending[i].left_row];
      record.right = right.rows[pending[i].right_row];
      records.push_back(std::move(record));
    }
    core::PredictionReport report;
    const std::vector<double> probas =
        model.PredictProbaBatch(records, &report, pool);
    for (size_t i = 0; i < count; ++i) {
      if (probas[i] < options.min_probability) continue;
      matches.push_back({pending[i].left_row, pending[i].right_row, probas[i],
                         pending[i].score});
    }
    if (stats != nullptr) {
      stats->candidates_scored += count;
      stats->records_quarantined += report.quarantined.size();
    }
    pending.erase(pending.begin(), pending.begin() + count);
  };

  while (stream.Next(&chunk)) {
    pending.insert(pending.end(), chunk.begin(), chunk.end());
    while (pending.size() >= batch) flush(batch);
  }
  if (!pending.empty()) flush(pending.size());

  std::sort(matches.begin(), matches.end(),
            [](const TableMatch& a, const TableMatch& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              if (a.left_row != b.left_row) return a.left_row < b.left_row;
              return a.right_row < b.right_row;
            });
  return matches;
}

}  // namespace wym::blocking
