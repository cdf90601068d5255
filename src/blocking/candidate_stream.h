#ifndef WYM_BLOCKING_CANDIDATE_STREAM_H_
#define WYM_BLOCKING_CANDIDATE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "blocking/blocker.h"
#include "blocking/fingerprint.h"
#include "blocking/inverted_index.h"
#include "blocking/lsh.h"
#include "core/wym.h"
#include "embedding/semantic_encoder.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

/// \file
/// The streaming candidate-generation tier: two raw entity tables in,
/// bounded-memory chunks of scored candidate pairs out, ranked matches
/// at the end (see DESIGN.md "Candidate generation").
///
/// A CandidateStream owns the per-run indexes (sharded inverted index,
/// fingerprint table, optional embedding LSH) over the right table and
/// probes the left table chunk by chunk; at no point do all candidates
/// for two large tables have to coexist in memory. MatchTables() pipes
/// those chunks straight into WymModel::PredictProbaBatch, which is how
/// two 10^6-row tables become ranked matches without an O(n^2) pass.
///
/// Determinism: probes fan out over util::ParallelFor with per-row
/// output slots merged in row order; every score goes through
/// la::kernels or integer Jaccard. Candidate chunks are byte-identical
/// at every WYM_THREADS and WYM_SIMD setting.

namespace wym::blocking {

/// Bounds of the token-index stage.
struct TokenStageOptions {
  /// Minimum number of shared tokens for a pair to be scored at all.
  size_t min_shared_tokens = 1;
  /// Minimum token Jaccard over the full descriptions.
  double min_jaccard = 0.15;
  /// Keep at most this many candidates per left row (best first);
  /// 0 = unlimited.
  size_t max_candidates_per_row = 10;
  /// Tokens occurring in more than this fraction of the right table are
  /// skipped when probing the index (stop-token pruning); 1 disables.
  double max_token_frequency = 0.25;
};

/// Options for CandidateStream.
///
/// Every stream runs the exact-duplicate short-circuit first: a left
/// row whose normalized token set equals some right rows' emits exactly
/// those rows (ascending, score 1.0, regardless of
/// `max_candidates_per_row`) and skips index and LSH probing.
struct CandidateStreamOptions {
  /// Token-index stage bounds.
  TokenStageOptions token;
  /// Embedding-LSH second stage; only active when `encoder` is set.
  EmbeddingLshOptions lsh;
  /// Fitted encoder powering the LSH stage (borrowed; must outlive the
  /// stream). nullptr disables LSH.
  const embedding::SemanticEncoder* encoder = nullptr;
  /// Left rows consumed per Next() chunk (the memory bound).
  size_t chunk_left_rows = 2048;
};

/// Pull-based stream of candidate chunks over two tables. Tables are
/// borrowed and must outlive the stream. Indexes build lazily on the
/// first Next().
class CandidateStream {
 public:
  using Options = CandidateStreamOptions;

  CandidateStream(const EntityTable& left, const EntityTable& right,
                  Options options = {}, util::ThreadPool* pool = nullptr);
  ~CandidateStream();

  CandidateStream(const CandidateStream&) = delete;
  CandidateStream& operator=(const CandidateStream&) = delete;

  /// Builds the right-table indexes (inverted index, fingerprints,
  /// LSH) now instead of lazily on the first Next(). Idempotent; lets
  /// callers separate one-time build cost from probe throughput.
  void Prepare() { EnsureBuilt(); }

  /// Fills `chunk` with the candidates of the next block of left rows,
  /// sorted by (left_row asc, score desc, right_row asc). Returns false
  /// (leaving `chunk` empty) once every left row has been consumed.
  bool Next(std::vector<CandidatePair>* chunk);

  /// Runs the stream to completion and concatenates every chunk —
  /// the convenience path for tables that fit in memory.
  std::vector<CandidatePair> Drain();

  /// Left rows consumed so far.
  size_t left_rows_consumed() const { return next_left_row_; }

  const ShardedInvertedIndex& index() const { return index_; }
  const EmbeddingLsh* lsh() const { return lsh_.get(); }

 private:
  struct ProbeScratch;  // Per-chunk probe scratch; defined in the .cc.

  void EnsureBuilt();
  /// Probes one left row; appends its merged candidate list.
  void ProbeRow(size_t left_row, ProbeScratch* scratch,
                std::vector<CandidatePair>* out) const;

  const EntityTable& left_;
  const EntityTable& right_;
  Options options_;
  util::ThreadPool* pool_;
  text::Tokenizer tokenizer_;
  bool built_ = false;
  size_t next_left_row_ = 0;
  ShardedInvertedIndex index_;
  FingerprintIndex fingerprints_;
  std::unique_ptr<EmbeddingLsh> lsh_;
};

/// One resolved match from MatchTables.
struct TableMatch {
  size_t left_row = 0;
  size_t right_row = 0;
  /// WYM matching probability.
  double probability = 0.0;
  /// The blocking-stage score that surfaced the pair (Jaccard, cosine
  /// or 1.0 for exact duplicates).
  double blocking_score = 0.0;
};

/// Options for MatchTables.
struct MatchTablesOptions {
  /// Candidate generation. `stream.encoder` is ignored: MatchTables
  /// always runs the LSH stage with the model's own fitted encoder.
  CandidateStreamOptions stream;
  /// Keep matches at or above this probability.
  double min_probability = 0.5;
  /// Candidate pairs per PredictProbaBatch call (the scoring-side
  /// memory bound).
  size_t batch_candidates = 4096;
};

/// Aggregate accounting of one MatchTables run.
struct MatchTablesStats {
  size_t candidates_scored = 0;
  size_t records_quarantined = 0;
};

/// End-to-end two-raw-tables matching: streams blocked candidates into
/// `model.PredictProbaBatch` in bounded chunks and returns the pairs
/// predicted as matches, ranked by (probability desc, left asc, right
/// asc). The model must be fitted on the same schema.
std::vector<TableMatch> MatchTables(const core::WymModel& model,
                                    const EntityTable& left,
                                    const EntityTable& right,
                                    const MatchTablesOptions& options = {},
                                    util::ThreadPool* pool = nullptr,
                                    MatchTablesStats* stats = nullptr);

}  // namespace wym::blocking

#endif  // WYM_BLOCKING_CANDIDATE_STREAM_H_
