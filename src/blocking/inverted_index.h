#ifndef WYM_BLOCKING_INVERTED_INDEX_H_
#define WYM_BLOCKING_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

/// \file
/// The sharded inverted index behind the candidate-generation tier: a
/// CSR (flat pool + offset array) token -> row index over one entity
/// table, built in parallel on the deterministic runtime.
///
/// Build contract (same shape as the cooc pass): tokenization fans out
/// over fixed row chunks, tokens shard by a thread-count-independent
/// hash, shards sort/unique in parallel, and the final vocabulary is the
/// globally sorted merge — so the index bytes are identical at every
/// WYM_THREADS setting. The vocabulary is lexicographically sorted,
/// which gives two load-bearing invariants:
///
///  * token ids ascend with token strings, so a row's sorted id list is
///    exactly its sorted unique token list (the fingerprint module
///    hashes either representation interchangeably);
///  * posting lists store ascending row indices, so probe-side
///    intersections are ordered merges with early exit.
///
/// Document frequency is the posting-list length; probes order a row's
/// tokens rarest-first and apply prefix pruning against the caller's
/// min_shared_tokens / min_jaccard bounds (see candidate_stream.cc).

namespace wym::blocking {

/// CSR inverted index over the token sets of one EntityTable.
class ShardedInvertedIndex {
 public:
  /// Sentinel for "token not in the vocabulary".
  static constexpr uint32_t kNoToken = UINT32_MAX;

  ShardedInvertedIndex() = default;

  /// Indexes `table` (typically the right/larger side). `stop_fraction`
  /// mirrors TokenStageOptions::max_token_frequency and must be finite
  /// and >= 0: tokens occurring in more than floor(stop_fraction * rows)
  /// rows are flagged as stop tokens for probing (a floor of 0 disables
  /// stop pruning, matching the seed blocker's semantics). Runs on
  /// `pool` (global when null).
  void Build(const EntityTable& table, const text::Tokenizer& tokenizer,
             double stop_fraction, util::ThreadPool* pool = nullptr);

  bool built() const { return built_; }
  size_t rows() const { return row_offsets_.empty() ? 0 : row_offsets_.size() - 1; }
  size_t vocab_size() const { return vocab_.size(); }

  /// Document-frequency threshold above which a token is a stop token
  /// (0 = stop pruning disabled).
  size_t stop_df() const { return stop_df_; }

  /// Id of `token`, or kNoToken. O(log V) binary search over the sorted
  /// vocabulary.
  uint32_t TokenId(const std::string& token) const;

  /// Token string of an id (ids ascend lexicographically).
  const std::string& Token(uint32_t id) const { return vocab_[id]; }

  /// Document frequency (posting-list length) of a token id.
  size_t Df(uint32_t id) const {
    return token_offsets_[id + 1] - token_offsets_[id];
  }

  /// True when the token is probed (present and not a stop token).
  bool IsStop(uint32_t id) const {
    return stop_df_ > 0 && Df(id) > stop_df_;
  }

  /// Posting list of a token id: ascending row indices.
  const uint32_t* Postings(uint32_t id, size_t* count) const {
    *count = Df(id);
    return postings_.data() + token_offsets_[id];
  }

  /// Sorted unique token ids of a row.
  const uint32_t* RowTokens(size_t row, size_t* count) const {
    *count = row_offsets_[row + 1] - row_offsets_[row];
    return row_tokens_.data() + row_offsets_[row];
  }

  /// Unique-token count of a row (|R| in the Jaccard bound).
  size_t RowTokenCount(size_t row) const {
    return row_offsets_[row + 1] - row_offsets_[row];
  }

  /// Full consistency pass over the CSR arrays: offsets monotonic and
  /// in-bounds, posting rows ascending and < rows(), row token ids
  /// ascending and < vocab_size(), df symmetry between the two CSR
  /// views. Returns false on the first violation. Build() runs this
  /// under WYM_DEBUG_CHECKS; tests call it directly.
  bool DebugValidate() const;

 private:
  bool built_ = false;
  size_t stop_df_ = 0;
  /// Lexicographically sorted vocabulary; index = token id.
  std::vector<std::string> vocab_;
  /// CSR row -> sorted unique token ids.
  std::vector<uint32_t> row_tokens_;
  std::vector<size_t> row_offsets_;
  /// CSR token id -> ascending row indices.
  std::vector<uint32_t> postings_;
  std::vector<size_t> token_offsets_;
};

}  // namespace wym::blocking

#endif  // WYM_BLOCKING_INVERTED_INDEX_H_
