#include "blocking/inverted_index.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace wym::blocking {

namespace {

/// Fixed shard count for the vocabulary build. Thread-count-independent
/// (tokens shard by hash, not by worker), so the merged vocabulary is
/// identical at every WYM_THREADS setting.
constexpr size_t kVocabShards = 16;

/// Row-chunk grain for the parallel passes: large enough to amortize
/// task dispatch, small enough to spread 8 threads over small tables.
constexpr size_t kRowGrain = 256;

/// FNV-1a 64 over the token bytes; only used to pick a vocabulary
/// shard, never persisted.
size_t VocabShard(const std::string& token) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<size_t>(h % kVocabShards);
}

}  // namespace

void ShardedInvertedIndex::Build(const EntityTable& table,
                                 const text::Tokenizer& tokenizer,
                                 double stop_fraction,
                                 util::ThreadPool* pool) {
  obs::SpanScope span("blocking.index_build");
  const size_t n = table.size();
  WYM_CHECK(std::isfinite(stop_fraction) && stop_fraction >= 0.0)
      << "stop_fraction must be finite and >= 0, got " << stop_fraction;
  built_ = true;
  // Fractions above 1 flag nothing, exactly like 1; clamping keeps the
  // size_t cast defined for huge values.
  stop_df_ = static_cast<size_t>(std::min(stop_fraction, 1.0) *
                                 static_cast<double>(n));

  // Pass 1 (parallel rows): tokenize every row into its sorted unique
  // token list, and shard each distinct token by hash. Shard contents
  // depend only on the fixed chunk structure, never on scheduling.
  std::vector<std::vector<std::string>> row_strings(n);
  const size_t chunks = util::NumChunks(n, kRowGrain);
  std::vector<std::vector<std::vector<std::string>>> chunk_shards(
      chunks, std::vector<std::vector<std::string>>(kVocabShards));
  util::ParallelFor(
      n, kRowGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        for (size_t r = begin; r < end; ++r) {
          std::vector<std::string>& tokens = row_strings[r];
          for (const auto& value : table.rows[r].values) {
            for (auto& token : tokenizer.Tokenize(value)) {
              tokens.push_back(std::move(token));
            }
          }
          std::sort(tokens.begin(), tokens.end());
          tokens.erase(std::unique(tokens.begin(), tokens.end()),
                       tokens.end());
          for (const std::string& token : tokens) {
            chunk_shards[chunk][VocabShard(token)].push_back(token);
          }
        }
      },
      pool);

  // Pass 2 (parallel shards): concatenate each shard's chunk slices in
  // chunk order, then sort + unique. Shards are disjoint by hash, so
  // the union of shard vocabularies is duplicate-free.
  std::vector<std::vector<std::string>> shard_vocab(kVocabShards);
  util::ParallelFor(
      kVocabShards, /*grain=*/1,
      [&](size_t begin, size_t end, size_t) {
        for (size_t s = begin; s < end; ++s) {
          std::vector<std::string>& out = shard_vocab[s];
          for (size_t c = 0; c < chunks; ++c) {
            auto& slice = chunk_shards[c][s];
            out.insert(out.end(), std::make_move_iterator(slice.begin()),
                       std::make_move_iterator(slice.end()));
            slice.clear();
          }
          std::sort(out.begin(), out.end());
          out.erase(std::unique(out.begin(), out.end()), out.end());
        }
      },
      pool);

  // Ordered merge: the global vocabulary is the sorted union, so token
  // ids ascend lexicographically (the invariant the fingerprint module
  // and the ordered intersections rely on).
  vocab_.clear();
  size_t vocab_total = 0;
  for (const auto& shard : shard_vocab) vocab_total += shard.size();
  vocab_.reserve(vocab_total);
  for (auto& shard : shard_vocab) {
    vocab_.insert(vocab_.end(), std::make_move_iterator(shard.begin()),
                  std::make_move_iterator(shard.end()));
  }
  std::sort(vocab_.begin(), vocab_.end());

  // Pass 3 (parallel rows): map every row's tokens onto ids. The ids
  // stay sorted because the vocabulary order is the string order.
  row_offsets_.assign(n + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    row_offsets_[r + 1] = row_offsets_[r] + row_strings[r].size();
  }
  row_tokens_.assign(row_offsets_[n], 0);
  util::ParallelFor(
      n, kRowGrain,
      [&](size_t begin, size_t end, size_t) {
        for (size_t r = begin; r < end; ++r) {
          size_t cursor = row_offsets_[r];
          for (const std::string& token : row_strings[r]) {
            const auto it =
                std::lower_bound(vocab_.begin(), vocab_.end(), token);
            row_tokens_[cursor++] = static_cast<uint32_t>(it - vocab_.begin());
          }
          row_strings[r].clear();
          row_strings[r].shrink_to_fit();
        }
      },
      pool);

  // Pass 4 (sequential integer work): CSR postings. Rows are visited in
  // ascending order, so every posting list ascends by construction.
  token_offsets_.assign(vocab_.size() + 1, 0);
  for (const uint32_t id : row_tokens_) ++token_offsets_[id + 1];
  for (size_t t = 0; t < vocab_.size(); ++t) {
    token_offsets_[t + 1] += token_offsets_[t];
  }
  postings_.assign(row_tokens_.size(), 0);
  std::vector<size_t> cursor(token_offsets_.begin(), token_offsets_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      postings_[cursor[row_tokens_[k]]++] = static_cast<uint32_t>(r);
    }
  }

  static obs::Counter& tokens_indexed =
      obs::Registry::Global().GetCounter("blocking.tokens_indexed");
  tokens_indexed.Add(row_tokens_.size());

  WYM_DCHECK(DebugValidate()) << "inverted index CSR invariants violated";
}

uint32_t ShardedInvertedIndex::TokenId(const std::string& token) const {
  const auto it = std::lower_bound(vocab_.begin(), vocab_.end(), token);
  if (it == vocab_.end() || *it != token) return kNoToken;
  return static_cast<uint32_t>(it - vocab_.begin());
}

bool ShardedInvertedIndex::DebugValidate() const {
  if (!built_) return false;
  const size_t n = rows();
  // Row CSR: offsets monotonic, ids ascending (strictly — unique) and
  // inside the vocabulary.
  if (row_offsets_.size() != n + 1 || row_offsets_[0] != 0) return false;
  if (row_offsets_[n] != row_tokens_.size()) return false;
  for (size_t r = 0; r < n; ++r) {
    if (row_offsets_[r] > row_offsets_[r + 1]) return false;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (row_tokens_[k] >= vocab_.size()) return false;
      if (k > row_offsets_[r] && row_tokens_[k - 1] >= row_tokens_[k]) {
        return false;
      }
    }
  }
  // Posting CSR: offsets monotonic and bounded, rows strictly ascending
  // and inside the table, total postings == total row tokens.
  if (token_offsets_.size() != vocab_.size() + 1) return false;
  if (token_offsets_[0] != 0) return false;
  if (token_offsets_[vocab_.size()] != postings_.size()) return false;
  if (postings_.size() != row_tokens_.size()) return false;
  for (size_t t = 0; t < vocab_.size(); ++t) {
    if (token_offsets_[t] > token_offsets_[t + 1]) return false;
    for (size_t k = token_offsets_[t]; k < token_offsets_[t + 1]; ++k) {
      if (postings_[k] >= n) return false;
      if (k > token_offsets_[t] && postings_[k - 1] >= postings_[k]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace wym::blocking
