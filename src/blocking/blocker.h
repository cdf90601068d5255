#ifndef WYM_BLOCKING_BLOCKER_H_
#define WYM_BLOCKING_BLOCKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/record.h"

/// \file
/// Candidate generation (blocking): the step upstream of matching in a
/// real ER deployment. The Magellan benchmark datasets the paper
/// evaluates on are *outputs* of such blockers — labelled candidate
/// pairs — so this module closes the loop for users who start from two
/// raw entity tables instead of a pre-paired dataset (see
/// examples/end_to_end_er.cpp).
///
/// This header holds the shared vocabulary (tables, candidate pairs)
/// and the dataset/recall helpers; candidates themselves come from the
/// streaming tier in candidate_stream.h.

namespace wym::blocking {

/// A table of entity descriptions over one schema.
struct EntityTable {
  data::Schema schema;
  std::vector<data::Entity> rows;

  size_t size() const { return rows.size(); }
};

/// One candidate produced by candidate generation.
struct CandidatePair {
  size_t left_row = 0;
  size_t right_row = 0;
  double score = 0.0;
};

/// Builds an EM dataset from blocked candidates: each candidate becomes
/// a record; `left_identity[i]` / `right_identity[j]` give the
/// ground-truth entity id of the rows (records are labelled match when
/// they agree). Used by the end-to-end example and the blocking tests.
data::Dataset BuildCandidateDataset(const EntityTable& left,
                                    const EntityTable& right,
                                    const std::vector<CandidatePair>& pairs,
                                    const std::vector<size_t>& left_identity,
                                    const std::vector<size_t>& right_identity,
                                    const std::string& name);

/// Blocking recall: the fraction of true matches (same identity) that
/// survive into the candidate set. A pair listed more than once counts
/// once.
double BlockingRecall(const std::vector<CandidatePair>& pairs,
                      const std::vector<size_t>& left_identity,
                      const std::vector<size_t>& right_identity);

}  // namespace wym::blocking

#endif  // WYM_BLOCKING_BLOCKER_H_
