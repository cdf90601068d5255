#ifndef WYM_DATA_RECORD_H_
#define WYM_DATA_RECORD_H_

#include <string>
#include <vector>

/// \file
/// Core EM data model (paper §3.1): an EM record is a pair of entity
/// descriptions over a shared schema plus a 0/1 match label.

namespace wym::data {

/// Attribute names shared by both entity descriptions of a record.
struct Schema {
  std::vector<std::string> attributes;

  size_t size() const { return attributes.size(); }
  bool operator==(const Schema& other) const = default;
};

/// One entity description: one string value per schema attribute
/// (possibly empty — real EM data is full of missing values).
struct Entity {
  std::vector<std::string> values;

  size_t size() const { return values.size(); }
};

/// A labelled pair of entity descriptions.
struct EmRecord {
  Entity left;
  Entity right;
  /// 1 = the descriptions refer to the same real-world entity.
  int label = 0;
};

/// A named EM dataset: schema + labelled records.
struct Dataset {
  std::string name;
  Schema schema;
  std::vector<EmRecord> records;

  size_t size() const { return records.size(); }
  /// Record iteration; also lets a Dataset convert to
  /// std::span<const EmRecord> (the WymModel batch APIs).
  std::vector<EmRecord>::const_iterator begin() const {
    return records.begin();
  }
  std::vector<EmRecord>::const_iterator end() const { return records.end(); }

  /// Number of records with label 1.
  size_t MatchCount() const;

  /// Percentage of matching records (0..100).
  double MatchPercent() const;

  /// Labels of all records, in order.
  std::vector<int> Labels() const;
};

/// Returns a dataset containing the records at `indices` (shared schema).
Dataset Subset(const Dataset& dataset, const std::vector<size_t>& indices,
               const std::string& suffix);

}  // namespace wym::data

#endif  // WYM_DATA_RECORD_H_
