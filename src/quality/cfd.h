#ifndef VADA_QUALITY_CFD_H_
#define VADA_QUALITY_CFD_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/relation.h"

namespace vada {

/// A pattern cell of a conditional functional dependency: either a
/// constant that must be equal, or a wildcard '_' matching any non-null
/// value.
class PatternValue {
 public:
  static PatternValue Wildcard();
  static PatternValue Constant(Value v);

  bool is_wildcard() const { return is_wildcard_; }
  const Value& value() const { return value_; }

  /// Wildcards match any non-null value; constants match equal values.
  bool Matches(const Value& v) const;

  std::string ToString() const;

  friend bool operator==(const PatternValue& a, const PatternValue& b) {
    return a.is_wildcard_ == b.is_wildcard_ &&
           (a.is_wildcard_ || a.value_ == b.value_);
  }

 private:
  bool is_wildcard_ = true;
  Value value_;
};

/// A conditional functional dependency  (lhs_attributes, lhs_pattern) ->
/// (rhs_attribute, rhs_pattern)  in the style of Fan & Geerts
/// ("Foundations of Data Quality Management", the paper's reference [4]).
///
/// A wildcard rhs makes it a variable CFD: within tuples matching the lhs
/// pattern, equal lhs values must imply equal rhs values. A constant rhs
/// additionally pins the value.
struct Cfd {
  std::vector<std::string> lhs_attributes;
  std::vector<PatternValue> lhs_pattern;
  std::string rhs_attribute;
  PatternValue rhs_pattern = PatternValue::Wildcard();
  /// Fraction of learning tuples matching the lhs pattern.
  double support = 0.0;
  /// Fraction of matching tuples consistent with the dependency.
  double confidence = 0.0;

  bool is_variable() const { return rhs_pattern.is_wildcard(); }
  std::string ToString() const;
};

/// Serialises CFDs as the KB control relation
/// cfd(id, lhs_attributes, lhs_pattern, rhs_attribute, rhs_pattern,
/// support, confidence) with '|'-joined lists, so "CFD facts exist"
/// becomes a Datalog-checkable transducer dependency.
Relation CfdsToRelation(const std::vector<Cfd>& cfds,
                        const std::string& relation_name = "cfd");

/// Parses the relation produced by CfdsToRelation.
Result<std::vector<Cfd>> CfdsFromRelation(const Relation& rel);

/// Options for CFD learning.
struct CfdLearnerOptions {
  /// Candidate lhs sizes: 1 always; also attribute pairs when true.
  bool try_pairs = true;
  /// Minimum matching-tuple count for a dependency to be emitted.
  size_t min_support_count = 3;
  /// Minimum confidence (majority agreement) for variable CFDs.
  double min_confidence = 0.95;
  /// Emit constant CFDs for pure lhs groups of at least this size.
  size_t constant_min_group = 4;
};

/// Learns CFDs from (clean) reference/master data, the paper's CFD
/// Learning transducer: "the data context for the target schema includes
/// instances (e.g., from master or reference data)" (Table 1, §2.3).
class CfdLearner {
 public:
  explicit CfdLearner(CfdLearnerOptions options = CfdLearnerOptions());

  /// Learns dependencies among the attributes of `data`. Null lhs values
  /// are skipped (they carry no evidence).
  std::vector<Cfd> Learn(const Relation& data) const;

 private:
  void LearnForLhs(const Relation& data, const std::vector<size_t>& lhs_idx,
                   std::vector<Cfd>* out) const;

  CfdLearnerOptions options_;
};

/// A detected violation: row index plus the value the dependency expects
/// (null when the expectation is ambiguous).
struct CfdViolation {
  size_t row_index = 0;
  const Cfd* cfd = nullptr;
  Value expected;

  std::string ToString() const;
};

/// Checks relations against CFDs. For variable CFDs the expected rhs per
/// lhs value is taken from `evidence` (typically the reference data the
/// CFD was learned from); when absent, the majority within the checked
/// relation itself is used.
class CfdChecker {
 public:
  CfdChecker(std::vector<Cfd> cfds, const Relation* evidence);

  /// All violations in `data`. Null rhs values do not violate (they are
  /// incompleteness, not inconsistency).
  std::vector<CfdViolation> FindViolations(const Relation& data) const;

  /// 1 - (violating tuples / tuples); 1.0 for empty relations.
  double ConsistencyScore(const Relation& data) const;

  /// Repairs `data` in place: violating rhs cells are set to the expected
  /// value when known. Returns the number of changed cells.
  Result<size_t> Repair(Relation* data) const;

  const std::vector<Cfd>& cfds() const { return cfds_; }

 private:
  std::vector<Cfd> cfds_;
  const Relation* evidence_;  // not owned; may be nullptr
};

}  // namespace vada

#endif  // VADA_QUALITY_CFD_H_
