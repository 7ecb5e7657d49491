#ifndef VADA_MATCH_INSTANCE_MATCHER_H_
#define VADA_MATCH_INSTANCE_MATCHER_H_

#include <string>
#include <vector>

#include "kb/relation.h"
#include "match/match_types.h"

namespace vada {

/// Instance matcher (Table 1: "Instance Matching | Src/Target Instances"):
/// scores attribute correspondences from the data itself. Works against
/// any relation holding instances for the target side — typically
/// reference/master/example data from the data context.
///
/// Evidence combined per column pair:
///  * value overlap: Jaccard of distinct rendered values;
///  * numeric profile: similarity of (mean, stddev) for numeric columns.
/// When both apply they are weighted 0.7 : 0.3. Candidates scoring below
/// 0.25 are not reported, and at most 2000 distinct values are sampled
/// per column.
class InstanceMatcher {
 public:
  /// Scores every (source attribute, target attribute) pair using the
  /// instances in `source` and `target_instances`. `target_attribute_of`
  /// maps attribute names of `target_instances` to target-schema names
  /// (empty string = same name); candidates are reported against
  /// `target_relation_name`.
  std::vector<MatchCandidate> Match(
      const Relation& source, const Relation& target_instances,
      const std::string& target_relation_name,
      const std::vector<std::pair<std::string, std::string>>&
          target_attribute_of = {}) const;

  /// Column-pair score in [0, 1]; exposed for tests/ablation.
  double ColumnScore(const Relation& source, const std::string& source_attr,
                     const Relation& target, const std::string& target_attr)
      const;
};

}  // namespace vada

#endif  // VADA_MATCH_INSTANCE_MATCHER_H_
