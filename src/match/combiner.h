#ifndef VADA_MATCH_COMBINER_H_
#define VADA_MATCH_COMBINER_H_

#include <vector>

#include "match/match_types.h"

namespace vada {

/// Options for combining evidence from several matchers.
struct CombinerOptions {
  /// Final 1:1 assignment threshold.
  double threshold = 0.45;
};

/// Merges candidates from multiple matchers into a single consolidated
/// candidate per correspondence (weighted mean of the available
/// evidence: schema_name 1.0, instance 1.2, feedback 2.0, any other
/// matcher 1.0), then enforces a greedy 1:1 assignment per source relation.
///
/// This implements the paper's pattern of several transducers per
/// activity (schema vs instance matching) feeding one set of `match`
/// facts in the knowledge base.
std::vector<MatchCandidate> CombineMatches(
    const std::vector<MatchCandidate>& candidates,
    const CombinerOptions& options = CombinerOptions());

}  // namespace vada

#endif  // VADA_MATCH_COMBINER_H_
