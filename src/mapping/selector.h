#ifndef VADA_MAPPING_SELECTOR_H_
#define VADA_MAPPING_SELECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "context/user_context.h"
#include "mapping/mapping.h"
#include "quality/metrics.h"

namespace vada {

/// Score breakdown of one candidate mapping.
struct MappingScore {
  std::string mapping_id;
  double total = 0.0;
  /// criterion id ("completeness(crimerank)") -> (weight, metric value).
  std::map<std::string, std::pair<double, double>> per_criterion;

  std::string ToString() const;
};

/// Options for multi-criteria mapping selection.
struct SelectorOptions {
  /// A mapping is selected when its score >= relative_threshold * best.
  double relative_threshold = 0.85;
  /// Hard cap on selected mappings (0 = unbounded).
  size_t max_selected = 0;
};

/// The paper's Mapping Selection transducer: ranks candidate mappings on
/// the quality metrics in the knowledge base, weighted by the AHP-derived
/// user-context weights ("the pairwise comparisons are used to derive
/// weights that inform the selection of mappings based on
/// multi-dimensional optimization", §3 step 4).
class MappingSelector {
 public:
  explicit MappingSelector(SelectorOptions options = SelectorOptions());

  /// Scores each mapping. `metrics` are facts whose entity is a mapping
  /// id; `weights` may be null (equal weights over every observed
  /// criterion — the bootstrap behaviour before any user context exists).
  std::vector<MappingScore> Score(const std::vector<Mapping>& mappings,
                                  const std::vector<QualityMetricFact>& metrics,
                                  const CriterionWeights* weights) const;

  /// Selects mappings whose score clears the relative threshold, best
  /// first. Returns mapping ids.
  std::vector<std::string> Select(const std::vector<MappingScore>& scores)
      const;

 private:
  SelectorOptions options_;
};

}  // namespace vada

#endif  // VADA_MAPPING_SELECTOR_H_
