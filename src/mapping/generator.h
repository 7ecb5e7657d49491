#ifndef VADA_MAPPING_GENERATOR_H_
#define VADA_MAPPING_GENERATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/schema.h"
#include "mapping/mapping.h"
#include "match/match_types.h"

namespace vada {

/// Options for candidate-mapping generation.
struct MappingGeneratorOptions {
  /// Matches below this score contribute no correspondence.
  double min_match_score = 0.45;
  /// Also propose two-way join mappings when two sources share a matched
  /// target attribute and complement each other's coverage.
  bool generate_joins = true;
};

/// The paper's Mapping Generation transducer (Table 1: depends on
/// src/target schemas + matches): turns attribute correspondences into
/// executable candidate mappings.
///
/// Generated shapes:
///  * projection — one source relation projected onto the target schema,
///    unmatched target attributes null-padded;
///  * two-way join — two sources equi-joined on every target attribute
///    they both match (e.g. Rightmove ⋈ Deprivation on postcode, which
///    is how `crimerank` reaches the paper's Target table).
class MappingGenerator {
 public:
  explicit MappingGenerator(
      MappingGeneratorOptions options = MappingGeneratorOptions());

  /// Generates candidates for `target` given per-source schemas and the
  /// consolidated match set.
  Result<std::vector<Mapping>> Generate(
      const Schema& target, const std::vector<Schema>& sources,
      const std::vector<MatchCandidate>& matches) const;

 private:
  MappingGeneratorOptions options_;
};

}  // namespace vada

#endif  // VADA_MAPPING_GENERATOR_H_
