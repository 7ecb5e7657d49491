#ifndef VADA_MATCH_SCHEMA_MATCHER_H_
#define VADA_MATCH_SCHEMA_MATCHER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "kb/schema.h"
#include "match/match_types.h"

namespace vada {

/// Options for name-based schema matching.
struct SchemaMatcherOptions {
  /// Extra synonym groups merged with the built-in dictionary.
  std::vector<std::set<std::string>> extra_synonyms;
  /// Disable the built-in synonym dictionary (ablation switch).
  bool use_builtin_synonyms = true;
};

/// Name-based schema matcher (paper §2.1: "attribute correspondences may
/// need to be derived by schema matchers"). Scores every source/target
/// attribute pair with a weighted combination of exact/lowercase match,
/// Jaro-Winkler, q-gram Jaccard and token-set similarity (weights 1.0,
/// 0.45, 0.25, 0.30, normalised), with synonym normalisation ("zip" ~
/// "postcode", "beds" ~ "bedrooms", ...). Candidates scoring below 0.35
/// are not reported.
class SchemaMatcher {
 public:
  explicit SchemaMatcher(SchemaMatcherOptions options = SchemaMatcherOptions());

  /// All candidates scoring >= 0.35, best-per-pair deduplicated.
  std::vector<MatchCandidate> Match(const Schema& source,
                                    const Schema& target) const;

  /// Name-pair score in [0, 1]; exposed for tests and ablations.
  double NameScore(const std::string& source_name,
                   const std::string& target_name) const;

 private:
  /// Canonical synonym-group id for `token`, or `token` itself.
  std::string CanonicalToken(const std::string& token) const;

  SchemaMatcherOptions options_;
  std::map<std::string, std::string> synonym_canon_;  // token -> group id
};

}  // namespace vada

#endif  // VADA_MATCH_SCHEMA_MATCHER_H_
