#include "match/schema_matcher.h"

#include <algorithm>
#include <set>

#include "common/similarity.h"
#include "common/strings.h"

namespace vada {

namespace {

/// Built-in synonym groups for the property/open-data domain plus common
/// schema vocabulary. First element is the canonical token.
const std::vector<std::vector<const char*>>& BuiltinSynonymGroups() {
  static const std::vector<std::vector<const char*>>* groups =
      new std::vector<std::vector<const char*>>{
          {"postcode", "zip", "zipcode", "postalcode", "postal"},
          {"price", "cost", "amount", "value"},
          {"street", "road", "address", "addr"},
          {"type", "category", "kind", "class"},
          {"bedrooms", "beds", "bedroom", "rooms"},
          {"crime", "crimerank", "deprivation", "safety"},
          {"description", "details", "summary", "text"},
          {"city", "town", "locality"},
          {"name", "title", "label"},
          {"id", "identifier", "key"},
      };
  return *groups;
}

}  // namespace

SchemaMatcher::SchemaMatcher(SchemaMatcherOptions options)
    : options_(std::move(options)) {
  auto add_group = [this](const std::string& canon,
                          const std::string& member) {
    synonym_canon_[member] = canon;
  };
  if (options_.use_builtin_synonyms) {
    for (const std::vector<const char*>& group : BuiltinSynonymGroups()) {
      std::string canon = group[0];
      for (const char* member : group) add_group(canon, member);
    }
  }
  for (const std::set<std::string>& group : options_.extra_synonyms) {
    if (group.empty()) continue;
    const std::string& canon = *group.begin();
    for (const std::string& member : group) add_group(canon, member);
  }
}

std::string SchemaMatcher::CanonicalToken(const std::string& token) const {
  auto it = synonym_canon_.find(token);
  return it == synonym_canon_.end() ? token : it->second;
}

double SchemaMatcher::NameScore(const std::string& source_name,
                                const std::string& target_name) const {
  std::string s = ToLower(source_name);
  std::string t = ToLower(target_name);
  if (s.empty() || t.empty()) return 0.0;

  // Canonicalised token sets (synonym-aware).
  std::vector<std::string> s_tokens = TokenizeIdentifier(source_name);
  std::vector<std::string> t_tokens = TokenizeIdentifier(target_name);
  for (std::string& tok : s_tokens) tok = CanonicalToken(tok);
  for (std::string& tok : t_tokens) tok = CanonicalToken(tok);

  // Whole-name canonicalisation ("zip" -> "postcode") for the exact part.
  // Joined token forms make "post_code" equal "postcode".
  std::string s_joined;
  for (const std::string& tok : s_tokens) s_joined += tok;
  std::string t_joined;
  for (const std::string& tok : t_tokens) t_joined += tok;
  std::string s_canon = CanonicalToken(s_joined.empty() ? s : s_joined);
  std::string t_canon = CanonicalToken(t_joined.empty() ? t : t_joined);

  double exact =
      (CanonicalToken(s) == CanonicalToken(t) || s_canon == t_canon) ? 1.0
                                                                     : 0.0;
  double jw = JaroWinklerSimilarity(s, t);
  double qg = QGramJaccard(s, t, 3);
  double tok = TokenDice(s_tokens, t_tokens);
  // Containment ("numberOfBedrooms" covers "bedrooms"): overlap coefficient
  // of the canonical token sets.
  double overlap = 0.0;
  {
    std::set<std::string> ss(s_tokens.begin(), s_tokens.end());
    std::set<std::string> ts(t_tokens.begin(), t_tokens.end());
    size_t inter = 0;
    for (const std::string& x : ss) {
      if (ts.count(x) > 0) ++inter;
    }
    size_t smaller = std::min(ss.size(), ts.size());
    if (smaller > 0) {
      overlap = static_cast<double>(inter) / static_cast<double>(smaller);
    }
  }
  tok = std::max(tok, 0.8 * overlap);

  constexpr double kWeightExact = 1.0;
  constexpr double kWeightJaroWinkler = 0.45;
  constexpr double kWeightQgram = 0.25;
  constexpr double kWeightToken = 0.30;
  double combined = (kWeightExact * exact + kWeightJaroWinkler * jw +
                     kWeightQgram * qg + kWeightToken * tok) /
                    (kWeightExact + kWeightJaroWinkler + kWeightQgram +
                     kWeightToken);
  // An exact (canonical) name match should dominate noisy partial scores;
  // full token containment ("numberOfBedrooms" vs "bedrooms") is strong
  // but clearly weaker evidence.
  if (exact > 0.0) return std::max(combined, 0.95);
  if (overlap >= 1.0 && !s_tokens.empty() && !t_tokens.empty()) {
    return std::max(combined, 0.55);
  }
  return combined;
}

std::vector<MatchCandidate> SchemaMatcher::Match(const Schema& source,
                                                 const Schema& target) const {
  constexpr double kMinScore = 0.35;
  std::vector<MatchCandidate> out;
  for (const Attribute& sa : source.attributes()) {
    for (const Attribute& ta : target.attributes()) {
      double score = NameScore(sa.name, ta.name);
      if (score < kMinScore) continue;
      MatchCandidate m;
      m.source_relation = source.relation_name();
      m.source_attribute = sa.name;
      m.target_relation = target.relation_name();
      m.target_attribute = ta.name;
      m.score = score;
      m.matcher = "schema_name";
      out.push_back(std::move(m));
    }
  }
  return BestPerPair(std::move(out));
}

}  // namespace vada
