#include "mapping/generator.h"

#include <algorithm>
#include <set>

namespace vada {

namespace {

/// Variable name for a target attribute: "V_price". Target attribute
/// names are lowercase identifiers in this codebase; prefixing keeps the
/// result a valid Datalog variable regardless.
std::string VarFor(const std::string& target_attr) {
  std::string out = "V_";
  for (char c : target_attr) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

/// Correspondences of one source: target attribute -> source attribute.
using SourceCorrespondences = std::map<std::string, std::string>;

/// Renders the body atom for `source`, putting the variable of the
/// matched target attribute at each matched position and a fresh unused
/// variable elsewhere. `suffix` keeps don't-care variables distinct
/// between two atoms of a join.
std::string SourceAtom(const Schema& source,
                       const SourceCorrespondences& corr,
                       const std::string& suffix) {
  std::string out = source.relation_name() + "(";
  int fresh = 0;
  for (size_t i = 0; i < source.arity(); ++i) {
    if (i > 0) out += ", ";
    const std::string& attr = source.attributes()[i].name;
    std::string var;
    for (const auto& [target_attr, source_attr] : corr) {
      if (source_attr == attr) {
        var = VarFor(target_attr);
        break;
      }
    }
    if (var.empty()) {
      var = "U" + suffix + std::to_string(fresh++);
    }
    out += var;
  }
  out += ")";
  return out;
}

/// Renders the head: matched target attributes become variables, others
/// become null constants.
std::string HeadAtom(const std::string& predicate, const Schema& target,
                     const std::set<std::string>& covered) {
  std::string out = predicate + "(";
  for (size_t i = 0; i < target.arity(); ++i) {
    if (i > 0) out += ", ";
    const std::string& attr = target.attributes()[i].name;
    out += (covered.count(attr) > 0) ? VarFor(attr) : std::string("null");
  }
  out += ")";
  return out;
}

}  // namespace

MappingGenerator::MappingGenerator(MappingGeneratorOptions options)
    : options_(options) {}

Result<std::vector<Mapping>> MappingGenerator::Generate(
    const Schema& target, const std::vector<Schema>& sources,
    const std::vector<MatchCandidate>& matches) const {
  VADA_RETURN_IF_ERROR(target.Validate());
  // Upper bound on generated candidates (defensive; joins are quadratic
  // in the number of sources).
  constexpr size_t kMaxCandidates = 200;

  // Index correspondences per source relation, keeping the best match per
  // target attribute.
  std::map<std::string, SourceCorrespondences> corr_of;
  std::map<std::string, std::map<std::string, double>> score_of;
  for (const MatchCandidate& m : matches) {
    if (m.score < options_.min_match_score) continue;
    if (m.target_relation != target.relation_name()) continue;
    if (!target.AttributeIndex(m.target_attribute).has_value()) continue;
    double& best = score_of[m.source_relation][m.target_attribute];
    if (m.score > best) {
      best = m.score;
      corr_of[m.source_relation][m.target_attribute] = m.source_attribute;
    }
  }

  std::vector<Mapping> out;
  int next_id = 0;
  auto make_id = [&next_id](const std::string& desc) {
    return "m" + std::to_string(next_id++) + "_" + desc;
  };

  // Projection mappings.
  for (const Schema& source : sources) {
    auto it = corr_of.find(source.relation_name());
    if (it == corr_of.end() || it->second.empty()) continue;
    std::set<std::string> covered;
    for (const auto& [t, s] : it->second) covered.insert(t);

    Mapping m;
    m.id = make_id(source.relation_name());
    m.source_relations = {source.relation_name()};
    m.target_relation = target.relation_name();
    m.covered_attributes.assign(covered.begin(), covered.end());
    m.result_predicate = "mapping_result_" + m.id;
    m.rule_text = HeadAtom(m.result_predicate, target, covered) + " :- " +
                  SourceAtom(source, it->second, "a") + ".";
    out.push_back(std::move(m));
    if (out.size() >= kMaxCandidates) return out;
  }

  if (!options_.generate_joins) return out;

  // Two-way join mappings.
  for (size_t i = 0; i < sources.size(); ++i) {
    auto it1 = corr_of.find(sources[i].relation_name());
    if (it1 == corr_of.end()) continue;
    for (size_t j = 0; j < sources.size(); ++j) {
      if (i == j) continue;
      auto it2 = corr_of.find(sources[j].relation_name());
      if (it2 == corr_of.end()) continue;

      // Join attributes: target attributes both sources match.
      std::set<std::string> join_attrs;
      for (const auto& [t, s] : it1->second) {
        if (it2->second.count(t) > 0) join_attrs.insert(t);
      }
      if (join_attrs.empty()) continue;

      // The second source must contribute something new; and to avoid the
      // mirrored duplicate (s2 ⋈ s1), require i < j unless coverage is
      // asymmetric.
      std::set<std::string> extra2;
      for (const auto& [t, s] : it2->second) {
        if (it1->second.count(t) == 0) extra2.insert(t);
      }
      if (extra2.empty()) continue;
      std::set<std::string> extra1;
      for (const auto& [t, s] : it1->second) {
        if (it2->second.count(t) == 0) extra1.insert(t);
      }
      // When both orientations are viable (each side adds something), the
      // two joins cover the same attributes; emit only the i < j one.
      if (i > j && !extra1.empty()) continue;

      // Head coverage: everything source 1 matches plus source 2 extras.
      std::set<std::string> covered;
      for (const auto& [t, s] : it1->second) covered.insert(t);
      covered.insert(extra2.begin(), extra2.end());

      // Source-2 correspondences restricted to join attrs + its extras,
      // so shared variables implement the equi-join and non-join overlap
      // does not over-constrain.
      SourceCorrespondences corr2;
      for (const auto& [t, s] : it2->second) {
        if (join_attrs.count(t) > 0 || extra2.count(t) > 0) corr2[t] = s;
      }

      Mapping m;
      m.id = make_id(sources[i].relation_name() + "_join_" +
                     sources[j].relation_name());
      m.source_relations = {sources[i].relation_name(),
                            sources[j].relation_name()};
      m.target_relation = target.relation_name();
      m.covered_attributes.assign(covered.begin(), covered.end());
      m.result_predicate = "mapping_result_" + m.id;
      m.rule_text = HeadAtom(m.result_predicate, target, covered) + " :- " +
                    SourceAtom(sources[i], it1->second, "a") + ", " +
                    SourceAtom(sources[j], corr2, "b") + ".";
      out.push_back(std::move(m));
      if (out.size() >= kMaxCandidates) return out;
    }
  }
  return out;
}

}  // namespace vada
