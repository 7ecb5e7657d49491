#include "mapping/selector.h"

#include <algorithm>
#include <set>

namespace vada {

std::string MappingScore::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", total);
  std::string out = mapping_id + ": " + buf;
  for (const auto& [criterion, wv] : per_criterion) {
    std::snprintf(buf, sizeof(buf), " %s w=%.3f v=%.3f", criterion.c_str(),
                  wv.first, wv.second);
    out += buf;
  }
  return out;
}

MappingSelector::MappingSelector(SelectorOptions options) : options_(options) {}

std::vector<MappingScore> MappingSelector::Score(
    const std::vector<Mapping>& mappings,
    const std::vector<QualityMetricFact>& metrics,
    const CriterionWeights* weights) const {
  // Index metrics: mapping id -> criterion id -> value. Whole-entity
  // metrics (subject "") use the entity's relation-level criterion id
  // "metric(target)"; attribute metrics use "metric(attribute)".
  std::map<std::string, std::map<std::string, double>> metric_of;
  std::set<std::string> all_criteria;
  for (const QualityMetricFact& f : metrics) {
    std::string criterion =
        f.metric + "(" + (f.subject.empty() ? "*" : f.subject) + ")";
    metric_of[f.entity][criterion] = f.value;
    all_criteria.insert(criterion);
  }

  // Weight per criterion id. User weights address subjects like
  // "crimerank" or "property.bedrooms"; metric facts use bare attribute
  // names, so match on the last dotted component.
  auto weight_for = [&](const std::string& criterion) -> double {
    if (weights == nullptr || weights->weight_of.empty()) return 1.0;
    double min_user = 1.0;
    for (const auto& [id, w] : weights->weight_of) {
      min_user = std::min(min_user, w);
    }
    // criterion is "metric(subject)".
    size_t open = criterion.find('(');
    std::string metric = criterion.substr(0, open);
    std::string subject =
        criterion.substr(open + 1, criterion.size() - open - 2);
    for (const auto& [id, w] : weights->weight_of) {
      size_t uopen = id.find('(');
      std::string umetric = id.substr(0, uopen);
      std::string usubject = id.substr(uopen + 1, id.size() - uopen - 2);
      if (umetric != metric) continue;
      // "property.bedrooms" matches subject "bedrooms"; "property" (no
      // dot) matches the whole-entity subject "*".
      size_t dot = usubject.rfind('.');
      std::string uattr =
          (dot == std::string::npos) ? usubject : usubject.substr(dot + 1);
      if (uattr == subject || (subject == "*" && dot == std::string::npos)) {
        return w;
      }
    }
    // Criteria the user context does not mention still matter, slightly:
    // a quarter of the smallest user weight.
    constexpr double kUnmentionedWeightFactor = 0.25;
    return min_user * kUnmentionedWeightFactor;
  };

  std::vector<MappingScore> out;
  for (const Mapping& m : mappings) {
    MappingScore s;
    s.mapping_id = m.id;
    auto it = metric_of.find(m.id);
    double weight_sum = 0.0;
    double value_sum = 0.0;
    for (const std::string& criterion : all_criteria) {
      double value = 0.0;
      if (it != metric_of.end()) {
        auto vit = it->second.find(criterion);
        if (vit != it->second.end()) value = vit->second;
      }
      double w = weight_for(criterion);
      s.per_criterion[criterion] = {w, value};
      weight_sum += w;
      value_sum += w * value;
    }
    s.total = (weight_sum > 0.0) ? value_sum / weight_sum : 0.0;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MappingScore& a, const MappingScore& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.mapping_id < b.mapping_id;
            });
  return out;
}

std::vector<std::string> MappingSelector::Select(
    const std::vector<MappingScore>& scores) const {
  std::vector<std::string> out;
  if (scores.empty()) return out;
  double best = scores.front().total;
  for (const MappingScore& s : scores) {
    if (best > 0.0 && s.total < options_.relative_threshold * best) break;
    if (best <= 0.0 && s.total < best) break;
    out.push_back(s.mapping_id);
    if (options_.max_selected > 0 && out.size() >= options_.max_selected) {
      break;
    }
  }
  return out;
}

}  // namespace vada
