#include "match/combiner.h"

#include <map>
#include <tuple>

namespace vada {

namespace {
double WeightFor(const std::string& matcher) {
  if (matcher == "schema_name") return 1.0;
  if (matcher == "instance") return 1.2;
  if (matcher == "feedback") return 2.0;
  return 1.0;
}
}  // namespace

std::vector<MatchCandidate> CombineMatches(
    const std::vector<MatchCandidate>& candidates,
    const CombinerOptions& options) {
  using Key = std::tuple<std::string, std::string, std::string, std::string>;
  struct Acc {
    double weighted_sum = 0.0;
    double weight = 0.0;
    const MatchCandidate* any = nullptr;
  };
  std::map<Key, Acc> acc;
  for (const MatchCandidate& m : candidates) {
    Key key{m.source_relation, m.source_attribute, m.target_relation,
            m.target_attribute};
    double w = WeightFor(m.matcher);
    Acc& a = acc[key];
    a.weighted_sum += w * m.score;
    a.weight += w;
    a.any = &m;
  }
  std::vector<MatchCandidate> merged;
  merged.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    MatchCandidate m = *a.any;
    m.score = (a.weight > 0.0) ? a.weighted_sum / a.weight : 0.0;
    m.matcher = "combined";
    merged.push_back(std::move(m));
  }
  return GreedyOneToOne(std::move(merged), options.threshold);
}

}  // namespace vada
