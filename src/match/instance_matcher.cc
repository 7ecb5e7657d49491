#include "match/instance_matcher.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace vada {

namespace {

struct ColumnProfile {
  std::set<std::string> distinct;  // rendered non-null values
  size_t numeric_count = 0;
  size_t non_null_count = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

ColumnProfile ProfileColumn(const Relation& rel, size_t index) {
  // Distinct values sampled per column (caps cost on large relations).
  constexpr size_t kMaxDistinctValues = 2000;
  ColumnProfile p;
  double sum = 0.0;
  double sq = 0.0;
  for (const Tuple& row : rel.rows()) {
    const Value& v = row.at(index);
    if (v.is_null()) continue;
    ++p.non_null_count;
    if (p.distinct.size() < kMaxDistinctValues) {
      p.distinct.insert(v.ToString());
    }
    std::optional<double> d = v.AsDouble();
    if (d.has_value()) {
      ++p.numeric_count;
      sum += *d;
      sq += *d * *d;
    }
  }
  if (p.numeric_count > 0) {
    p.mean = sum / static_cast<double>(p.numeric_count);
    double var = sq / static_cast<double>(p.numeric_count) - p.mean * p.mean;
    p.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  return p;
}

double OverlapScore(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.distinct.empty() || b.distinct.empty()) return 0.0;
  size_t inter = 0;
  for (const std::string& v : a.distinct) {
    if (b.distinct.count(v) > 0) ++inter;
  }
  size_t uni = a.distinct.size() + b.distinct.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// Similarity of numeric distributions via normalised distance of means
/// and spreads; 0 when either column is mostly non-numeric.
double ProfileScore(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.non_null_count == 0 || b.non_null_count == 0) return 0.0;
  double a_frac = static_cast<double>(a.numeric_count) / a.non_null_count;
  double b_frac = static_cast<double>(b.numeric_count) / b.non_null_count;
  if (a_frac < 0.8 || b_frac < 0.8) return 0.0;
  double scale = std::max({std::fabs(a.mean), std::fabs(b.mean), a.stddev,
                           b.stddev, 1e-9});
  double mean_term = 1.0 - std::min(1.0, std::fabs(a.mean - b.mean) / scale);
  double spread_term =
      1.0 - std::min(1.0, std::fabs(a.stddev - b.stddev) / scale);
  return 0.5 * (mean_term + spread_term);
}

/// Combined score of two already-computed profiles (the shared core of
/// ColumnScore and Match): value overlap vs numeric profile, weighted
/// 0.7 : 0.3 when both apply.
double ScoreProfiles(const ColumnProfile& sp, const ColumnProfile& tp) {
  constexpr double kWeightOverlap = 0.7;
  constexpr double kWeightProfile = 0.3;
  double overlap = OverlapScore(sp, tp);
  double profile = ProfileScore(sp, tp);
  if (profile <= 0.0) return overlap;
  return (kWeightOverlap * overlap + kWeightProfile * profile) /
         (kWeightOverlap + kWeightProfile);
}

}  // namespace

double InstanceMatcher::ColumnScore(const Relation& source,
                                    const std::string& source_attr,
                                    const Relation& target,
                                    const std::string& target_attr) const {
  std::optional<size_t> si = source.schema().AttributeIndex(source_attr);
  std::optional<size_t> ti = target.schema().AttributeIndex(target_attr);
  if (!si.has_value() || !ti.has_value()) return 0.0;
  return ScoreProfiles(ProfileColumn(source, *si), ProfileColumn(target, *ti));
}

std::vector<MatchCandidate> InstanceMatcher::Match(
    const Relation& source, const Relation& target_instances,
    const std::string& target_relation_name,
    const std::vector<std::pair<std::string, std::string>>&
        target_attribute_of) const {
  auto mapped_name = [&](const std::string& instance_attr) -> std::string {
    for (const auto& [from, to] : target_attribute_of) {
      if (from == instance_attr) return to.empty() ? instance_attr : to;
    }
    return instance_attr;
  };

  // Profile every column once: the pairwise loop below would otherwise
  // re-scan (and re-render) each column per opposite-side attribute,
  // which was quadratic in attribute count times linear in rows.
  std::vector<ColumnProfile> source_profiles;
  source_profiles.reserve(source.schema().arity());
  for (size_t i = 0; i < source.schema().arity(); ++i) {
    source_profiles.push_back(ProfileColumn(source, i));
  }
  std::vector<ColumnProfile> target_profiles;
  target_profiles.reserve(target_instances.schema().arity());
  for (size_t i = 0; i < target_instances.schema().arity(); ++i) {
    target_profiles.push_back(ProfileColumn(target_instances, i));
  }

  constexpr double kMinScore = 0.25;
  std::vector<MatchCandidate> out;
  for (size_t si = 0; si < source.schema().arity(); ++si) {
    const Attribute& sa = source.schema().attributes()[si];
    for (size_t ti = 0; ti < target_instances.schema().arity(); ++ti) {
      const Attribute& ta = target_instances.schema().attributes()[ti];
      double score = ScoreProfiles(source_profiles[si], target_profiles[ti]);
      if (score < kMinScore) continue;
      MatchCandidate m;
      m.source_relation = source.name();
      m.source_attribute = sa.name;
      m.target_relation = target_relation_name;
      m.target_attribute = mapped_name(ta.name);
      m.score = score;
      m.matcher = "instance";
      out.push_back(std::move(m));
    }
  }
  return BestPerPair(std::move(out));
}

}  // namespace vada
