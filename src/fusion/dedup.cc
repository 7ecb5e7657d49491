#include "fusion/dedup.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "common/similarity.h"
#include "common/strings.h"

namespace vada {

namespace {

/// Non-null attributes two records must share to be comparable at all
/// (capped at the relation's arity; see RecordSimilarity).
constexpr size_t kMinSharedFields = 3;

double ValueSimilarity(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return 0.0;
  if (a == b) return 1.0;
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (da.has_value() && db.has_value()) {
    // Numbers only count as similar within a tight relative band (5%):
    // two different properties' prices must not read as near-duplicates.
    double scale = std::max({std::fabs(*da), std::fabs(*db), 1e-9});
    double banded = std::fabs(*da - *db) / (0.05 * scale);
    return banded >= 1.0 ? 0.0 : 1.0 - banded;
  }
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    const std::string& sa = a.string_value();
    const std::string& sb = b.string_value();
    // Long strings (descriptions) share templates; character similarity
    // over-scores them, so compare word sets instead.
    if (sa.size() >= 16 || sb.size() >= 16) {
      std::vector<std::string> ta;
      std::vector<std::string> tb;
      for (const std::string& w : Split(sa, ' ')) {
        if (!w.empty()) ta.push_back(w);
      }
      for (const std::string& w : Split(sb, ' ')) {
        if (!w.empty()) tb.push_back(w);
      }
      return TokenJaccard(ta, tb);
    }
    return JaroWinklerSimilarity(sa, sb);
  }
  return 0.0;
}

/// Per-pair similarity over precomputed row features. FindDuplicates
/// compares every row of a block against every other, so anything
/// derivable from one row alone — numeric coercion, long-string token
/// sets — is computed once per row here instead of once per pair
/// (tokenizing per pair dominated the fusion transducer's profile).
/// Scores are exactly RecordSimilarity's: same branches, same math.
class PairScorer {
 public:
  explicit PairScorer(const Relation& rel)
      : arity_(rel.schema().arity()),
        required_(std::min(kMinSharedFields, arity_)) {
    features_.resize(rel.size() * arity_);
    for (size_t r = 0; r < rel.size(); ++r) {
      const Tuple& row = rel.rows()[r];
      for (size_t k = 0; k < arity_; ++k) {
        CellFeature& f = features_[r * arity_ + k];
        const Value& v = row.at(k);
        f.value = &v;
        f.is_null = v.is_null();
        if (f.is_null) continue;
        f.num = v.AsDouble();
        if (v.type() == ValueType::kString) {
          f.str = &v.string_value();
          if (f.str->size() >= 16) {
            f.long_string = true;
            // Sorted unique tokens: TokenJaccard's set semantics,
            // realized as a linear merge at compare time.
            for (const std::string& w : Split(*f.str, ' ')) {
              if (!w.empty()) f.tokens.push_back(w);
            }
            std::sort(f.tokens.begin(), f.tokens.end());
            f.tokens.erase(std::unique(f.tokens.begin(), f.tokens.end()),
                           f.tokens.end());
          }
        }
      }
    }
  }

  double Score(size_t row_a, size_t row_b) const {
    const CellFeature* fa = &features_[row_a * arity_];
    const CellFeature* fb = &features_[row_b * arity_];
    double sum = 0.0;
    size_t counted = 0;
    for (size_t k = 0; k < arity_; ++k) {
      const CellFeature& a = fa[k];
      const CellFeature& b = fb[k];
      if (a.is_null || b.is_null) continue;
      sum += CellSimilarity(a, b);
      ++counted;
    }
    if (counted < required_ || counted == 0) return 0.0;
    return sum / static_cast<double>(counted);
  }

 private:
  struct CellFeature {
    const Value* value = nullptr;
    const std::string* str = nullptr;
    bool is_null = true;
    bool long_string = false;
    std::optional<double> num;
    std::vector<std::string> tokens;  // sorted unique (long strings)
  };

  static double CellSimilarity(const CellFeature& a, const CellFeature& b) {
    if (*a.value == *b.value) return 1.0;
    if (a.num.has_value() && b.num.has_value()) {
      double scale = std::max({std::fabs(*a.num), std::fabs(*b.num), 1e-9});
      double banded = std::fabs(*a.num - *b.num) / (0.05 * scale);
      return banded >= 1.0 ? 0.0 : 1.0 - banded;
    }
    if (a.str != nullptr && b.str != nullptr) {
      if (a.long_string || b.long_string) {
        return SortedTokenJaccard(a.long_string ? a.tokens : Tokenize(*a.str),
                                  b.long_string ? b.tokens : Tokenize(*b.str));
      }
      return JaroWinklerSimilarity(*a.str, *b.str);
    }
    return 0.0;
  }

  static std::vector<std::string> Tokenize(const std::string& s) {
    std::vector<std::string> tokens;
    for (const std::string& w : Split(s, ' ')) {
      if (!w.empty()) tokens.push_back(w);
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    return tokens;
  }

  /// TokenJaccard over already-sorted-unique token vectors (linear merge
  /// instead of two set constructions per pair).
  static double SortedTokenJaccard(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
    if (a.empty() && b.empty()) return 1.0;
    size_t inter = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      int cmp = a[i].compare(b[j]);
      if (cmp == 0) {
        ++inter;
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    size_t uni = a.size() + b.size() - inter;
    if (uni == 0) return 1.0;
    return static_cast<double>(inter) / static_cast<double>(uni);
  }

  size_t arity_;
  size_t required_;
  std::vector<CellFeature> features_;
};

/// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

DuplicateDetector::DuplicateDetector(DedupOptions options)
    : options_(std::move(options)) {}

double DuplicateDetector::RecordSimilarity(const Relation& rel, size_t row_a,
                                           size_t row_b) const {
  const Tuple& a = rel.rows()[row_a];
  const Tuple& b = rel.rows()[row_b];
  const size_t arity = rel.schema().arity();
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < arity; ++i) {
    // A null on either side is absence of evidence, not disagreement —
    // a portal that omitted the crime rank must not veto a duplicate.
    if (a.at(i).is_null() || b.at(i).is_null()) continue;
    sum += ValueSimilarity(a.at(i), b.at(i));
    ++counted;
  }
  if (counted < std::min(kMinSharedFields, arity)) return 0.0;
  if (counted == 0) return 0.0;
  return sum / static_cast<double>(counted);
}

Result<std::vector<DuplicatePair>> DuplicateDetector::FindDuplicates(
    const Relation& rel) const {
  // Build blocks.
  std::map<std::string, std::vector<size_t>> blocks;
  if (options_.blocking_attributes.empty()) {
    std::vector<size_t>& all = blocks[""];
    for (size_t r = 0; r < rel.size(); ++r) all.push_back(r);
  } else {
    std::vector<size_t> key_idx;
    for (const std::string& attr : options_.blocking_attributes) {
      std::optional<size_t> i = rel.schema().AttributeIndex(attr);
      if (!i.has_value()) {
        return Status::NotFound("blocking attribute " + attr + " not in " +
                                rel.schema().ToString());
      }
      key_idx.push_back(*i);
    }
    for (size_t r = 0; r < rel.size(); ++r) {
      std::string key;
      bool has_null = false;
      for (size_t i : key_idx) {
        const Value& v = rel.rows()[r].at(i);
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key += v.ToString();
        key += '\x1f';
      }
      // Rows with null blocking keys cannot be safely blocked; they are
      // left unpaired (a conservative choice documented here).
      if (!has_null) blocks[key].push_back(r);
    }
  }

  std::vector<DuplicatePair> out;
  if (rel.schema().arity() == 0) return out;
  // Defensive on skewed blocks: pairs examined per block.
  constexpr size_t kMaxPairsPerBlock = 100000;
  PairScorer scorer(rel);
  for (const auto& [key, rows] : blocks) {
    size_t pairs = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        if (++pairs > kMaxPairsPerBlock) break;
        double sim = scorer.Score(rows[i], rows[j]);
        if (sim >= options_.threshold) {
          out.push_back(DuplicatePair{rows[i], rows[j], sim});
        }
      }
      if (pairs > kMaxPairsPerBlock) break;
    }
  }
  return out;
}

Result<DuplicateClusters> DuplicateDetector::Cluster(
    const Relation& rel) const {
  Result<std::vector<DuplicatePair>> pairs = FindDuplicates(rel);
  if (!pairs.ok()) return pairs.status();
  UnionFind uf(rel.size());
  for (const DuplicatePair& p : pairs.value()) {
    uf.Union(p.row_a, p.row_b);
  }
  DuplicateClusters out;
  out.cluster_of.resize(rel.size());
  std::map<size_t, size_t> dense;
  for (size_t r = 0; r < rel.size(); ++r) {
    size_t root = uf.Find(r);
    auto [it, added] = dense.emplace(root, dense.size());
    out.cluster_of[r] = it->second;
  }
  out.num_clusters = dense.size();
  return out;
}

}  // namespace vada
