#ifndef VADA_FUSION_DEDUP_H_
#define VADA_FUSION_DEDUP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "kb/relation.h"

namespace vada {

/// Options for duplicate detection.
struct DedupOptions {
  /// Attributes used to block candidate pairs (rows compared only within
  /// equal blocking-key groups). Empty = single block (quadratic!).
  std::vector<std::string> blocking_attributes;
  /// Record-pair similarity threshold for declaring a duplicate.
  double threshold = 0.8;
};

/// A detected duplicate pair (row indexes into the relation).
struct DuplicatePair {
  size_t row_a = 0;
  size_t row_b = 0;
  double similarity = 0.0;
};

/// Clusters of mutually-duplicate rows (transitive closure of pairs).
struct DuplicateClusters {
  /// cluster id per row (clusters numbered densely from 0).
  std::vector<size_t> cluster_of;
  size_t num_clusters = 0;
};

/// The paper's duplicate-detection functionality ("a data fusion
/// transducer may start to evaluate when duplicates have been detected",
/// §2): blocking + field-wise record similarity over every attribute +
/// union-find clustering. At most 100 000 pairs are examined per block
/// (defensive on skewed blocks).
class DuplicateDetector {
 public:
  explicit DuplicateDetector(DedupOptions options = DedupOptions());

  /// Record-pair similarity: mean of per-attribute value similarities
  /// (exact match 1, numeric closeness, string similarity) over the
  /// attributes where both records are non-null. Pairs sharing fewer than
  /// 3 such attributes (or every attribute, if the relation has fewer)
  /// score 0: a row carrying only a postcode must not absorb its block.
  double RecordSimilarity(const Relation& rel, size_t row_a, size_t row_b)
      const;

  /// All pairs above the threshold.
  Result<std::vector<DuplicatePair>> FindDuplicates(const Relation& rel) const;

  /// Union-find clustering of duplicate pairs.
  Result<DuplicateClusters> Cluster(const Relation& rel) const;

 private:
  DedupOptions options_;
};

}  // namespace vada

#endif  // VADA_FUSION_DEDUP_H_
