#include "datalog/analysis/dataflow/lattice.h"

#include <algorithm>
#include <cmath>

namespace vada::datalog::dataflow {

namespace {

/// Numeric view shared with the engine's CompareValues coercion.
std::optional<double> NumericOf(const Value& v) { return v.AsDouble(); }

/// Coercing equality: int/double compare by numeric value, everything
/// else exactly. Matches the engine's CompareValues(a, b) == 0.
bool CoercedEq(const Value& a, const Value& b) {
  std::optional<double> na = NumericOf(a);
  std::optional<double> nb = NumericOf(b);
  if (na.has_value() && nb.has_value()) return *na == *nb;
  return a == b;
}

}  // namespace

std::string TypeSet::ToString() const {
  if (empty()) return "⊥";
  if (is_top()) return "any";
  std::string out = "{";
  bool first = true;
  for (ValueType t : {ValueType::kNull, ValueType::kBool, ValueType::kInt,
                      ValueType::kDouble, ValueType::kString}) {
    if (!Contains(t)) continue;
    if (!first) out += ",";
    out += ValueTypeName(t);
    first = false;
  }
  return out + "}";
}

Interval Interval::Union(const Interval& o) const {
  if (empty()) return o;
  if (o.empty()) return *this;
  return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval Interval::Intersect(const Interval& o) const {
  if (empty() || o.empty()) return Empty();
  return Interval{std::max(lo, o.lo), std::min(hi, o.hi)};
}

Interval Interval::WidenFrom(const Interval& prev) const {
  if (empty()) return *this;
  if (prev.empty()) return *this;
  Interval out = *this;
  if (lo < prev.lo) out.lo = -std::numeric_limits<double>::infinity();
  if (hi > prev.hi) out.hi = std::numeric_limits<double>::infinity();
  return out;
}

std::string Interval::ToString() const {
  if (empty()) return "⊥";
  auto bound = [](double v) {
    if (std::isinf(v)) return std::string(v < 0 ? "-inf" : "inf");
    if (v == std::floor(v) && std::abs(v) < 1e15) {
      return std::to_string(static_cast<int64_t>(v));
    }
    return std::to_string(v);
  };
  return "[" + bound(lo) + ", " + bound(hi) + "]";
}

bool ConstSet::Contains(const Value& v) const {
  if (top_) return true;
  return std::binary_search(values_.begin(), values_.end(), v);
}

bool ConstSet::ContainsCoerced(const Value& v) const {
  if (top_) return true;
  for (const Value& m : values_) {
    if (CoercedEq(m, v)) return true;
  }
  return false;
}

void ConstSet::Insert(const Value& v) {
  if (top_) return;
  auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it != values_.end() && *it == v) return;
  if (values_.size() >= kMaxConsts) {
    top_ = true;
    values_.clear();
    return;
  }
  values_.insert(it, v);
}

void ConstSet::UnionWith(const ConstSet& o) {
  if (top_) return;
  if (o.top_) {
    top_ = true;
    values_.clear();
    return;
  }
  for (const Value& v : o.values_) Insert(v);
}

ConstSet ConstSet::Intersect(const ConstSet& o) const {
  if (top_) return o;
  if (o.top_) return *this;
  ConstSet out;
  for (const Value& v : values_) {
    if (o.Contains(v)) out.Insert(v);
  }
  return out;
}

ConstSet ConstSet::IntersectCoerced(const ConstSet& o) const {
  if (top_) return o;
  if (o.top_) return *this;
  // Keep members of either side that the other side accepts under
  // coercion, so {Int 3} ∩ {Double 3.0} keeps both spellings.
  ConstSet out;
  for (const Value& v : values_) {
    if (o.ContainsCoerced(v)) out.Insert(v);
  }
  for (const Value& v : o.values_) {
    if (ContainsCoerced(v)) out.Insert(v);
  }
  return out;
}

std::string ConstSet::ToString() const {
  if (top_) return "⊤";
  if (values_.empty()) return "⊥";
  std::string out = "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToLiteral();
  }
  return out + "}";
}

PosFacts PosFacts::FromValue(const Value& v) {
  PosFacts out;
  out.types = TypeSet::Of(v.type());
  out.consts = ConstSet::Of(v);
  std::optional<double> n = v.AsDouble();
  out.range = n.has_value() ? Interval::Point(*n) : Interval::Top();
  return out;
}

PosFacts PosFacts::Join(const PosFacts& o) const {
  if (empty()) return o;
  if (o.empty()) return *this;
  PosFacts out;
  out.types = types.Union(o.types);
  out.consts = consts;
  out.consts.UnionWith(o.consts);
  out.range = range.Union(o.range);
  return out;
}

PosFacts PosFacts::Meet(const PosFacts& o) const {
  PosFacts out;
  out.types = types.Intersect(o.types);
  out.consts = consts.Intersect(o.consts);
  out.range = range.Intersect(o.range);
  return out;
}

PosFacts PosFacts::MeetCoerced(const PosFacts& o) const {
  PosFacts out;
  out.types = types.Intersect(o.types);
  // Under coercion a value passes as long as *some* numeric spelling
  // exists on both sides: keep the union of the numeric types whenever
  // both sides can be numeric.
  if (types.ContainsNumeric() && o.types.ContainsNumeric()) {
    out.types = out.types.Union(
        types.Union(o.types).Intersect(TypeSet::Numeric()));
  }
  out.consts = consts.IntersectCoerced(o.consts);
  out.range = range.Intersect(o.range);
  return out;
}

PosFacts PosFacts::JoinWidened(const PosFacts& o) const {
  PosFacts joined = Join(o);
  joined.range = joined.range.WidenFrom(range);
  return joined;
}

std::string PosFacts::ToString() const {
  if (empty()) return "⊥";
  std::string out = types.ToString();
  if (!consts.is_top()) out += " " + consts.ToString();
  if (!range.is_top() && types.ContainsNumeric()) {
    out += " " + range.ToString();
  }
  return out;
}

}  // namespace vada::datalog::dataflow
