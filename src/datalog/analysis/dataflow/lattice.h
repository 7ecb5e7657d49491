#ifndef VADA_DATALOG_ANALYSIS_DATAFLOW_LATTICE_H_
#define VADA_DATALOG_ANALYSIS_DATAFLOW_LATTICE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "kb/value.h"

namespace vada::datalog::dataflow {

/// The abstract domains of the dataflow analysis (DESIGN.md §5h). Each
/// predicate position is described by three cooperating lattices:
///
///   TypeSet   which runtime ValueTypes can occur there,
///   ConstSet  which exact Values can occur (small set, or ⊤),
///   Interval  numeric range when the position is numeric.
///
/// All three are *over*-approximations of the concrete value set: ⊥
/// (empty) means "no value can ever occur here", ⊤ means "anything".
/// Soundness contract: every concrete fact the engine can derive is
/// contained in the abstraction, so emptiness proofs (the lint verdicts)
/// are exact.

// ---------------------------------------------------------------------
// TypeSet: a bitmask over ValueType. Finite lattice of height 5.
// ---------------------------------------------------------------------
class TypeSet {
 public:
  /// ⊥ — no value possible.
  static TypeSet Bottom() { return TypeSet(0); }
  /// ⊤ — any runtime type.
  static TypeSet Top() { return TypeSet(kAllBits); }
  static TypeSet Of(ValueType t) { return TypeSet(Bit(t)); }
  /// {int, double} — the operand types arithmetic accepts.
  static TypeSet Numeric() {
    return TypeSet(Bit(ValueType::kInt) | Bit(ValueType::kDouble));
  }

  bool empty() const { return bits_ == 0; }
  bool is_top() const { return bits_ == kAllBits; }
  bool Contains(ValueType t) const { return (bits_ & Bit(t)) != 0; }
  bool ContainsNumeric() const {
    return (bits_ & Numeric().bits_) != 0;
  }
  /// True when every member type is int or double.
  bool NumericOnly() const {
    return bits_ != 0 && (bits_ & ~Numeric().bits_) == 0;
  }

  TypeSet Union(TypeSet o) const { return TypeSet(bits_ | o.bits_); }
  TypeSet Intersect(TypeSet o) const { return TypeSet(bits_ & o.bits_); }

  friend bool operator==(TypeSet a, TypeSet b) { return a.bits_ == b.bits_; }
  friend bool operator!=(TypeSet a, TypeSet b) { return a.bits_ != b.bits_; }

  /// "{int,double}", "⊥" or "any".
  std::string ToString() const;

 private:
  static constexpr uint8_t Bit(ValueType t) {
    return static_cast<uint8_t>(1u << static_cast<uint8_t>(t));
  }
  static constexpr uint8_t kAllBits = 0x1F;  // null|bool|int|double|string

  explicit TypeSet(uint8_t bits) : bits_(bits) {}
  uint8_t bits_ = 0;
};

// ---------------------------------------------------------------------
// Interval: closed numeric range [lo, hi] with ±inf endpoints. Only
// meaningful for numeric values; non-numeric members of a position are
// not constrained by it. Closed bounds make strict comparisons an
// over-approximation (X > 3 refines lo to 3), which keeps refinement
// sound at the cost of missing the X > c, X < c contradiction.
// ---------------------------------------------------------------------
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Interval Top() { return Interval{}; }
  static Interval Point(double v) { return Interval{v, v}; }
  static Interval Empty() { return Interval{1, 0}; }

  bool empty() const { return lo > hi; }
  bool is_top() const {
    return lo == -std::numeric_limits<double>::infinity() &&
           hi == std::numeric_limits<double>::infinity();
  }
  bool Contains(double v) const { return lo <= v && v <= hi; }

  Interval Union(const Interval& o) const;
  Interval Intersect(const Interval& o) const;
  /// Standard widening: a bound that moved since `prev` jumps to ±inf,
  /// guaranteeing termination of recursive arithmetic (N' = N + 1).
  Interval WidenFrom(const Interval& prev) const;

  friend bool operator==(const Interval& a, const Interval& b) {
    return (a.empty() && b.empty()) || (a.lo == b.lo && a.hi == b.hi);
  }
  friend bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }

  /// "[3, 7]", "[-inf, 0]", "⊥".
  std::string ToString() const;
};

// ---------------------------------------------------------------------
// ConstSet: at most kMaxConsts distinct Values, overflowing to ⊤.
// ---------------------------------------------------------------------
class ConstSet {
 public:
  /// Values tracked before the set widens to ⊤. Small on purpose: the
  /// sets exist to prove emptiness, not to enumerate data.
  static constexpr size_t kMaxConsts = 32;

  /// ⊥ — no value possible.
  static ConstSet None() { return ConstSet(); }
  /// ⊤ — unknown / too many values.
  static ConstSet Top() {
    ConstSet s;
    s.top_ = true;
    return s;
  }
  static ConstSet Of(const Value& v) {
    ConstSet s;
    s.Insert(v);
    return s;
  }

  bool is_top() const { return top_; }
  bool empty() const { return !top_ && values_.empty(); }
  size_t size() const { return values_.size(); }  ///< pre: !is_top()
  const std::vector<Value>& values() const { return values_; }

  /// Exact membership (Value::operator==: Int(3) != Double(3.0)).
  bool Contains(const Value& v) const;
  /// Membership under int/double coercion, mirroring the engine's
  /// CompareValues — Int(3) and Double(3.0) are the same value here.
  bool ContainsCoerced(const Value& v) const;

  /// May widen to ⊤ past kMaxConsts.
  void Insert(const Value& v);
  void UnionWith(const ConstSet& o);
  /// Exact intersection (atom joins match exactly).
  ConstSet Intersect(const ConstSet& o) const;
  /// Coercing intersection (comparison/assignment checks coerce).
  ConstSet IntersectCoerced(const ConstSet& o) const;

  friend bool operator==(const ConstSet& a, const ConstSet& b) {
    return a.top_ == b.top_ && a.values_ == b.values_;
  }
  friend bool operator!=(const ConstSet& a, const ConstSet& b) {
    return !(a == b);
  }

  /// "{1, 2, \"x\"}", "⊥" or "⊤".
  std::string ToString() const;

 private:
  bool top_ = false;
  std::vector<Value> values_;  // sorted, unique
};

// ---------------------------------------------------------------------
// PosFacts: the product lattice describing one predicate position (or
// one variable's abstract value inside a rule body).
// ---------------------------------------------------------------------
struct PosFacts {
  TypeSet types = TypeSet::Bottom();
  ConstSet consts = ConstSet::None();
  Interval range = Interval::Empty();

  static PosFacts Bottom() { return PosFacts{}; }
  static PosFacts Top() {
    return PosFacts{TypeSet::Top(), ConstSet::Top(), Interval::Top()};
  }
  /// The abstraction of one concrete value.
  static PosFacts FromValue(const Value& v);

  /// ⊥ — provably no value fits this description. The interval only
  /// participates when the position is numeric-only (a string member is
  /// unconstrained by it).
  bool empty() const {
    return types.empty() || (types.NumericOnly() && range.empty()) ||
           (!consts.is_top() && consts.empty());
  }

  /// Least upper bound (merging producers of a position).
  PosFacts Join(const PosFacts& o) const;
  /// Exact greatest lower bound (a variable bound at two positions must
  /// match both under Value::operator==).
  PosFacts Meet(const PosFacts& o) const;
  /// Coercing meet for comparison/assignment checks, where the engine
  /// compares through CompareValues: int and double unify.
  PosFacts MeetCoerced(const PosFacts& o) const;
  /// Join with interval widening against this (the previous round's)
  /// state; types and consts are finite so plain join suffices.
  PosFacts JoinWidened(const PosFacts& o) const;

  friend bool operator==(const PosFacts& a, const PosFacts& b) {
    return a.types == b.types && a.consts == b.consts && a.range == b.range;
  }
  friend bool operator!=(const PosFacts& a, const PosFacts& b) {
    return !(a == b);
  }

  std::string ToString() const;
};

}  // namespace vada::datalog::dataflow

#endif  // VADA_DATALOG_ANALYSIS_DATAFLOW_LATTICE_H_
