#ifndef VADA_DATALOG_AST_H_
#define VADA_DATALOG_AST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "kb/value.h"

namespace vada::datalog {

/// A position in Vadalog source text (1-based). Default-constructed
/// positions (line 0) mean "unknown" — e.g. programmatically built ASTs.
/// The parser stamps every term, atom, literal and rule it produces so
/// static-analysis diagnostics can anchor to the offending token.
struct SourcePos {
  int line = 0;
  int col = 0;

  bool known() const { return line > 0; }
  /// "line L, col C" (or "unknown position").
  std::string ToString() const;
};

/// Best available anchor: the preferred position (a term's own), else a
/// fallback (enclosing literal / rule head), else unknown.
inline SourcePos Anchor(const SourcePos& preferred, const SourcePos& fallback) {
  return preferred.known() ? preferred : fallback;
}

/// Aggregate functions usable in rule heads (Vadalog-style aggregation).
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// A term: a constant value, a variable, or (only in rule heads) an
/// aggregate over a variable such as count<X>.
class Term {
 public:
  enum class Kind { kConstant, kVariable, kAggregate };

  static Term Constant(Value v);
  static Term Variable(std::string name);
  static Term Aggregate(AggFunc func, std::string var);

  Kind kind() const { return kind_; }
  bool is_constant() const { return kind_ == Kind::kConstant; }
  bool is_variable() const { return kind_ == Kind::kVariable; }
  bool is_aggregate() const { return kind_ == Kind::kAggregate; }

  /// Pre-condition: is_constant().
  const Value& value() const { return value_; }
  /// Pre-condition: is_variable() or is_aggregate() (the aggregated var).
  const std::string& var() const { return var_; }
  /// Pre-condition: is_aggregate().
  AggFunc agg_func() const { return agg_func_; }

  /// Source anchor of the term's first token; ignored by operator==.
  const SourcePos& pos() const { return pos_; }
  void set_pos(SourcePos pos) { pos_ = pos; }

  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b);

 private:
  Kind kind_ = Kind::kConstant;
  Value value_;
  std::string var_;
  AggFunc agg_func_ = AggFunc::kCount;
  SourcePos pos_;
};

/// A predicate applied to terms: p(t1, ..., tn).
struct Atom {
  std::string predicate;
  std::vector<Term> terms;
  SourcePos pos;  ///< position of the predicate name token

  std::string ToString() const;
};

/// Comparison operators for built-in literals.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Arithmetic operators for assignment literals.
enum class ArithOp { kNone, kAdd, kSub, kMul, kDiv };

/// One conjunct of a rule body. Exactly one of the following shapes:
///  - positive atom          p(X, Y)
///  - negated atom           not p(X, Y)
///  - comparison             X < Y, X != "a"
///  - assignment             Z = X + Y, Z = X (copy)
struct Literal {
  enum class Kind { kAtom, kNegatedAtom, kComparison, kAssignment };

  Kind kind = Kind::kAtom;

  // kAtom / kNegatedAtom
  Atom atom;

  // kComparison
  CompareOp compare_op = CompareOp::kEq;
  Term lhs;  // also assignment operand 1
  Term rhs;  // also assignment operand 2 (unused when arith_op == kNone)

  // kAssignment
  std::string assign_var;
  ArithOp arith_op = ArithOp::kNone;

  SourcePos pos;  ///< position of the literal's first token

  static Literal Positive(Atom a);
  static Literal Negative(Atom a);
  static Literal Comparison(Term lhs, CompareOp op, Term rhs);
  static Literal Assignment(std::string var, Term operand1, ArithOp op,
                            Term operand2);

  std::string ToString() const;
};

/// A Datalog rule: head :- body. A rule with an empty body is a fact
/// (ground head required).
struct Rule {
  Atom head;
  std::vector<Literal> body;
  SourcePos pos;  ///< position of the head predicate token

  bool IsFact() const { return body.empty(); }
  bool HasAggregates() const;
  std::string ToString() const;
};

/// A parsed program: an ordered list of rules (facts included).
///
/// Use Validate() to check safety (range restriction): every variable in
/// the head, in negated atoms and in comparisons must be bound by a
/// positive body atom or by an assignment whose operands are bound.
struct Program {
  std::vector<Rule> rules;

  /// All predicate names appearing in rule heads (the IDB).
  std::vector<std::string> HeadPredicates() const;

  Status Validate() const;
  std::string ToString() const;
};

/// One safety violation of a rule, as the analyzer reports it.
struct SafetyViolation {
  std::string check_id;  ///< "safety/..."
  SourcePos pos;         ///< the offending term, else its literal or rule
  std::string message;
  std::string fix_hint;
};

/// Every safety violation of `rule`: aggregates in the body, non-ground
/// facts, and (range restriction) variables of the head, negated atoms,
/// comparisons and assignment operands that no positive body atom binds,
/// directly or through assignments from bound variables. The one safety
/// check: ValidateRule reports the first violation, the analyzer all.
std::vector<SafetyViolation> SafetyViolations(const Rule& rule);

/// Checks a single rule for safety and aggregate placement: the first
/// of SafetyViolations as InvalidArgument.
Status ValidateRule(const Rule& rule);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_AST_H_
