#include "datalog/ast.h"

#include <set>

namespace vada::datalog {

std::string SourcePos::ToString() const {
  if (!known()) return "unknown position";
  return "line " + std::to_string(line) + ", col " + std::to_string(col);
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

Term Term::Constant(Value v) {
  Term t;
  t.kind_ = Kind::kConstant;
  t.value_ = std::move(v);
  return t;
}

Term Term::Variable(std::string name) {
  Term t;
  t.kind_ = Kind::kVariable;
  t.var_ = std::move(name);
  return t;
}

Term Term::Aggregate(AggFunc func, std::string var) {
  Term t;
  t.kind_ = Kind::kAggregate;
  t.agg_func_ = func;
  t.var_ = std::move(var);
  return t;
}

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kConstant:
      return value_.ToLiteral();
    case Kind::kVariable:
      return var_;
    case Kind::kAggregate:
      return std::string(AggFuncName(agg_func_)) + "<" + var_ + ">";
  }
  return "?";
}

bool operator==(const Term& a, const Term& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Term::Kind::kConstant:
      return a.value_ == b.value_;
    case Term::Kind::kVariable:
      return a.var_ == b.var_;
    case Term::Kind::kAggregate:
      return a.agg_func_ == b.agg_func_ && a.var_ == b.var_;
  }
  return false;
}

std::string Atom::ToString() const {
  std::string out = predicate + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  out += ")";
  return out;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {
const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kNone:
      return "";
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}
}  // namespace

Literal Literal::Positive(Atom a) {
  Literal l;
  l.kind = Kind::kAtom;
  l.atom = std::move(a);
  return l;
}

Literal Literal::Negative(Atom a) {
  Literal l;
  l.kind = Kind::kNegatedAtom;
  l.atom = std::move(a);
  return l;
}

Literal Literal::Comparison(Term lhs, CompareOp op, Term rhs) {
  Literal l;
  l.kind = Kind::kComparison;
  l.lhs = std::move(lhs);
  l.compare_op = op;
  l.rhs = std::move(rhs);
  return l;
}

Literal Literal::Assignment(std::string var, Term operand1, ArithOp op,
                            Term operand2) {
  Literal l;
  l.kind = Kind::kAssignment;
  l.assign_var = std::move(var);
  l.lhs = std::move(operand1);
  l.arith_op = op;
  l.rhs = std::move(operand2);
  return l;
}

std::string Literal::ToString() const {
  switch (kind) {
    case Kind::kAtom:
      return atom.ToString();
    case Kind::kNegatedAtom:
      return "not " + atom.ToString();
    case Kind::kComparison:
      return lhs.ToString() + " " + CompareOpName(compare_op) + " " +
             rhs.ToString();
    case Kind::kAssignment: {
      std::string out = assign_var + " = " + lhs.ToString();
      if (arith_op != ArithOp::kNone) {
        out += std::string(" ") + ArithOpName(arith_op) + " " + rhs.ToString();
      }
      return out;
    }
  }
  return "?";
}

bool Rule::HasAggregates() const {
  for (const Term& t : head.terms) {
    if (t.is_aggregate()) return true;
  }
  return false;
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += body[i].ToString();
    }
  }
  out += ".";
  return out;
}

std::vector<std::string> Program::HeadPredicates() const {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const Rule& r : rules) {
    if (seen.insert(r.head.predicate).second) out.push_back(r.head.predicate);
  }
  return out;
}

namespace {

/// Variables bound by positive atoms, then transitively by assignments
/// whose operands are bound (the range-restriction fixpoint).
std::set<std::string> BoundVariables(const Rule& rule) {
  std::set<std::string> bound;
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kAtom) continue;
    for (const Term& t : lit.atom.terms) {
      if (t.is_variable()) bound.insert(t.var());
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAssignment) continue;
      if (bound.count(lit.assign_var) > 0) continue;
      bool operands_ok =
          (!lit.lhs.is_variable() || bound.count(lit.lhs.var()) > 0) &&
          (lit.arith_op == ArithOp::kNone || !lit.rhs.is_variable() ||
           bound.count(lit.rhs.var()) > 0);
      if (operands_ok) {
        bound.insert(lit.assign_var);
        changed = true;
      }
    }
  }
  return bound;
}

}  // namespace

std::vector<SafetyViolation> SafetyViolations(const Rule& rule) {
  std::vector<SafetyViolation> out;
  auto emit = [&out](const char* check_id, SourcePos pos, std::string message,
                     std::string fix_hint) {
    out.push_back(SafetyViolation{check_id, pos, std::move(message),
                                  std::move(fix_hint)});
  };

  // Aggregates are head-only.
  for (const Literal& lit : rule.body) {
    if (lit.kind == Literal::Kind::kAtom ||
        lit.kind == Literal::Kind::kNegatedAtom) {
      for (const Term& t : lit.atom.terms) {
        if (t.is_aggregate()) {
          emit("safety/aggregate-in-body", Anchor(t.pos(), lit.pos),
               "aggregate term " + t.ToString() +
                   " in rule body; aggregates may only appear in heads",
               "move the aggregation into the head of a helper rule");
        }
      }
    } else if (lit.lhs.is_aggregate() || lit.rhs.is_aggregate()) {
      emit("safety/aggregate-in-body", lit.pos,
           "aggregate term in builtin of rule " + rule.ToString(),
           "move the aggregation into the head of a helper rule");
    }
  }

  // Facts must be ground; the per-variable head check below would be
  // redundant noise on top of that.
  if (rule.IsFact()) {
    for (const Term& t : rule.head.terms) {
      if (!t.is_constant()) {
        emit("safety/nonground-fact", Anchor(t.pos(), rule.pos),
             "fact " + rule.ToString() + " has non-constant term " +
                 t.ToString(),
             "facts must list constants only; add a body to make this a "
             "rule");
      }
    }
    return out;
  }

  const std::set<std::string> bound = BoundVariables(rule);
  auto unbound = [&bound](const Term& t) {
    return t.is_variable() && bound.count(t.var()) == 0;
  };
  for (const Term& t : rule.head.terms) {
    if ((t.is_variable() || t.is_aggregate()) && bound.count(t.var()) == 0) {
      emit("safety/unbound-head-variable", Anchor(t.pos(), rule.pos),
           "head variable " + t.var() + " is not bound by a positive body atom",
           "add a positive body atom (or an assignment from bound "
           "variables) binding " +
               t.var());
    }
  }
  for (const Literal& lit : rule.body) {
    switch (lit.kind) {
      case Literal::Kind::kNegatedAtom:
        for (const Term& t : lit.atom.terms) {
          if (unbound(t)) {
            emit("safety/unbound-negated-variable", Anchor(t.pos(), lit.pos),
                 "variable " + t.var() + " in negated atom not " +
                     lit.atom.predicate +
                     "(...) is not bound by a positive body atom",
                 "bind " + t.var() +
                     " positively before negating over it (negation is "
                     "safe only on bound variables)");
          }
        }
        break;
      case Literal::Kind::kComparison:
        for (const Term* t : {&lit.lhs, &lit.rhs}) {
          if (unbound(*t)) {
            emit("safety/unbound-comparison-variable",
                 Anchor(t->pos(), lit.pos),
                 "variable " + t->var() + " in comparison " + lit.ToString() +
                     " is not bound by a positive body atom",
                 "bind " + t->var() + " in a positive body atom");
          }
        }
        break;
      case Literal::Kind::kAssignment:
        for (const Term* t : {&lit.lhs, &lit.rhs}) {
          if (t == &lit.rhs && lit.arith_op == ArithOp::kNone) continue;
          if (unbound(*t)) {
            emit("safety/unbound-assignment-operand",
                 Anchor(t->pos(), lit.pos),
                 "operand " + t->var() + " of assignment " + lit.ToString() +
                     " is not bound by a positive body atom",
                 "bind " + t->var() + " before using it in arithmetic");
          }
        }
        break;
      case Literal::Kind::kAtom:
        break;
    }
  }
  return out;
}

Status ValidateRule(const Rule& rule) {
  if (rule.head.predicate.empty()) {
    return Status::InvalidArgument("rule has empty head predicate");
  }
  std::vector<SafetyViolation> violations = SafetyViolations(rule);
  if (violations.empty()) return Status::OK();
  return Status::InvalidArgument("unsafe rule (" + rule.ToString() +
                                 "): " + violations.front().message);
}

Status Program::Validate() const {
  for (const Rule& r : rules) {
    VADA_RETURN_IF_ERROR(ValidateRule(r));
  }
  return Status::OK();
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& r : rules) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace vada::datalog
