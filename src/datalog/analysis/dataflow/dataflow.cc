#include "datalog/analysis/dataflow/dataflow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

#include "datalog/evaluator.h"

namespace vada::datalog::dataflow {

namespace {

/// Abstract counterpart of the engine's ApplyArith: result types follow
/// the int-op-int-stays-int rule, intervals use interval arithmetic.
/// Pre-condition: both operands can be numeric and are non-empty.
PosFacts AbstractArith(ArithOp op, const PosFacts& a, const PosFacts& b) {
  PosFacts out;
  const bool a_int_only = a.types.Intersect(TypeSet::Numeric()) ==
                          TypeSet::Of(ValueType::kInt);
  const bool b_int_only = b.types.Intersect(TypeSet::Numeric()) ==
                          TypeSet::Of(ValueType::kInt);
  if (op == ArithOp::kDiv) {
    out.types = TypeSet::Of(ValueType::kDouble);
  } else if (a_int_only && b_int_only) {
    out.types = TypeSet::Of(ValueType::kInt);
  } else {
    out.types = TypeSet::Numeric();
  }
  out.consts = ConstSet::Top();
  const Interval& ra = a.range;
  const Interval& rb = b.range;
  if (ra.empty() || rb.empty()) {
    out.range = Interval::Empty();
    return out;
  }
  switch (op) {
    case ArithOp::kAdd:
      out.range = Interval{ra.lo + rb.lo, ra.hi + rb.hi};
      break;
    case ArithOp::kSub:
      out.range = Interval{ra.lo - rb.hi, ra.hi - rb.lo};
      break;
    case ArithOp::kMul:
      if (ra.is_top() || rb.is_top() || std::isinf(ra.lo) ||
          std::isinf(ra.hi) || std::isinf(rb.lo) || std::isinf(rb.hi)) {
        out.range = Interval::Top();  // avoid inf*0 NaN corners
      } else {
        double p1 = ra.lo * rb.lo, p2 = ra.lo * rb.hi;
        double p3 = ra.hi * rb.lo, p4 = ra.hi * rb.hi;
        out.range = Interval{std::min(std::min(p1, p2), std::min(p3, p4)),
                             std::max(std::max(p1, p2), std::max(p3, p4))};
      }
      break;
    case ArithOp::kDiv:
    case ArithOp::kNone:
      out.range = Interval::Top();
      break;
  }
  return out;
}

/// Abstract aggregate result, mirroring the evaluator's finalization:
/// count -> Int >= 0; min/max -> one of the aggregated values; sum ->
/// Int(0) for non-numeric groups, else int/double per operands; avg ->
/// Double (Null for non-numeric groups).
PosFacts AbstractAggregate(AggFunc func, const PosFacts& operand) {
  PosFacts out;
  switch (func) {
    case AggFunc::kCount:
      out.types = TypeSet::Of(ValueType::kInt);
      out.consts = ConstSet::Top();
      out.range = Interval{0, std::numeric_limits<double>::infinity()};
      return out;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return operand;  // min/max is one of the aggregated values
    case AggFunc::kSum:
      out.types = TypeSet::Of(ValueType::kInt);
      if (operand.types.Contains(ValueType::kDouble)) {
        out.types = out.types.Union(TypeSet::Of(ValueType::kDouble));
      }
      out.consts = ConstSet::Top();
      out.range = Interval::Top();
      return out;
    case AggFunc::kAvg:
      out.types = TypeSet::Of(ValueType::kDouble);
      if (!operand.types.NumericOnly()) {
        out.types = out.types.Union(TypeSet::Of(ValueType::kNull));
      }
      out.consts = ConstSet::Top();
      out.range = operand.range;  // avg lies within [min, max]
      return out;
  }
  return PosFacts::Top();
}

SourcePos AnchorPos(const SourcePos& preferred, const SourcePos& fallback) {
  return preferred.known() ? preferred : fallback;
}

class Analysis {
 public:
  Analysis(const Program& program, const EdbSeeds& seeds,
           const DataflowOptions& options)
      : program_(program), seeds_(seeds), options_(options) {}

  DataflowResult Run() {
    Initialize();
    // Kleene iteration from ⊥. Types and const sets are finite lattices
    // and intervals widen to ±inf after `kWidenAfter` rounds (the only
    // termination knob), so this converges; the round cap is a defensive
    // valve, with a forced-⊤ fallback that keeps the result sound even if
    // it ever fires.
    constexpr size_t kWidenAfter = 4;
    const size_t max_rounds = 16 + 4 * program_.rules.size();
    bool converged = false;
    for (size_t round = 0; round < max_rounds; ++round) {
      changed_ = false;
      widen_ = round >= kWidenAfter;
      for (const Rule& rule : program_.rules) {
        EvalRule(rule, /*findings=*/nullptr);
      }
      if (!changed_) {
        converged = true;
        break;
      }
    }
    if (!converged) ForceTop();

    // Findings pass against the final (stable) state.
    result_.rule_findings.resize(program_.rules.size());
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      EvalRule(program_.rules[ri], &result_.rule_findings[ri]);
    }
    return std::move(result_);
  }

 private:
  PredicateFacts& StateOf(const std::string& pred) {
    return result_.predicates[pred];
  }

  void SeePredicate(const std::string& pred, size_t arity, bool is_head) {
    PredicateFacts& pf = result_.predicates[pred];
    if (pf.positions.size() < arity) pf.positions.resize(arity);
    if (is_head) idb_.insert(pred);
  }

  void Initialize() {
    for (const Rule& rule : program_.rules) {
      SeePredicate(rule.head.predicate, rule.head.terms.size(),
                   /*is_head=*/true);
      for (const Literal& lit : rule.body) {
        if (lit.kind == Literal::Kind::kAtom ||
            lit.kind == Literal::Kind::kNegatedAtom) {
          SeePredicate(lit.atom.predicate, lit.atom.terms.size(),
                       /*is_head=*/false);
        }
      }
    }
    for (auto& [pred, pf] : result_.predicates) {
      auto seed = seeds_.find(pred);
      if (seed != seeds_.end()) {
        pf.possibly_nonempty = true;
        for (size_t i = 0; i < pf.positions.size(); ++i) {
          pf.positions[i] = i < seed->second.positions.size()
                                ? seed->second.positions[i]
                                : PosFacts::Top();
        }
      } else if (idb_.count(pred) == 0 && options_.assume_unknown_nonempty) {
        // Open world: an unseeded, non-derived predicate may hold
        // anything.
        pf.possibly_nonempty = true;
        for (PosFacts& p : pf.positions) p = PosFacts::Top();
      }
    }
  }

  void ForceTop() {
    for (auto& [pred, pf] : result_.predicates) {
      if (idb_.count(pred) == 0) continue;
      pf.possibly_nonempty = true;
      for (PosFacts& p : pf.positions) p = PosFacts::Top();
    }
  }

  void Fail(std::vector<RuleFinding>* findings, FindingKind kind,
            SourcePos pos, std::string message) {
    if (findings == nullptr) return;
    findings->push_back(RuleFinding{kind, pos, std::move(message)});
  }

  /// Abstractly evaluates one rule against the current state. With null
  /// `findings` (the fixpoint rounds), a rule that can possibly fire
  /// joins its head abstraction into the head predicate's state.
  /// Otherwise (the findings pass) the state is final and only the first
  /// emptiness proof found is recorded (one finding per rule keeps lint
  /// output readable).
  void EvalRule(const Rule& rule, std::vector<RuleFinding>* findings) {
    std::map<std::string, PosFacts> vars;

    // 1. Positive atoms bind variables to the meet of their positions
    // (atom matching is exact: Int(3) never matches Double(3.0)).
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      const PredicateFacts& pf = StateOf(lit.atom.predicate);
      if (!pf.possibly_nonempty) {
        Fail(findings, FindingKind::kEmptyRule,
             AnchorPos(lit.pos, rule.pos),
             "body atom " + lit.atom.predicate +
                 "(...) reads a provably-empty predicate");
        return;
      }
      for (size_t i = 0; i < lit.atom.terms.size(); ++i) {
        const Term& t = lit.atom.terms[i];
        PosFacts posf = i < pf.positions.size() ? pf.positions[i]
                                                : PosFacts::Top();
        if (t.is_constant()) {
          if (posf.types.Intersect(TypeSet::Of(t.value().type())).empty()) {
            Fail(findings, FindingKind::kTypeClash,
                 AnchorPos(t.pos(), lit.pos),
                 "constant " + t.value().ToLiteral() + " can never match " +
                     lit.atom.predicate + " position " + std::to_string(i) +
                     " (inferred types " + posf.types.ToString() + ")");
            return;
          }
          if (posf.Meet(PosFacts::FromValue(t.value())).empty()) {
            Fail(findings, FindingKind::kEmptyRule,
                 AnchorPos(t.pos(), lit.pos),
                 lit.atom.predicate + " never holds " +
                     t.value().ToLiteral() + " at position " +
                     std::to_string(i) + " (inferred " + posf.ToString() +
                     ")");
            return;
          }
          continue;
        }
        if (!t.is_variable()) continue;
        auto [it, inserted] = vars.emplace(t.var(), posf);
        if (inserted) continue;
        PosFacts met = it->second.Meet(posf);
        if (met.empty()) {
          if (it->second.types.Intersect(posf.types).empty()) {
            Fail(findings, FindingKind::kTypeClash,
                 AnchorPos(t.pos(), lit.pos),
                 "variable " + t.var() +
                     " joins positions of incompatible types (" +
                     it->second.types.ToString() + " vs " +
                     posf.types.ToString() + ")");
          } else {
            Fail(findings, FindingKind::kEmptyRule,
                 AnchorPos(t.pos(), lit.pos),
                 "join over " + t.var() +
                     " has no common values (" + it->second.ToString() +
                     " vs " + posf.ToString() + ")");
          }
          return;
        }
        it->second = met;
      }
    }

    auto abstract_of = [&vars](const Term& t) -> std::optional<PosFacts> {
      if (t.is_constant()) return PosFacts::FromValue(t.value());
      auto it = vars.find(t.var());
      if (it == vars.end()) return std::nullopt;
      return it->second;
    };

    // 2. Assignments, iterated so chains (B = A + 1, C = B * 2) resolve
    // regardless of declared order.
    std::set<size_t> done;
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t li = 0; li < rule.body.size(); ++li) {
        const Literal& lit = rule.body[li];
        if (lit.kind != Literal::Kind::kAssignment || done.count(li) > 0) {
          continue;
        }
        std::optional<PosFacts> a = abstract_of(lit.lhs);
        if (!a.has_value()) continue;
        PosFacts computed;
        if (lit.arith_op == ArithOp::kNone) {
          computed = *a;
        } else {
          std::optional<PosFacts> b = abstract_of(lit.rhs);
          if (!b.has_value()) continue;
          if (!a->types.ContainsNumeric() || !b->types.ContainsNumeric()) {
            Fail(findings, FindingKind::kTypeClash, lit.pos,
                 "arithmetic in " + lit.ToString() +
                     " applies to a provably non-numeric operand");
            return;
          }
          computed = AbstractArith(lit.arith_op, *a, *b);
        }
        done.insert(li);
        progress = true;
        auto it = vars.find(lit.assign_var);
        if (it == vars.end()) {
          vars.emplace(lit.assign_var, std::move(computed));
          continue;
        }
        // Assignment over a bound variable is an equality check, and
        // the engine checks it with coercion (CompareValues).
        PosFacts met = it->second.MeetCoerced(computed);
        if (met.empty()) {
          Fail(findings, FindingKind::kContradictoryComparisons, lit.pos,
               "check " + lit.ToString() + " can never hold (" +
                   it->second.ToString() + " vs " + computed.ToString() +
                   ")");
          return;
        }
        it->second = met;
      }
    }

    // 3. Comparisons refine and may prove the body unsatisfiable.
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kComparison) continue;
      if (lit.lhs.is_constant() && lit.rhs.is_constant()) {
        if (!EvalCompare(lit.compare_op, lit.lhs.value(), lit.rhs.value())) {
          Fail(findings, FindingKind::kUnsatisfiableGuard, lit.pos,
               "guard " + lit.ToString() + " is always false");
          return;
        }
        continue;
      }
      PosFacts la = abstract_of(lit.lhs).value_or(PosFacts::Top());
      PosFacts ra = abstract_of(lit.rhs).value_or(PosFacts::Top());
      // CompareValues succeeds only for numeric-numeric pairs or values
      // of one shared type; kNe is the exception — incomparable values
      // count as "not equal" and satisfy it.
      if (lit.compare_op != CompareOp::kNe) {
        const bool comparable =
            (la.types.ContainsNumeric() && ra.types.ContainsNumeric()) ||
            !la.types.Intersect(ra.types).empty();
        if (!comparable) {
          Fail(findings, FindingKind::kUnsatisfiableGuard, lit.pos,
               "comparison " + lit.ToString() +
                   " can never succeed: operand types " +
                   la.types.ToString() + " and " + ra.types.ToString() +
                   " are never comparable");
          return;
        }
      }
      // Exhaustive check over small constant sets.
      if (!la.consts.is_top() && !ra.consts.is_top()) {
        bool any = false;
        for (const Value& va : la.consts.values()) {
          for (const Value& vb : ra.consts.values()) {
            if (EvalCompare(lit.compare_op, va, vb)) {
              any = true;
              break;
            }
          }
          if (any) break;
        }
        if (!any) {
          Fail(findings, FindingKind::kContradictoryComparisons, lit.pos,
               "comparison " + lit.ToString() +
                   " can never hold for the inferred values (" +
                   la.consts.ToString() + " vs " + ra.consts.ToString() +
                   ")");
          return;
        }
      }
      // Refinement of variable operands.
      PosFacts new_la = la;
      PosFacts new_ra = ra;
      switch (lit.compare_op) {
        case CompareOp::kEq: {
          PosFacts met = la.MeetCoerced(ra);
          if (met.empty()) {
            Fail(findings, FindingKind::kContradictoryComparisons, lit.pos,
                 "equality " + lit.ToString() + " can never hold (" +
                     la.ToString() + " vs " + ra.ToString() + ")");
            return;
          }
          new_la = met;
          new_ra = met;
          break;
        }
        case CompareOp::kNe:
          break;  // removes at most one point; not worth tracking
        case CompareOp::kLt:
        case CompareOp::kLe:
          new_la.range = la.range.Intersect(
              Interval{-std::numeric_limits<double>::infinity(),
                       ra.range.hi});
          new_ra.range = ra.range.Intersect(
              Interval{la.range.lo,
                       std::numeric_limits<double>::infinity()});
          break;
        case CompareOp::kGt:
        case CompareOp::kGe:
          new_la.range = la.range.Intersect(
              Interval{ra.range.lo,
                       std::numeric_limits<double>::infinity()});
          new_ra.range = ra.range.Intersect(
              Interval{-std::numeric_limits<double>::infinity(),
                       la.range.hi});
          break;
      }
      bool contradiction = false;
      auto write_back = [&](const Term& term, const PosFacts& refined) {
        if (contradiction || !term.is_variable()) return;
        auto it = vars.find(term.var());
        if (it == vars.end()) return;
        if (refined.empty()) {
          Fail(findings, FindingKind::kContradictoryComparisons, lit.pos,
               "comparisons leave " + term.var() +
                   " with no possible value (" + it->second.ToString() +
                   " refined to ⊥ by " + lit.ToString() + ")");
          contradiction = true;
          return;
        }
        it->second = refined;
      };
      write_back(lit.lhs, new_la);
      write_back(lit.rhs, new_ra);
      if (contradiction) return;
    }

    // Negations never refine (a sound no-op: ignoring a filter only
    // widens the abstraction).

    // 4. Head contribution.
    if (findings != nullptr) return;
    PredicateFacts& head = StateOf(rule.head.predicate);
    if (!head.possibly_nonempty) {
      head.possibly_nonempty = true;
      changed_ = true;
    }
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      const Term& t = rule.head.terms[i];
      PosFacts contrib;
      if (t.is_constant()) {
        contrib = PosFacts::FromValue(t.value());
      } else if (t.is_aggregate()) {
        auto it = vars.find(t.var());
        contrib = AbstractAggregate(
            t.agg_func(), it != vars.end() ? it->second : PosFacts::Top());
      } else {
        auto it = vars.find(t.var());
        contrib = it != vars.end() ? it->second : PosFacts::Top();
      }
      if (i >= head.positions.size()) continue;  // arity clash; lint's job
      PosFacts& slot = head.positions[i];
      PosFacts next =
          widen_ ? slot.JoinWidened(contrib) : slot.Join(contrib);
      if (next != slot) {
        slot = next;
        changed_ = true;
      }
    }
  }

  const Program& program_;
  const EdbSeeds& seeds_;
  const DataflowOptions& options_;

  DataflowResult result_;
  std::set<std::string> idb_;
  bool changed_ = false;
  bool widen_ = false;
};

}  // namespace

const char* FindingCheckId(FindingKind kind) {
  switch (kind) {
    case FindingKind::kEmptyRule:
      return "dataflow/empty-rule";
    case FindingKind::kTypeClash:
      return "dataflow/position-type-clash";
    case FindingKind::kContradictoryComparisons:
      return "dataflow/contradictory-comparisons";
    case FindingKind::kUnsatisfiableGuard:
      return "dataflow/unsatisfiable-guard";
  }
  return "dataflow/unknown";
}

bool DataflowResult::RuleProvablyEmpty(size_t rule_index) const {
  // Every finding kind is an emptiness proof: the rule's body can never
  // be satisfied, so the rule never derives a fact.
  return rule_index < rule_findings.size() &&
         !rule_findings[rule_index].empty();
}

DataflowResult AnalyzeDataflow(const Program& program, const EdbSeeds& seeds,
                               const DataflowOptions& options) {
  Analysis analysis(program, seeds, options);
  return analysis.Run();
}

}  // namespace vada::datalog::dataflow
