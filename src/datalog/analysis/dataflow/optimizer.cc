#include "datalog/analysis/dataflow/optimizer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "datalog/evaluator.h"
#include "datalog/stratify.h"

namespace vada::datalog::dataflow {

namespace {

// ---------------------------------------------------------------------
// Constant folding.
// ---------------------------------------------------------------------

void SubstituteVar(Term* t, const std::string& var, const Value& c) {
  if (t->is_variable() && t->var() == var) {
    SourcePos pos = t->pos();
    *t = Term::Constant(c);
    t->set_pos(pos);
  }
}

/// Folds one rule in place: constant arithmetic collapses to constant
/// copies, always-true constant guards disappear, and constant copy
/// assignments substitute into the rest of the rule. Only assignments
/// that are the *sole* binder of their variable fold — an assignment
/// over a variable bound elsewhere is an equality check with coercing
/// semantics (Int(7) passes a Double(7.0) check) that exact
/// substitution would not preserve. Always-false guards are left in
/// place for the dataflow pass to prove the rule dead.
void FoldRule(Rule* rule, OptimizerReport* report) {
  bool changed = true;
  while (changed) {
    changed = false;

    for (Literal& lit : rule->body) {
      if (lit.kind == Literal::Kind::kAssignment &&
          lit.arith_op != ArithOp::kNone && lit.lhs.is_constant() &&
          lit.rhs.is_constant()) {
        std::optional<Value> r =
            ApplyArith(lit.arith_op, lit.lhs.value(), lit.rhs.value());
        if (!r.has_value()) continue;  // fails at runtime; leave as-is
        SourcePos pos = lit.lhs.pos();
        lit.arith_op = ArithOp::kNone;
        lit.lhs = Term::Constant(std::move(*r));
        lit.lhs.set_pos(pos);
        changed = true;
      }
    }

    for (auto it = rule->body.begin(); it != rule->body.end(); ++it) {
      if (it->kind == Literal::Kind::kComparison && it->lhs.is_constant() &&
          it->rhs.is_constant() &&
          EvalCompare(it->compare_op, it->lhs.value(), it->rhs.value())) {
        rule->body.erase(it);
        ++report->folded_comparisons;
        changed = true;
        break;
      }
    }
    if (changed) continue;

    for (size_t li = 0; li < rule->body.size(); ++li) {
      const Literal& lit = rule->body[li];
      if (lit.kind != Literal::Kind::kAssignment ||
          lit.arith_op != ArithOp::kNone || !lit.lhs.is_constant()) {
        continue;
      }
      const std::string z = lit.assign_var;
      bool sole_binder = true;
      for (size_t lj = 0; lj < rule->body.size() && sole_binder; ++lj) {
        const Literal& other = rule->body[lj];
        if (other.kind == Literal::Kind::kAtom) {
          for (const Term& t : other.atom.terms) {
            if (t.is_variable() && t.var() == z) sole_binder = false;
          }
        } else if (lj != li && other.kind == Literal::Kind::kAssignment &&
                   other.assign_var == z) {
          sole_binder = false;
        }
      }
      for (const Term& t : rule->head.terms) {
        if (t.is_aggregate() && t.var() == z) sole_binder = false;
      }
      if (!sole_binder) continue;

      const Value c = lit.lhs.value();
      rule->body.erase(rule->body.begin() + static_cast<long>(li));
      for (Term& t : rule->head.terms) SubstituteVar(&t, z, c);
      for (Literal& other : rule->body) {
        switch (other.kind) {
          case Literal::Kind::kAtom:
          case Literal::Kind::kNegatedAtom:
            for (Term& t : other.atom.terms) SubstituteVar(&t, z, c);
            break;
          case Literal::Kind::kComparison:
          case Literal::Kind::kAssignment:
            SubstituteVar(&other.lhs, z, c);
            SubstituteVar(&other.rhs, z, c);
            break;
        }
      }
      ++report->folded_assignments;
      changed = true;
      break;
    }
  }
}

// ---------------------------------------------------------------------
// Magic-set transformation.
// ---------------------------------------------------------------------

/// Demand-driven specialization toward the goal: predicates called with
/// bound arguments get adorned copies (`p__bf`) guarded by demand
/// predicates (`m__p__bf`) seeded from their callers' join prefixes,
/// so recursion explores only the bindings the goal can reach.
/// Restrictions that keep the rewrite exact:
///  * aggregate-headed predicates are never specialized (a group needs
///    its full extension);
///  * negated calls keep the original predicate, whose rules are then
///    retained in full;
///  * callees that may also hold EDB facts get a bridge rule copying
///    the demanded slice of the stored relation;
///  * the transformed program is re-validated and re-stratified, with
///    rollback on failure.
class MagicTransformer {
 public:
  MagicTransformer(const Program& program, const std::string& goal,
                   const EdbSeeds& seeds, bool assume_unknown_empty)
      : program_(program),
        goal_(goal),
        seeds_(seeds),
        assume_unknown_empty_(assume_unknown_empty) {}

  /// Returns true (and fills `out`) when specialization applied; false
  /// when the program has nothing to specialize or the transform had
  /// to bail (name collision, size explosion).
  bool Run(Program* out, OptimizerReport* report) {
    for (const Rule& r : program_.rules) {
      idb_.insert(r.head.predicate);
      rules_by_head_[r.head.predicate].push_back(&r);
      if (r.HasAggregates()) aggregate_heads_.insert(r.head.predicate);
      existing_.insert(r.head.predicate);
      for (const Literal& lit : r.body) {
        if (lit.kind == Literal::Kind::kAtom ||
            lit.kind == Literal::Kind::kNegatedAtom) {
          existing_.insert(lit.atom.predicate);
        }
      }
    }
    EnqueueFull(goal_);
    const size_t rule_cap = 8 * program_.rules.size() + 64;
    while (!full_queue_.empty() || !adorned_queue_.empty()) {
      if (failed_ || transformed_.size() + magic_rules_.size() > rule_cap) {
        return false;
      }
      if (!full_queue_.empty()) {
        std::string pred = full_queue_.front();
        full_queue_.pop_front();
        auto it = rules_by_head_.find(pred);
        if (it == rules_by_head_.end()) continue;
        for (const Rule* r : it->second) {
          TransformRule(*r, /*adornment=*/"");
        }
        continue;
      }
      auto [pred, ad] = adorned_queue_.front();
      adorned_queue_.pop_front();
      MaybeEmitEdbBridge(pred, ad);
      auto it = rules_by_head_.find(pred);
      if (it == rules_by_head_.end()) continue;
      for (const Rule* r : it->second) {
        TransformRule(*r, ad);
      }
    }
    if (failed_ || specialized_calls_ == 0) return false;

    out->rules.clear();
    out->rules.reserve(magic_rules_.size() + transformed_.size());
    for (Rule& r : magic_rules_) out->rules.push_back(std::move(r));
    for (Rule& r : transformed_) out->rules.push_back(std::move(r));
    report->magic_rules = magic_rules_.size();
    report->specialized_rules = specialized_count_;
    return true;
  }

 private:
  static std::string SpecName(const std::string& pred,
                              const std::string& ad) {
    return pred + "__" + ad;
  }
  static std::string MagicName(const std::string& pred,
                               const std::string& ad) {
    return "m__" + pred + "__" + ad;
  }

  void EnqueueFull(const std::string& pred) {
    if (full_done_.insert(pred).second) full_queue_.push_back(pred);
  }
  void EnqueueAdorned(const std::string& pred, const std::string& ad) {
    if (adorned_done_.insert(pred + "#" + ad).second) {
      adorned_queue_.emplace_back(pred, ad);
    }
  }

  /// A predicate may hold stored (EDB) facts in addition to its rules;
  /// the adorned copies only re-derive the rule part, so the demanded
  /// slice of the stored relation is bridged over explicitly.
  void MaybeEmitEdbBridge(const std::string& pred, const std::string& ad) {
    auto seed = seeds_.find(pred);
    const bool may_have_edb =
        (seed != seeds_.end() && seed->second.cardinality > 0) ||
        (seed == seeds_.end() && !assume_unknown_empty_);
    if (!may_have_edb) return;
    Rule bridge;
    bridge.head.predicate = SpecName(pred, ad);
    Atom magic;
    magic.predicate = MagicName(pred, ad);
    Atom body;
    body.predicate = pred;
    for (size_t i = 0; i < ad.size(); ++i) {
      Term v = Term::Variable("V" + std::to_string(i));
      bridge.head.terms.push_back(v);
      body.terms.push_back(v);
      if (ad[i] == 'b') magic.terms.push_back(v);
    }
    bridge.body.push_back(Literal::Positive(std::move(magic)));
    bridge.body.push_back(Literal::Positive(std::move(body)));
    magic_rules_.push_back(std::move(bridge));
  }

  void CheckName(const std::string& name) {
    if (existing_.count(name) > 0) failed_ = true;
  }

  /// Emits the adorned copy of `rule` (original head name when
  /// `adornment` is empty — full demand), plus one magic rule per
  /// specialized body call.
  void TransformRule(const Rule& rule, const std::string& adornment) {
    Rule out;
    out.pos = rule.pos;
    out.head = rule.head;

    std::set<std::string> avail;
    std::vector<Literal> ready_prefix;  // safe demand context so far

    if (!adornment.empty()) {
      out.head.predicate = SpecName(rule.head.predicate, adornment);
      CheckName(out.head.predicate);
      Atom guard;
      guard.predicate = MagicName(rule.head.predicate, adornment);
      CheckName(guard.predicate);
      guard.pos = rule.pos;
      for (size_t i = 0; i < adornment.size(); ++i) {
        if (adornment[i] != 'b' || i >= rule.head.terms.size()) continue;
        const Term& t = rule.head.terms[i];
        guard.terms.push_back(t);
        if (t.is_variable()) avail.insert(t.var());
      }
      Literal glit = Literal::Positive(std::move(guard));
      out.body.push_back(glit);
      ready_prefix.push_back(std::move(glit));
    }

    for (const Literal& lit : rule.body) {
      switch (lit.kind) {
        case Literal::Kind::kAtom: {
          const std::string& q = lit.atom.predicate;
          std::string ad;
          ad.reserve(lit.atom.terms.size());
          bool any_bound = false;
          for (const Term& t : lit.atom.terms) {
            const bool bound =
                t.is_constant() ||
                (t.is_variable() && avail.count(t.var()) > 0);
            ad.push_back(bound ? 'b' : 'f');
            any_bound |= bound;
          }
          const bool specialize = any_bound && idb_.count(q) > 0 &&
                                  aggregate_heads_.count(q) == 0;
          Literal nl = lit;
          if (specialize) {
            CheckName(SpecName(q, ad));
            CheckName(MagicName(q, ad));
            Rule magic;
            magic.pos = lit.pos;
            magic.head.predicate = MagicName(q, ad);
            magic.head.pos = lit.atom.pos;
            for (size_t i = 0; i < ad.size(); ++i) {
              if (ad[i] == 'b') magic.head.terms.push_back(lit.atom.terms[i]);
            }
            magic.body = ready_prefix;
            magic_rules_.push_back(std::move(magic));
            EnqueueAdorned(q, ad);
            nl.atom.predicate = SpecName(q, ad);
            ++specialized_calls_;
          } else if (idb_.count(q) > 0) {
            EnqueueFull(q);
          }
          out.body.push_back(nl);
          ready_prefix.push_back(nl);
          for (const Term& t : lit.atom.terms) {
            if (t.is_variable()) avail.insert(t.var());
          }
          break;
        }
        case Literal::Kind::kNegatedAtom: {
          if (idb_.count(lit.atom.predicate) > 0) {
            EnqueueFull(lit.atom.predicate);
          }
          out.body.push_back(lit);
          bool ready = true;
          for (const Term& t : lit.atom.terms) {
            if (t.is_variable() && avail.count(t.var()) == 0) ready = false;
          }
          if (ready) ready_prefix.push_back(lit);
          break;
        }
        case Literal::Kind::kComparison: {
          out.body.push_back(lit);
          bool ready =
              (!lit.lhs.is_variable() || avail.count(lit.lhs.var()) > 0) &&
              (!lit.rhs.is_variable() || avail.count(lit.rhs.var()) > 0);
          if (ready) ready_prefix.push_back(lit);
          break;
        }
        case Literal::Kind::kAssignment: {
          out.body.push_back(lit);
          bool ready =
              (!lit.lhs.is_variable() || avail.count(lit.lhs.var()) > 0) &&
              (lit.arith_op == ArithOp::kNone || !lit.rhs.is_variable() ||
               avail.count(lit.rhs.var()) > 0);
          // An assignment over an already-bound variable is a check,
          // not a binder; either way, once ready it may join the
          // demand context and bind its variable for adornments.
          if (ready) {
            ready_prefix.push_back(lit);
            avail.insert(lit.assign_var);
          }
          break;
        }
      }
    }
    transformed_.push_back(std::move(out));
    if (!adornment.empty()) ++specialized_count_;
  }

  const Program& program_;
  const std::string goal_;
  const EdbSeeds& seeds_;
  const bool assume_unknown_empty_;

  std::set<std::string> idb_;
  std::set<std::string> aggregate_heads_;
  std::set<std::string> existing_;
  std::map<std::string, std::vector<const Rule*>> rules_by_head_;

  std::deque<std::string> full_queue_;
  std::deque<std::pair<std::string, std::string>> adorned_queue_;
  std::set<std::string> full_done_;
  std::set<std::string> adorned_done_;

  std::vector<Rule> transformed_;
  std::vector<Rule> magic_rules_;
  size_t specialized_calls_ = 0;
  size_t specialized_count_ = 0;
  bool failed_ = false;
};

}  // namespace

std::string OptimizerReport::Summary() const {
  std::string out;
  auto add = [&out](const std::string& part) {
    if (!out.empty()) out += ", ";
    out += part;
  };
  if (folded_assignments > 0) {
    add(std::to_string(folded_assignments) + " assignment(s) folded");
  }
  if (folded_comparisons > 0) {
    add(std::to_string(folded_comparisons) + " guard(s) folded");
  }
  if (dead_rules > 0) add(std::to_string(dead_rules) + " dead rule(s)");
  if (unreachable_rules > 0) {
    add(std::to_string(unreachable_rules) + " unreachable rule(s)");
  }
  if (magic_applied) {
    add("magic: " + std::to_string(specialized_rules) +
        " specialized rule(s), " + std::to_string(magic_rules) +
        " demand rule(s)");
  } else if (!magic_fallback.empty()) {
    add("magic rolled back: " + magic_fallback);
  }
  if (out.empty()) out = "no rewrites applied";
  return out;
}

OptimizeResult OptimizeProgram(const Program& program,
                               const std::string& goal_predicate,
                               const EdbSeeds& seeds,
                               const OptimizerOptions& options) {
  OptimizeResult result;
  result.program = program;
  OptimizerReport& report = result.report;

  if (options.fold_constants) {
    for (Rule& rule : result.program.rules) FoldRule(&rule, &report);
  }

  if (options.eliminate_dead) {
    DataflowOptions dopt;
    dopt.assume_unknown_nonempty = !options.assume_unknown_empty;
    DataflowResult df = AnalyzeDataflow(result.program, seeds, dopt);
    std::vector<Rule> kept;
    kept.reserve(result.program.rules.size());
    for (size_t ri = 0; ri < result.program.rules.size(); ++ri) {
      if (df.RuleProvablyEmpty(ri)) {
        ++report.dead_rules;
      } else {
        kept.push_back(std::move(result.program.rules[ri]));
      }
    }
    result.program.rules = std::move(kept);
  }

  if (options.eliminate_unreachable && !goal_predicate.empty()) {
    std::set<std::string> reachable{goal_predicate};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Rule& rule : result.program.rules) {
        if (reachable.count(rule.head.predicate) == 0) continue;
        for (const Literal& lit : rule.body) {
          if (lit.kind != Literal::Kind::kAtom &&
              lit.kind != Literal::Kind::kNegatedAtom) {
            continue;
          }
          if (reachable.insert(lit.atom.predicate).second) grew = true;
        }
      }
    }
    std::vector<Rule> kept;
    kept.reserve(result.program.rules.size());
    for (Rule& rule : result.program.rules) {
      if (reachable.count(rule.head.predicate) > 0) {
        kept.push_back(std::move(rule));
      } else {
        ++report.unreachable_rules;
      }
    }
    result.program.rules = std::move(kept);
  }

  if (options.magic_sets && !goal_predicate.empty()) {
    MagicTransformer magic(result.program, goal_predicate, seeds,
                           options.assume_unknown_empty);
    Program transformed;
    if (magic.Run(&transformed, &report)) {
      Status valid = transformed.Validate();
      if (valid.ok()) {
        Result<Stratification> strat = Stratify(transformed);
        if (strat.ok()) {
          result.program = std::move(transformed);
          report.magic_applied = true;
        } else {
          report.magic_fallback = strat.status().message();
        }
      } else {
        report.magic_fallback = valid.message();
      }
      if (!report.magic_applied) {
        report.magic_rules = 0;
        report.specialized_rules = 0;
      }
    }
  }

  return result;
}

}  // namespace vada::datalog::dataflow
