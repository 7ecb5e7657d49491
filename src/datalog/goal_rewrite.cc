#include "datalog/goal_rewrite.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "datalog/database.h"
#include "datalog/stratify.h"

namespace vada::datalog {

namespace {

bool IsAtomLiteral(const Literal& lit) {
  return lit.kind == Literal::Kind::kAtom ||
         lit.kind == Literal::Kind::kNegatedAtom;
}

/// `m(X) :- m(X)`: the demand a recursive call passes on unchanged.
bool IsIdentityCopy(const Rule& rule) {
  return rule.body.size() == 1 &&
         rule.body[0].kind == Literal::Kind::kAtom &&
         rule.body[0].atom.predicate == rule.head.predicate &&
         rule.body[0].atom.terms == rule.head.terms;
}

/// Demand-driven specialization toward the goal: predicates called with
/// bound arguments get adorned copies (`p__bf`) guarded by demand
/// predicates (`m__p__bf`) seeded from their callers' join prefixes,
/// so recursion explores only the bindings the goal can reach.
/// Restrictions that keep the rewrite exact:
///  * aggregate-headed predicates are never specialized (a group needs
///    its full extension);
///  * negated calls keep the original predicate, whose rules are then
///    retained in full;
///  * predicates defined by facts alone are read like stored relations;
///  * callees that may also hold stored facts get a bridge rule copying
///    the demanded slice of the stored relation;
///  * the transformed program is re-validated and re-stratified, with
///    rollback on failure.
/// Only reachable rules are emitted, so the output is also cone-pruned.
class MagicTransformer {
 public:
  MagicTransformer(const Program& program, const std::string& goal,
                   const Database& db)
      : program_(program), goal_(goal), db_(db) {}

  /// Returns true (and fills `out`) when specialization applied on
  /// closed demand; false when the program has nothing to specialize,
  /// the demand is open (reported through `magic_fallback`), or the
  /// transform had to bail (name collision, size explosion).
  bool Run(Program* out, RewriteReport* report) {
    for (const Rule& r : program_.rules) {
      if (!r.IsFact()) derived_.insert(r.head.predicate);
      rules_by_head_[r.head.predicate].push_back(&r);
      if (r.HasAggregates()) aggregate_heads_.insert(r.head.predicate);
      existing_.insert(r.head.predicate);
      for (const Literal& lit : r.body) {
        if (IsAtomLiteral(lit)) existing_.insert(lit.atom.predicate);
      }
    }
    EnqueueFull(goal_);
    const size_t rule_cap = 8 * program_.rules.size() + 64;
    while (!full_queue_.empty() || !adorned_queue_.empty()) {
      if (open_demand_) break;  // reported below
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
    if (open_demand_) {
      report->magic_fallback = "open demand";
      return false;
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
    if (db_.FactCount(pred) == 0) return;
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
          const bool specialize = any_bound && derived_.count(q) > 0 &&
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
            if (!magic.IsFact() && !IsIdentityCopy(magic)) {
              open_demand_ = true;
            }
            magic_rules_.push_back(std::move(magic));
            EnqueueAdorned(q, ad);
            nl.atom.predicate = SpecName(q, ad);
            ++specialized_calls_;
          } else {
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
          EnqueueFull(lit.atom.predicate);
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
  const Database& db_;

  std::set<std::string> derived_;  // heads of rules with a body
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
  bool open_demand_ = false;
};

/// The goal's cone (every predicate a rule of a reached predicate
/// reads, the goal included) and whether some predicate in it depends
/// on itself.
struct Cone {
  std::set<std::string> predicates;
  bool recursive = false;
};

Cone GoalCone(const Program& program, const std::string& goal) {
  // Derived predicate -> the derived predicates its rules read.
  std::map<std::string, std::set<std::string>> calls;
  for (const Rule& r : program.rules) calls[r.head.predicate];
  for (const Rule& r : program.rules) {
    for (const Literal& lit : r.body) {
      if (IsAtomLiteral(lit) && calls.count(lit.atom.predicate) > 0) {
        calls[r.head.predicate].insert(lit.atom.predicate);
      }
    }
  }
  Cone cone;
  std::vector<std::string> stack{goal};
  while (!stack.empty()) {
    std::string pred = std::move(stack.back());
    stack.pop_back();
    if (!cone.predicates.insert(pred).second) continue;
    auto it = calls.find(pred);
    if (it == calls.end()) continue;
    for (const std::string& q : it->second) stack.push_back(q);
  }
  for (const std::string& pred : cone.predicates) {
    if (cone.recursive) break;
    auto it = calls.find(pred);
    if (it == calls.end()) continue;
    std::set<std::string> seen;
    std::vector<std::string> reach(it->second.begin(), it->second.end());
    while (!reach.empty() && !cone.recursive) {
      std::string q = std::move(reach.back());
      reach.pop_back();
      if (q == pred) cone.recursive = true;
      if (!seen.insert(q).second) continue;
      const std::set<std::string>& next = calls.at(q);
      reach.insert(reach.end(), next.begin(), next.end());
    }
  }
  return cone;
}

}  // namespace

std::string RewriteReport::Summary() const {
  std::string out;
  auto add = [&out](const std::string& part) {
    if (!out.empty()) out += ", ";
    out += part;
  };
  if (unreachable_rules > 0) {
    add(std::to_string(unreachable_rules) + " unreachable rule(s)");
  }
  if (magic_applied) {
    add("magic: " + std::to_string(specialized_rules) +
        " specialized rule(s), " + std::to_string(magic_rules) +
        " demand rule(s)");
  } else if (!magic_fallback.empty()) {
    add("magic declined: " + magic_fallback);
  }
  if (out.empty()) out = "no rewrites applied";
  return out;
}

GoalRewrite RewriteForGoal(const Program& program, const std::string& goal,
                           const Database& db) {
  GoalRewrite result;
  // Every rule derives the goal from relations no rule derives — the
  // shape of every dependency check: nothing to prune or specialize, so
  // answer without building the cone.
  auto reads_goal = [&goal](const Literal& lit) {
    return IsAtomLiteral(lit) && lit.atom.predicate == goal;
  };
  if (std::all_of(program.rules.begin(), program.rules.end(),
                  [&](const Rule& r) {
                    return r.head.predicate == goal &&
                           std::none_of(r.body.begin(), r.body.end(),
                                        reads_goal);
                  })) {
    return result;
  }
  RewriteReport& report = result.report;
  const Cone cone = GoalCone(program, goal);
  for (const Rule& rule : program.rules) {
    if (cone.predicates.count(rule.head.predicate) == 0) {
      ++report.unreachable_rules;
    }
  }
  if (report.unreachable_rules == 0 && !cone.recursive) return result;
  // Pruning must not hide an unsafe rule the caller would otherwise be
  // told about.
  if (!program.Validate().ok()) {
    report = RewriteReport{};
    return result;
  }

  if (cone.recursive) {
    MagicTransformer magic(program, goal, db);
    Program transformed;
    if (magic.Run(&transformed, &report)) {
      Status valid = transformed.Validate();
      Result<Stratification> strat =
          valid.ok() ? Stratify(transformed)
                     : Result<Stratification>(valid);
      if (strat.ok()) {
        report.magic_applied = true;
        result.program = std::move(transformed);
        return result;
      }
      report.magic_fallback = strat.status().message();
      report.magic_rules = 0;
      report.specialized_rules = 0;
    }
  }

  if (report.unreachable_rules > 0) {
    Program pruned;
    for (const Rule& rule : program.rules) {
      if (cone.predicates.count(rule.head.predicate) > 0) {
        pruned.rules.push_back(rule);
      }
    }
    result.program = std::move(pruned);
  }
  return result;
}

}  // namespace vada::datalog
