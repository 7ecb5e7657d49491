#include "datalog/analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/analysis/dataflow/dataflow.h"
#include "datalog/parser.h"
#include "datalog/stratify.h"

namespace vada::datalog::analysis {

namespace {

/// One analysis pass over one program. Collects diagnostics into the
/// report; each Check* method is independent and total (never bails).
class Checker {
 public:
  Checker(const AnalyzerOptions& options, const Program& program,
          const PredicateCatalog* catalog, AnalysisReport* report)
      : options_(options),
        program_(program),
        catalog_(catalog),
        report_(report) {
    for (const Rule& r : program_.rules) idb_.insert(r.head.predicate);
  }

  void Run() {
    if (options_.check_safety) CheckSafety();
    CheckStratification();
    CheckWardedness();
    CheckCatalog();
    CheckDataflow();
    if (options_.check_lint) CheckLint();
    if (!options_.goal_predicate.empty()) CheckGoal();
  }

 private:
  void Emit(Severity severity, std::string check_id, int rule_index,
            SourcePos pos, std::string message, std::string fix_hint = "") {
    Diagnostic d;
    d.severity = severity;
    d.check_id = std::move(check_id);
    d.rule_index = rule_index;
    d.pos = pos;
    d.message = std::move(message);
    d.fix_hint = std::move(fix_hint);
    report_->diagnostics.push_back(std::move(d));
  }

  // -------------------------------------------------------------------
  // (1) Safety / range restriction.
  // -------------------------------------------------------------------
  void CheckSafety() {
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      for (SafetyViolation& v : SafetyViolations(program_.rules[ri])) {
        Emit(Severity::kError, std::move(v.check_id), static_cast<int>(ri),
             v.pos, std::move(v.message), std::move(v.fix_hint));
      }
    }
  }

  // -------------------------------------------------------------------
  // (2) Stratification.
  // -------------------------------------------------------------------
  void CheckStratification() {
    std::vector<std::string> cycle;
    Result<Stratification> s = Stratify(program_, &cycle);
    if (s.ok()) return;

    // Anchor at the literal that closes the cycle: a negated atom (or
    // any body atom under an aggregate head) over a cycle predicate, in
    // a rule whose head is itself on the cycle.
    std::set<std::string> on_cycle(cycle.begin(), cycle.end());
    int rule_index = -1;
    SourcePos pos;
    for (size_t ri = 0; ri < program_.rules.size() && rule_index < 0; ++ri) {
      const Rule& rule = program_.rules[ri];
      if (on_cycle.count(rule.head.predicate) == 0) continue;
      const bool head_aggregates = rule.HasAggregates();
      for (const Literal& lit : rule.body) {
        if (lit.kind != Literal::Kind::kAtom &&
            lit.kind != Literal::Kind::kNegatedAtom) {
          continue;
        }
        const bool strict =
            head_aggregates || lit.kind == Literal::Kind::kNegatedAtom;
        if (strict && on_cycle.count(lit.atom.predicate) > 0) {
          rule_index = static_cast<int>(ri);
          pos = Anchor(lit.pos, rule.pos);
          break;
        }
      }
    }
    Emit(Severity::kError, "stratification/negative-cycle", rule_index, pos,
         s.status().message(),
         "break the recursion or move the negated/aggregated predicate into "
         "a lower stratum");
  }

  // -------------------------------------------------------------------
  // (3) Wardedness.
  // -------------------------------------------------------------------

  /// Positive-body occurrences of each variable: (literal index, term
  /// index, atom) triples.
  struct BodyOccurrence {
    size_t literal_index;
    size_t term_index;
    const Atom* atom;
    SourcePos pos;
  };

  static std::map<std::string, std::vector<BodyOccurrence>> PositiveOccurrences(
      const Rule& rule) {
    std::map<std::string, std::vector<BodyOccurrence>> occ;
    for (size_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind != Literal::Kind::kAtom) continue;
      for (size_t ti = 0; ti < lit.atom.terms.size(); ++ti) {
        const Term& t = lit.atom.terms[ti];
        if (!t.is_variable()) continue;
        occ[t.var()].push_back(
            {li, ti, &lit.atom, Anchor(t.pos(), lit.pos)});
      }
    }
    return occ;
  }

  void CheckWardedness() {
    // Affected positions: head positions that can carry "invented"
    // values. Vadalog-lite has no existentials, so the sources are
    // aggregates and arithmetic assignments; affectedness then
    // propagates through rules whose head variable is bound only at
    // affected positions. This mirrors the warded Datalog+- analysis
    // with invented values standing in for labelled nulls.
    std::map<std::string, std::set<size_t>> affected;
    auto is_affected = [&affected](const std::string& pred, size_t i) {
      auto it = affected.find(pred);
      return it != affected.end() && it->second.count(i) > 0;
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : program_.rules) {
        if (rule.IsFact()) continue;
        const auto occ = PositiveOccurrences(rule);
        std::set<std::string> assigned;
        for (const Literal& lit : rule.body) {
          if (lit.kind == Literal::Kind::kAssignment) {
            assigned.insert(lit.assign_var);
          }
        }
        for (size_t i = 0; i < rule.head.terms.size(); ++i) {
          const Term& t = rule.head.terms[i];
          bool makes_affected = false;
          if (t.is_aggregate()) {
            makes_affected = true;
          } else if (t.is_variable()) {
            auto it = occ.find(t.var());
            if (it == occ.end()) {
              // Not bound by any positive atom: value computed by an
              // assignment (or unsafe, which safety already reports).
              makes_affected = assigned.count(t.var()) > 0;
            } else {
              makes_affected = std::all_of(
                  it->second.begin(), it->second.end(),
                  [&](const BodyOccurrence& o) {
                    return is_affected(o.atom->predicate, o.term_index);
                  });
            }
          }
          if (makes_affected && !is_affected(rule.head.predicate, i)) {
            affected[rule.head.predicate].insert(i);
            changed = true;
          }
        }
      }
    }

    // Dangerous variables: frontier (head) variables whose every
    // positive-body occurrence sits at an affected position. Warded
    // programs confine each rule's dangerous variables to one atom (the
    // ward); dangerous joins across atoms break tractability.
    WardedClass program_class = WardedClass::kWarded;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      if (rule.IsFact()) continue;
      const auto occ = PositiveOccurrences(rule);
      std::set<std::string> head_vars;
      for (const Term& t : rule.head.terms) {
        if (t.is_variable() || t.is_aggregate()) head_vars.insert(t.var());
      }

      std::vector<std::string> dangerous;
      std::set<size_t> ward_candidates;  // literal indices holding all
      bool first_dangerous = true;
      WardedClass rule_class = WardedClass::kWarded;
      for (const auto& [var, occurrences] : occ) {
        if (head_vars.count(var) == 0) continue;
        const bool all_affected = std::all_of(
            occurrences.begin(), occurrences.end(),
            [&](const BodyOccurrence& o) {
              return is_affected(o.atom->predicate, o.term_index);
            });
        if (!all_affected) continue;
        dangerous.push_back(var);

        std::set<size_t> literals;
        for (const BodyOccurrence& o : occurrences) {
          literals.insert(o.literal_index);
        }
        if (literals.size() > 1) {
          rule_class = WardedClass::kUnrestricted;
          Emit(Severity::kWarning, "wardedness/dangerous-join",
               static_cast<int>(ri), occurrences.front().pos,
               "dangerous variable " + var +
                   " (bound only at affected positions) joins across " +
                   std::to_string(literals.size()) + " body atoms",
               "restrict " + var +
                   " to a single ward atom, or bind it at a harmless "
                   "position");
        }
        if (first_dangerous) {
          ward_candidates = literals;
          first_dangerous = false;
        } else {
          std::set<size_t> intersection;
          std::set_intersection(
              ward_candidates.begin(), ward_candidates.end(),
              literals.begin(), literals.end(),
              std::inserter(intersection, intersection.begin()));
          ward_candidates = std::move(intersection);
        }
      }
      if (!dangerous.empty() && rule_class == WardedClass::kWarded &&
          ward_candidates.empty()) {
        rule_class = WardedClass::kShy;
        std::string vars;
        for (const std::string& v : dangerous) {
          if (!vars.empty()) vars += ", ";
          vars += v;
        }
        Emit(Severity::kInfo, "wardedness/no-single-ward",
             static_cast<int>(ri), rule.pos,
             "dangerous variables {" + vars +
                 "} do not share a single ward atom (shy, not warded)");
      }
      program_class = std::max(program_class, rule_class);
    }

    report_->warded_class = program_class;
    if (!affected.empty()) {
      size_t positions = 0;
      for (const auto& [pred, set] : affected) positions += set.size();
      Emit(Severity::kInfo, "wardedness/classification", -1, SourcePos{},
           std::string("program is ") + WardedClassName(program_class) +
               " (" + std::to_string(positions) +
               " affected predicate position(s))");
    }
  }

  // -------------------------------------------------------------------
  // (4) Catalog consistency.
  // -------------------------------------------------------------------
  void CheckCatalog() {
    if (catalog_ == nullptr) return;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      CheckAtomAgainstCatalog(rule.head, static_cast<int>(ri),
                              /*is_head=*/true, rule.pos);
      for (const Literal& lit : rule.body) {
        if (lit.kind != Literal::Kind::kAtom &&
            lit.kind != Literal::Kind::kNegatedAtom) {
          continue;
        }
        CheckAtomAgainstCatalog(lit.atom, static_cast<int>(ri),
                                /*is_head=*/false, lit.pos);
      }
    }
    // One diagnostic per unknown predicate, anchored at its *first* use
    // (scan order above is declaration order, so the recorded occurrence
    // is the earliest one).
    for (const auto& [pred, use] : unknown_first_use_) {
      Emit(options_.unknown_predicates == UnknownPredicatePolicy::kError
               ? Severity::kError
               : Severity::kWarning,
           "catalog/unknown-predicate", use.rule_index, use.pos,
           "predicate " + pred +
               " is neither derived by the program nor a known relation",
           "create relation " + pred +
               " in the knowledge base, or add rules deriving it");
    }
  }

  void CheckAtomAgainstCatalog(const Atom& atom, int rule_index, bool is_head,
                               const SourcePos& fallback) {
    const PredicateInfo* info = catalog_->Find(atom.predicate);
    if (info == nullptr) {
      if (is_head || idb_.count(atom.predicate) > 0) return;  // derived
      if (options_.unknown_predicates == UnknownPredicatePolicy::kIgnore) {
        return;
      }
      if (unknown_seen_.insert(atom.predicate).second) {
        unknown_first_use_.emplace_back(
            atom.predicate, FirstUse{rule_index, Anchor(atom.pos, fallback)});
      }
      return;
    }
    if (atom.terms.size() != info->arity) {
      std::string declared;
      if (!info->attribute_names.empty()) {
        for (const std::string& a : info->attribute_names) {
          if (!declared.empty()) declared += ", ";
          declared += a;
        }
        declared = " (" + declared + ")";
      }
      Emit(Severity::kError, "catalog/arity-mismatch", rule_index,
           Anchor(atom.pos, fallback),
           "predicate " + atom.predicate + " used with arity " +
               std::to_string(atom.terms.size()) + " but relation " +
               atom.predicate + " has arity " + std::to_string(info->arity) +
               declared,
           "match the relation's attribute count");
      return;
    }
    if (info->attribute_types.empty()) return;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (!t.is_constant() || t.value().is_null()) continue;
      const AttributeType declared = info->attribute_types[i];
      if (IsCompatible(declared, t.value().type())) continue;
      std::string attr = i < info->attribute_names.size()
                             ? info->attribute_names[i]
                             : ("#" + std::to_string(i));
      Emit(Severity::kError, "catalog/type-mismatch", rule_index,
           Anchor(t.pos(), Anchor(atom.pos, fallback)),
           "constant " + t.ToString() + " (" +
               ValueTypeName(t.value().type()) +
               ") is incompatible with attribute " + attr + ":" +
               AttributeTypeName(declared) + " of " + atom.predicate,
           "use a " + std::string(AttributeTypeName(declared)) +
               " constant or a variable");
    }
  }

  // -------------------------------------------------------------------
  // (4b) Dataflow: abstract interpretation over the lattices of
  // datalog/analysis/dataflow. Open-world (unseeded predicates may hold
  // anything), with the catalog's declared attribute types narrowing
  // the seeds — so every finding is a proof about *all* databases the
  // catalog admits, and warning severity is deserved.
  // -------------------------------------------------------------------
  void CheckDataflow() {
    dataflow::EdbSeeds seeds;
    if (catalog_ != nullptr) {
      for (const auto& [name, info] : catalog_->entries()) {
        if (idb_.count(name) > 0) continue;  // derived: fixpoint covers it
        dataflow::PredicateSeed seed;
        for (AttributeType at : info.attribute_types) {
          dataflow::PosFacts pf = dataflow::PosFacts::Top();
          switch (at) {
            case AttributeType::kAny:
              break;
            case AttributeType::kBool:
              pf.types = dataflow::TypeSet::Of(ValueType::kBool)
                             .Union(dataflow::TypeSet::Of(ValueType::kNull));
              break;
            case AttributeType::kInt:
              pf.types = dataflow::TypeSet::Of(ValueType::kInt)
                             .Union(dataflow::TypeSet::Of(ValueType::kNull));
              break;
            case AttributeType::kDouble:
              pf.types = dataflow::TypeSet::Of(ValueType::kDouble)
                             .Union(dataflow::TypeSet::Of(ValueType::kNull));
              break;
            case AttributeType::kString:
              pf.types = dataflow::TypeSet::Of(ValueType::kString)
                             .Union(dataflow::TypeSet::Of(ValueType::kNull));
              break;
          }
          seed.positions.push_back(pf);
        }
        seeds.emplace(name, std::move(seed));
      }
    }
    dataflow::DataflowResult df =
        dataflow::AnalyzeDataflow(program_, seeds, dataflow::DataflowOptions{});
    for (size_t ri = 0; ri < df.rule_findings.size(); ++ri) {
      const SourcePos rule_pos =
          ri < program_.rules.size() ? program_.rules[ri].pos : SourcePos{};
      for (const dataflow::RuleFinding& f : df.rule_findings[ri]) {
        std::string hint;
        switch (f.kind) {
          case dataflow::FindingKind::kEmptyRule:
            hint = "the rule can never fire; delete it or fix the join";
            break;
          case dataflow::FindingKind::kTypeClash:
            hint =
                "no runtime value satisfies both positions; fix the "
                "variable or the data";
            break;
          case dataflow::FindingKind::kContradictoryComparisons:
            hint = "the combined comparisons admit no value; relax one";
            break;
          case dataflow::FindingKind::kUnsatisfiableGuard:
            hint = "this guard is always false; remove or correct it";
            break;
        }
        Emit(Severity::kWarning, dataflow::FindingCheckId(f.kind),
             static_cast<int>(ri), Anchor(f.pos, rule_pos), f.message,
             std::move(hint));
      }
    }
  }

  // -------------------------------------------------------------------
  // (5) Lint.
  // -------------------------------------------------------------------
  void CheckLint() {
    CheckSingletonVariables();
    CheckDuplicateRules();
    CheckShadowedConstants();
    if (options_.goal_predicate.empty()) CheckUnusedPredicates();
  }

  void CheckSingletonVariables() {
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      // var -> (occurrence count, first anchored position)
      std::map<std::string, std::pair<int, SourcePos>> counts;
      auto see = [&counts](const std::string& var, const SourcePos& pos) {
        auto [it, inserted] = counts.emplace(var, std::make_pair(0, pos));
        ++it->second.first;
        if (!it->second.second.known()) it->second.second = pos;
      };
      for (const Term& t : rule.head.terms) {
        if (t.is_variable() || t.is_aggregate()) see(t.var(), t.pos());
      }
      for (const Literal& lit : rule.body) {
        switch (lit.kind) {
          case Literal::Kind::kAtom:
          case Literal::Kind::kNegatedAtom:
            for (const Term& t : lit.atom.terms) {
              if (t.is_variable()) see(t.var(), Anchor(t.pos(), lit.pos));
            }
            break;
          case Literal::Kind::kComparison:
            for (const Term* t : {&lit.lhs, &lit.rhs}) {
              if (t->is_variable()) see(t->var(), Anchor(t->pos(), lit.pos));
            }
            break;
          case Literal::Kind::kAssignment:
            see(lit.assign_var, lit.pos);
            for (const Term* t : {&lit.lhs, &lit.rhs}) {
              if (t->is_variable()) see(t->var(), Anchor(t->pos(), lit.pos));
            }
            break;
        }
      }
      for (const auto& [var, count_pos] : counts) {
        if (count_pos.first != 1 || var[0] == '_') continue;
        Emit(Severity::kWarning, "lint/singleton-variable",
             static_cast<int>(ri), count_pos.second,
             "variable " + var + " occurs only once in the rule",
             "rename it to _" + var + " to mark it intentionally unused");
      }
    }
  }

  void CheckDuplicateRules() {
    std::map<std::string, size_t> first_seen;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      auto [it, inserted] = first_seen.emplace(rule.ToString(), ri);
      if (inserted) continue;
      Emit(Severity::kWarning, "lint/duplicate-rule", static_cast<int>(ri),
           rule.pos,
           "rule duplicates rule " + std::to_string(it->second) + " (" +
               rule.ToString() + ")",
           "delete one of the copies");
    }
  }

  void CheckShadowedConstants() {
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      auto check_term = [&](const Term& t, const SourcePos& fallback) {
        if (!t.is_constant() || t.value().type() != ValueType::kString) {
          return;
        }
        const std::string& s = t.value().string_value();
        if (idb_.count(s) == 0) return;
        Emit(Severity::kWarning, "lint/shadowed-constant",
             static_cast<int>(ri), Anchor(t.pos(), fallback),
             "constant \"" + s +
                 "\" has the same name as a predicate defined by this "
                 "program; bare identifiers denote string constants, not "
                 "nested atoms",
             "rename the constant or quote it intentionally");
      };
      for (const Term& t : rule.head.terms) check_term(t, rule.pos);
      for (const Literal& lit : rule.body) {
        if (lit.kind == Literal::Kind::kAtom ||
            lit.kind == Literal::Kind::kNegatedAtom) {
          for (const Term& t : lit.atom.terms) check_term(t, lit.pos);
        } else {
          check_term(lit.lhs, lit.pos);
          check_term(lit.rhs, lit.pos);
        }
      }
    }
  }

  void CheckUnusedPredicates() {
    std::set<std::string> referenced;
    for (const Rule& rule : program_.rules) {
      for (const Literal& lit : rule.body) {
        if (lit.kind == Literal::Kind::kAtom ||
            lit.kind == Literal::Kind::kNegatedAtom) {
          referenced.insert(lit.atom.predicate);
        }
      }
    }
    if (idb_.size() < 2) return;  // a single output is obviously the output
    std::set<std::string> reported;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const std::string& head = program_.rules[ri].head.predicate;
      if (referenced.count(head) > 0 || !reported.insert(head).second) {
        continue;
      }
      Emit(Severity::kInfo, "lint/unused-predicate", static_cast<int>(ri),
           program_.rules[ri].pos,
           "predicate " + head +
               " is derived but never used by another rule (possibly an "
               "output)");
    }
  }

  // -------------------------------------------------------------------
  // Goal reachability (registration-time contract for dependencies).
  // -------------------------------------------------------------------
  void CheckGoal() {
    const std::string& goal = options_.goal_predicate;
    if (idb_.count(goal) == 0) {
      Emit(Severity::kError, "goal/undefined", -1, SourcePos{},
           "program never defines goal predicate '" + goal + "'",
           "add at least one rule (or fact) with head " + goal + "(...)");
      return;
    }
    if (!options_.check_lint) return;
    // Predicates that can contribute to the goal: body predicates of
    // reachable heads, transitively.
    std::set<std::string> reachable{goal};
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : program_.rules) {
        if (reachable.count(rule.head.predicate) == 0) continue;
        for (const Literal& lit : rule.body) {
          if (lit.kind != Literal::Kind::kAtom &&
              lit.kind != Literal::Kind::kNegatedAtom) {
            continue;
          }
          if (reachable.insert(lit.atom.predicate).second) changed = true;
        }
      }
    }
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& rule = program_.rules[ri];
      if (reachable.count(rule.head.predicate) > 0) continue;
      Emit(Severity::kWarning, "lint/unreachable-rule", static_cast<int>(ri),
           rule.pos,
           "rule derives " + rule.head.predicate +
               ", which cannot contribute to goal '" + goal + "'",
           "remove the rule or connect it to the goal");
    }
  }

  const AnalyzerOptions& options_;
  const Program& program_;
  const PredicateCatalog* catalog_;
  AnalysisReport* report_;
  std::set<std::string> idb_;
  /// Unknown predicates in first-use order; one diagnostic each,
  /// anchored at the earliest occurrence.
  struct FirstUse {
    int rule_index;
    SourcePos pos;
  };
  std::set<std::string> unknown_seen_;
  std::vector<std::pair<std::string, FirstUse>> unknown_first_use_;
};

}  // namespace

ProgramAnalyzer::ProgramAnalyzer(AnalyzerOptions options)
    : options_(std::move(options)) {}

AnalysisReport ProgramAnalyzer::Analyze(const Program& program,
                                        const PredicateCatalog* catalog) const {
  AnalysisReport report;
  Checker checker(options_, program, catalog, &report);
  checker.Run();
  return report;
}

AnalysisReport ProgramAnalyzer::AnalyzeSource(
    std::string_view source, const PredicateCatalog* catalog) const {
  Result<Program> program = Parser::ParseUnvalidated(source);
  if (!program.ok()) {
    AnalysisReport report;
    Diagnostic d;
    d.severity = Severity::kError;
    d.check_id = "parse/error";
    d.message = program.status().message();
    report.diagnostics.push_back(std::move(d));
    return report;
  }
  return Analyze(program.value(), catalog);
}

}  // namespace vada::datalog::analysis
