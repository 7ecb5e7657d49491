#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/parser.h"

namespace vada::datalog::analysis {
namespace {

AnalysisReport Analyze(const std::string& src,
                       AnalyzerOptions options = AnalyzerOptions(),
                       const PredicateCatalog* catalog = nullptr) {
  return ProgramAnalyzer(options).AnalyzeSource(src, catalog);
}

bool Has(const AnalysisReport& report, const std::string& check_id) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.check_id == check_id; });
}

const Diagnostic& First(const AnalysisReport& report,
                        const std::string& check_id) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.check_id == check_id) return d;
  }
  ADD_FAILURE() << "no diagnostic " << check_id << " in:\n"
                << report.ToString();
  static Diagnostic none;
  return none;
}

// ---------------------------------------------------------------------
// Parsing and position anchoring.
// ---------------------------------------------------------------------

TEST(AnalyzerTest, ParseErrorBecomesDiagnostic) {
  AnalysisReport report = Analyze("p(X :- q(X).");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].check_id, "parse/error");
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_FALSE(report.ok());
}

TEST(AnalyzerTest, DiagnosticsAnchorToLineAndColumn) {
  AnalysisReport report = Analyze("p(X) :- q(Y).");
  const Diagnostic& head = First(report, "safety/unbound-head-variable");
  EXPECT_EQ(head.pos.line, 1);
  EXPECT_EQ(head.pos.col, 3);  // the X in p(X)
  const Diagnostic& singleton = First(report, "lint/singleton-variable");
  EXPECT_EQ(singleton.pos.line, 1);
}

TEST(AnalyzerTest, SecondLineDiagnosticsReportLineTwo) {
  AnalysisReport report = Analyze(
      "ok(X) :- base(X).\n"
      "bad(Z) :- base(X).\n");
  const Diagnostic& d = First(report, "safety/unbound-head-variable");
  EXPECT_EQ(d.pos.line, 2);
  EXPECT_EQ(d.rule_index, 1);
  EXPECT_NE(d.message.find("Z"), std::string::npos);
}

// ---------------------------------------------------------------------
// safety/*
// ---------------------------------------------------------------------

TEST(AnalyzerTest, UnboundHeadVariable) {
  AnalysisReport report = Analyze("p(X, Y) :- q(X).");
  const Diagnostic& d = First(report, "safety/unbound-head-variable");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.fix_hint.find("Y"), std::string::npos);
}

TEST(AnalyzerTest, AssignmentBindsHeadVariable) {
  AnalysisReport report = Analyze("p(X, Y) :- q(X), Y = X + 1.");
  EXPECT_FALSE(Has(report, "safety/unbound-head-variable"));
}

TEST(AnalyzerTest, UnboundNegatedVariable) {
  AnalysisReport report = Analyze("p(X) :- q(X), not r(X, Z).");
  const Diagnostic& d = First(report, "safety/unbound-negated-variable");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("Z"), std::string::npos);
}

TEST(AnalyzerTest, UnboundComparisonVariable) {
  AnalysisReport report = Analyze("p(X) :- q(X), Z < 3.");
  EXPECT_TRUE(Has(report, "safety/unbound-comparison-variable"));
}

TEST(AnalyzerTest, UnboundAssignmentOperand) {
  AnalysisReport report = Analyze("p(X, Y) :- q(X), Y = W + 1.");
  const Diagnostic& d = First(report, "safety/unbound-assignment-operand");
  EXPECT_NE(d.message.find("W"), std::string::npos);
}

TEST(AnalyzerTest, NongroundFact) {
  AnalysisReport report = Analyze("p(X).");
  EXPECT_TRUE(Has(report, "safety/nonground-fact"));
  // The fact path must not double-report the head variable.
  EXPECT_FALSE(Has(report, "safety/unbound-head-variable"));
}

TEST(AnalyzerTest, AggregateInBody) {
  // The grammar keeps aggregates out of bodies, so this state is only
  // reachable through a programmatically built AST.
  Rule rule;
  rule.head.predicate = "p";
  rule.head.terms.push_back(Term::Variable("X"));
  Atom body_atom;
  body_atom.predicate = "q";
  body_atom.terms.push_back(Term::Variable("X"));
  body_atom.terms.push_back(Term::Aggregate(AggFunc::kCount, "Y"));
  rule.body.push_back(Literal::Positive(std::move(body_atom)));
  Program program;
  program.rules.push_back(std::move(rule));

  AnalysisReport report = ProgramAnalyzer().Analyze(program);
  EXPECT_TRUE(Has(report, "safety/aggregate-in-body")) << report.ToString();
}

TEST(AnalyzerTest, SafePrgramHasNoSafetyErrors) {
  AnalysisReport report = Analyze(
      "p(X, S) :- q(X, Y), r(Y), S = X + Y, X < 10, not bad(X).\n");
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
}

// ---------------------------------------------------------------------
// stratification/*
// ---------------------------------------------------------------------

TEST(AnalyzerTest, NegativeCycleReportsPredicatePath) {
  AnalysisReport report = Analyze(
      "p(X) :- q(X), not r(X).\n"
      "r(X) :- q(X), not p(X).\n");
  const Diagnostic& d = First(report, "stratification/negative-cycle");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("->"), std::string::npos);
  EXPECT_NE(d.message.find("p"), std::string::npos);
  EXPECT_NE(d.message.find("r"), std::string::npos);
  // Anchored at a negated literal inside the cycle.
  EXPECT_TRUE(d.pos.known());
  EXPECT_GE(d.rule_index, 0);
}

TEST(AnalyzerTest, AggregateRecursionIsNegativeCycle) {
  AnalysisReport report = Analyze("p(X, count<Y>) :- p(X, Y).");
  EXPECT_TRUE(Has(report, "stratification/negative-cycle"));
}

TEST(AnalyzerTest, StratifiedProgramHasNoCycleDiagnostic) {
  AnalysisReport report = Analyze(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreach(X) :- node(X), not reach(X).\n");
  EXPECT_FALSE(Has(report, "stratification/negative-cycle"));
}

// ---------------------------------------------------------------------
// wardedness/*
// ---------------------------------------------------------------------

TEST(AnalyzerTest, PlainProgramIsWarded) {
  AnalysisReport report = Analyze("p(X) :- q(X).");
  EXPECT_EQ(report.warded_class, WardedClass::kWarded);
  // No invented values anywhere: no classification note either.
  EXPECT_FALSE(Has(report, "wardedness/classification"));
}

TEST(AnalyzerTest, InventedValueConfinedToOneAtomStaysWarded) {
  AnalysisReport report = Analyze(
      "a(S) :- src(X), S = X + 1.\n"
      "use(S, Y) :- a(S), src(Y).\n");
  EXPECT_EQ(report.warded_class, WardedClass::kWarded);
  EXPECT_TRUE(Has(report, "wardedness/classification"));
  EXPECT_FALSE(Has(report, "wardedness/dangerous-join"));
}

TEST(AnalyzerTest, DangerousJoinIsFlaggedUnrestricted) {
  AnalysisReport report = Analyze(
      "a(S) :- src(X), S = X + 1.\n"
      "b(S) :- src(X), S = X * 2.\n"
      "j(S) :- a(S), b(S).\n");
  const Diagnostic& d = First(report, "wardedness/dangerous-join");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule_index, 2);
  EXPECT_NE(d.message.find("S"), std::string::npos);
  EXPECT_EQ(report.warded_class, WardedClass::kUnrestricted);
}

TEST(AnalyzerTest, DangerousVarsWithoutCommonWardAreShy) {
  AnalysisReport report = Analyze(
      "a(S) :- src(X), S = X + 1.\n"
      "b(T) :- src(X), T = X + 1.\n"
      "j(S, T) :- a(S), b(T).\n");
  EXPECT_TRUE(Has(report, "wardedness/no-single-ward"));
  EXPECT_FALSE(Has(report, "wardedness/dangerous-join"));
  EXPECT_EQ(report.warded_class, WardedClass::kShy);
}

TEST(AnalyzerTest, AggregateOutputIsAnAffectedPosition) {
  AnalysisReport report = Analyze(
      "cnt(X, count<Y>) :- e(X, Y).\n"
      "big(C) :- cnt(_X, C), threshold(C).\n");
  // C is bound at cnt position 1 (affected) and threshold position 0
  // (harmless EDB) -> not dangerous, program stays warded.
  EXPECT_EQ(report.warded_class, WardedClass::kWarded);
  EXPECT_TRUE(Has(report, "wardedness/classification"));
}

// ---------------------------------------------------------------------
// catalog/*
// ---------------------------------------------------------------------

PredicateCatalog PersonCatalog() {
  PredicateCatalog catalog;
  catalog.DeclareSchema(Schema("person", {Attribute{"name", AttributeType::kString},
                                          Attribute{"age", AttributeType::kInt}}));
  return catalog;
}

TEST(AnalyzerTest, ArityMismatchAgainstCatalog) {
  PredicateCatalog catalog = PersonCatalog();
  AnalysisReport report = Analyze("adult(N) :- person(N, A, Z).", {}, &catalog);
  const Diagnostic& d = First(report, "catalog/arity-mismatch");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("arity 3"), std::string::npos);
  EXPECT_NE(d.message.find("arity 2"), std::string::npos);
}

TEST(AnalyzerTest, TypeMismatchOnTypedConstant) {
  PredicateCatalog catalog = PersonCatalog();
  AnalysisReport report =
      Analyze("named(N) :- person(N, \"young\").", {}, &catalog);
  const Diagnostic& d = First(report, "catalog/type-mismatch");
  EXPECT_NE(d.message.find("age"), std::string::npos);
  EXPECT_NE(d.message.find("int"), std::string::npos);
}

TEST(AnalyzerTest, CompatibleUseIsClean) {
  PredicateCatalog catalog = PersonCatalog();
  AnalysisReport report =
      Analyze("adult(N) :- person(N, A), A >= 18.", {}, &catalog);
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
}

TEST(AnalyzerTest, UnknownPredicatePolicyLevels) {
  PredicateCatalog catalog = PersonCatalog();
  const std::string src = "out(N) :- person(N, _A), mystery(N).";

  AnalyzerOptions warn;
  warn.unknown_predicates = UnknownPredicatePolicy::kWarn;
  EXPECT_EQ(First(Analyze(src, warn, &catalog), "catalog/unknown-predicate")
                .severity,
            Severity::kWarning);

  AnalyzerOptions error;
  error.unknown_predicates = UnknownPredicatePolicy::kError;
  EXPECT_EQ(First(Analyze(src, error, &catalog), "catalog/unknown-predicate")
                .severity,
            Severity::kError);

  AnalyzerOptions ignore;
  ignore.unknown_predicates = UnknownPredicatePolicy::kIgnore;
  EXPECT_FALSE(Has(Analyze(src, ignore, &catalog), "catalog/unknown-predicate"));
}

TEST(AnalyzerTest, DerivedPredicatesAreNeverUnknown) {
  PredicateCatalog catalog = PersonCatalog();
  AnalyzerOptions options;
  options.unknown_predicates = UnknownPredicatePolicy::kError;
  AnalysisReport report = Analyze(
      "helper(N) :- person(N, _A).\n"
      "out(N) :- helper(N).\n",
      options, &catalog);
  EXPECT_FALSE(Has(report, "catalog/unknown-predicate")) << report.ToString();
}

TEST(AnalyzerTest, SystemRelationsCatalogChecksControlRelations) {
  PredicateCatalog catalog = PredicateCatalog::SystemRelations();
  AnalysisReport report =
      Analyze("ready() :- sys_relation_nonempty(X, Y).", {}, &catalog);
  EXPECT_TRUE(Has(report, "catalog/arity-mismatch"));
  AnalysisReport typed =
      Analyze("ready() :- sys_relation_nonempty(42).", {}, &catalog);
  EXPECT_TRUE(Has(typed, "catalog/type-mismatch"));
}

// ---------------------------------------------------------------------
// lint/* and goal/*
// ---------------------------------------------------------------------

TEST(AnalyzerTest, SingletonVariableWarnsUnlessUnderscored) {
  AnalysisReport report = Analyze("p(X) :- q(X, Y).");
  const Diagnostic& d = First(report, "lint/singleton-variable");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("Y"), std::string::npos);

  AnalysisReport clean = Analyze("p(X) :- q(X, _Y).");
  EXPECT_FALSE(Has(clean, "lint/singleton-variable"));
}

TEST(AnalyzerTest, DuplicateRule) {
  AnalysisReport report = Analyze(
      "p(X) :- q(X), r(X).\n"
      "p(X) :- q(X), r(X).\n");
  const Diagnostic& d = First(report, "lint/duplicate-rule");
  EXPECT_EQ(d.rule_index, 1);
  EXPECT_NE(d.message.find("rule 0"), std::string::npos);
}

TEST(AnalyzerTest, ShadowedConstant) {
  AnalysisReport report = Analyze(
      "active(X) :- status(X, \"active\"), flag(X).\n"
      "flag(X) :- input(X, flag).\n");
  // Both "active" and the bare identifier `flag` collide with predicates
  // the program derives; pin the bare-identifier case, the likelier typo.
  bool flag_reported = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.check_id == "lint/shadowed-constant" &&
        d.message.find("\"flag\"") != std::string::npos) {
      flag_reported = true;
    }
  }
  EXPECT_TRUE(flag_reported) << report.ToString();
}

TEST(AnalyzerTest, GoalUndefined) {
  AnalyzerOptions options;
  options.goal_predicate = "ready";
  AnalysisReport report = Analyze("go() :- src(_X).", options);
  const Diagnostic& d = First(report, "goal/undefined");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("ready"), std::string::npos);
}

TEST(AnalyzerTest, UnreachableRuleUnderGoal) {
  AnalyzerOptions options;
  options.goal_predicate = "ready";
  AnalysisReport report = Analyze(
      "ready() :- src(_X).\n"
      "stray(X) :- other(X), use(X).\n"
      "use(X) :- other(X).\n",
      options);
  const Diagnostic& d = First(report, "lint/unreachable-rule");
  EXPECT_NE(d.message.find("stray"), std::string::npos);
  // `use` feeds only stray, so it is unreachable too.
  bool use_flagged = false;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.check_id == "lint/unreachable-rule" &&
        diag.message.find("use") != std::string::npos) {
      use_flagged = true;
    }
  }
  EXPECT_TRUE(use_flagged) << report.ToString();
}

TEST(AnalyzerTest, UnusedPredicateInfoWithoutGoal) {
  AnalysisReport report = Analyze(
      "helper(X) :- src(X).\n"
      "out(X) :- helper(X).\n"
      "orphan(X) :- src(X), helper(X).\n");
  const Diagnostic& d = First(report, "lint/unused-predicate");
  EXPECT_EQ(d.severity, Severity::kInfo);
  // `out` and `orphan` are both sinks; `helper` is used.
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.check_id == "lint/unused-predicate") {
      EXPECT_EQ(diag.message.find("helper"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------

TEST(AnalyzerTest, ReportToStatusSummarisesErrors) {
  AnalysisReport report = Analyze("p(X) :- q(Y).\nr(Z) :- s(W).\n");
  ASSERT_GE(report.error_count(), 2u);
  Status status = report.ToStatus("dependency of t1");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("dependency of t1"), std::string::npos);
  EXPECT_NE(status.message().find("more error"), std::string::npos);

  AnalysisReport clean = Analyze("p(X) :- q(X), r(X).");
  EXPECT_TRUE(clean.ToStatus("anything").ok());
}

TEST(AnalyzerTest, ReportToStringPutsErrorsFirst) {
  // Singleton warning comes from rule 0, the error from rule 1; rendered
  // output must still lead with the error.
  AnalysisReport report = Analyze(
      "a(X) :- b(X, Y).\n"
      "c(Z) :- b(_U, _V).\n");
  std::string rendered = report.ToString();
  size_t error_at = rendered.find("error [");
  size_t warning_at = rendered.find("warning [");
  ASSERT_NE(error_at, std::string::npos);
  ASSERT_NE(warning_at, std::string::npos);
  EXPECT_LT(error_at, warning_at);
}

TEST(AnalyzerTest, CheckFamiliesCanBeDisabled) {
  AnalyzerOptions options;
  options.check_safety = false;
  options.check_lint = false;
  AnalysisReport report = Analyze("p(X) :- q(Y).", options);
  EXPECT_FALSE(Has(report, "safety/unbound-head-variable"));
  EXPECT_FALSE(Has(report, "lint/singleton-variable"));
}

// ---------------------------------------------------------------------
// Property test: random (frequently ill-formed) programs never crash
// the analyzer, and any program the validating parser rejects for
// safety must carry at least one analyzer error.
// ---------------------------------------------------------------------

std::string RandomProgram(Rng* rng) {
  const std::vector<std::string> preds = {"p", "q", "r", "s", "t"};
  const std::vector<std::string> vars = {"X", "Y", "Z", "W"};
  std::string src;
  const int rules = static_cast<int>(rng->UniformInt(1, 5));
  for (int r = 0; r < rules; ++r) {
    const std::string& head = preds[rng->Index(preds.size())];
    const int head_arity = static_cast<int>(rng->UniformInt(0, 3));
    src += head + "(";
    for (int i = 0; i < head_arity; ++i) {
      if (i > 0) src += ", ";
      if (rng->Bernoulli(0.15)) {
        src += "count<" + vars[rng->Index(vars.size())] + ">";
      } else {
        src += vars[rng->Index(vars.size())];
      }
    }
    src += ")";
    const int body = static_cast<int>(rng->UniformInt(0, 3));
    for (int l = 0; l < body; ++l) {
      src += l == 0 ? " :- " : ", ";
      const double kind = rng->UniformDouble();
      if (kind < 0.55) {
        if (rng->Bernoulli(0.3)) src += "not ";
        src += preds[rng->Index(preds.size())] + "(" +
               vars[rng->Index(vars.size())] + ", " +
               vars[rng->Index(vars.size())] + ")";
      } else if (kind < 0.8) {
        src += vars[rng->Index(vars.size())] + " < " +
               std::to_string(rng->UniformInt(0, 9));
      } else {
        src += vars[rng->Index(vars.size())] + " = " +
               vars[rng->Index(vars.size())] + " + 1";
      }
    }
    src += ".\n";
  }
  return src;
}

TEST(AnalyzerPropertyTest, NeverCrashesAndNeverPassesUnsafePrograms) {
  Rng rng(20260805);
  const PredicateCatalog system = PredicateCatalog::SystemRelations();
  int parsed = 0;
  int unsafe = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::string src = RandomProgram(&rng);
    // Must never crash, whatever the input.
    AnalysisReport report =
        ProgramAnalyzer().AnalyzeSource(src, &system);

    Result<Program> unvalidated = Parser::ParseUnvalidated(src);
    if (!unvalidated.ok()) {
      // Grammar-level failure: the analyzer must agree it cannot parse.
      EXPECT_TRUE(Has(report, "parse/error")) << src;
      continue;
    }
    ++parsed;
    // The evaluator's own gate is Program::Validate (what Parser::Parse
    // enforces). Anything it rejects must be an analyzer error too, and
    // a program with no safety/* error must pass it.
    bool safety_error = false;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.severity == Severity::kError &&
          d.check_id.rfind("safety/", 0) == 0) {
        safety_error = true;
      }
    }
    if (!unvalidated.value().Validate().ok()) {
      ++unsafe;
      EXPECT_GT(report.error_count(), 0u)
          << "analyzer passed a program the evaluator rejects:\n"
          << src << unvalidated.value().Validate().ToString();
      EXPECT_TRUE(safety_error) << src;
    } else {
      EXPECT_FALSE(safety_error)
          << "analyzer reports a safety error the evaluator accepts:\n"
          << src;
    }
  }
  // The generator must actually exercise both sides of the contract.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(unsafe, 50);
}

}  // namespace
}  // namespace vada::datalog::analysis
