// Internal to the datalog engine: the compiled rule IR and the one join
// kernel that executes it. Evaluator::Run and EXPLAIN compile rules
// with RuleCompiler and enumerate their solutions with RuleExecutor.
// Not part of the public API.
#ifndef VADA_DATALOG_RULE_EXECUTOR_H_
#define VADA_DATALOG_RULE_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/explain.h"
#include "datalog/planner.h"
#include "datalog/symbol_table.h"

namespace vada::datalog {

// ---------------------------------------------------------------------------
// Rule compilation: variables become dense slots; literals are put into a
// bind-aware execution order once, not per tuple. Constants are interned
// once here, so the execution hot path never hashes a Value — join
// equality is uint32 symbol-id equality throughout (DESIGN.md §5j).
// Value-semantics operations (comparisons, arithmetic, aggregation) are
// the one place ids are materialized back into Values, because they need
// numeric coercion that id identity cannot express.
// ---------------------------------------------------------------------------

struct CompiledTerm {
  bool is_var = false;
  int slot = -1;            // when is_var
  Value constant;           // when !is_var
  SymbolId const_id = kNoSymbol;  // interned `constant` (when !is_var)
};

struct CompiledAtom {
  std::string predicate;
  std::vector<CompiledTerm> terms;
};

/// The per-row match plan of one positive atom, fixed at compile time.
/// Because execution follows the compiled order (atoms bind every
/// variable they mention, assignments always bind theirs), the static
/// bound/unbound split below equals the runtime binding state at literal
/// entry, so the inner candidate loop is branch-free over these lists:
/// pure id comparisons, then slot writes.
struct AtomMatchPlan {
  struct PosId {
    uint32_t pos;
    SymbolId id;
  };
  struct PosSlot {
    uint32_t pos;
    int slot;
  };
  struct PosPos {
    uint32_t pos;    // this column...
    uint32_t other;  // ...must equal this earlier column (repeated var)
  };
  std::vector<PosId> const_checks;    // column == interned constant
  std::vector<PosSlot> bound_checks;  // column == already-bound slot id
  std::vector<PosPos> self_checks;    // within-atom repeated variable
  std::vector<PosSlot> binds;         // first occurrence: bind slot
};

struct CompiledLiteral {
  Literal::Kind kind = Literal::Kind::kAtom;
  CompiledAtom atom;
  CompareOp compare_op = CompareOp::kEq;
  CompiledTerm lhs;
  CompiledTerm rhs;
  int assign_slot = -1;
  ArithOp arith_op = ArithOp::kNone;
  bool recursive = false;  // atom over a same-stratum predicate
  /// For positive atoms: the column positions that are ground when this
  /// literal starts executing — constants, plus variables bound by
  /// earlier literals of the execution order. Statically known because
  /// the order is fixed at compile time; this is the key set the
  /// composite index probe uses. Sorted ascending.
  std::vector<size_t> bound_positions;
  /// For positive atoms: the vectorized probe-loop plan (see above).
  AtomMatchPlan match;
  /// Position of this literal in the rule's *declared* body (the
  /// compiled body is in execution order) — EXPLAIN reports both.
  size_t body_index = 0;
  /// The planner's candidate estimate when it placed this literal
  /// (atoms planned against a database; 0 otherwise).
  size_t estimated_cost = 0;
};

struct AggSpec {
  size_t head_position;
  AggFunc func;
  int slot;  // slot of the aggregated variable
};

struct CompiledRule {
  CompiledAtom head;
  std::vector<AggSpec> aggregates;  // empty for normal rules
  std::vector<CompiledLiteral> body;
  std::vector<size_t> recursive_positions;  // body indexes of recursive atoms
  int num_slots = 0;
  std::string text;        // for error messages
  const Rule* source = nullptr;  // declared rule, for EXPLAIN rendering
};

class RuleCompiler {
 public:
  /// `db` supplies the planner's cardinality estimates (may be null:
  /// every atom then costs 0, so the most-bound atom goes first).
  RuleCompiler(const std::set<std::string>& stratum_preds, const Database* db)
      : stratum_preds_(stratum_preds), db_(db) {}

  CompiledRule Compile(const Rule& rule) {
    CompiledRule out;
    out.text = rule.ToString();
    out.source = &rule;

    // Execution order: the planner hoists builtins and negations as
    // early as their variables allow and orders positive atoms by
    // estimated selectivity.
    std::vector<LiteralPlan> plan;
    std::vector<size_t> order = PlanBodyOrder(rule, db_, &plan);

    // Compile in execution order, tracking which slots are bound when
    // each literal starts — that static set is exactly the runtime
    // binding state at literal entry, so it names the index key columns
    // and splits the match plan into checks vs. binds.
    std::set<int> bound_slots;
    for (size_t oi = 0; oi < order.size(); ++oi) {
      size_t body_index = order[oi];
      const Literal& l = rule.body[body_index];
      CompiledLiteral cl = CompileLiteral(l);
      cl.body_index = body_index;
      cl.estimated_cost = plan[oi].estimated_cost;
      if (cl.kind == Literal::Kind::kAtom) {
        std::map<int, uint32_t> first_pos;  // slot -> binding column
        for (size_t i = 0; i < cl.atom.terms.size(); ++i) {
          const CompiledTerm& t = cl.atom.terms[i];
          uint32_t pos = static_cast<uint32_t>(i);
          if (!t.is_var) {
            cl.bound_positions.push_back(i);
            cl.match.const_checks.push_back({pos, t.const_id});
          } else if (bound_slots.count(t.slot) > 0) {
            cl.bound_positions.push_back(i);
            cl.match.bound_checks.push_back({pos, t.slot});
          } else if (auto fit = first_pos.find(t.slot);
                     fit != first_pos.end()) {
            cl.match.self_checks.push_back({pos, fit->second});
          } else {
            first_pos.emplace(t.slot, pos);
            cl.match.binds.push_back({pos, t.slot});
          }
        }
      }
      switch (cl.kind) {
        case Literal::Kind::kAtom:
          for (const CompiledTerm& t : cl.atom.terms) {
            if (t.is_var) bound_slots.insert(t.slot);
          }
          break;
        case Literal::Kind::kAssignment:
          bound_slots.insert(cl.assign_slot);
          break;
        case Literal::Kind::kNegatedAtom:
        case Literal::Kind::kComparison:
          break;
      }
      out.body.push_back(std::move(cl));
      if (out.body.back().kind == Literal::Kind::kAtom &&
          out.body.back().recursive) {
        out.recursive_positions.push_back(out.body.size() - 1);
      }
    }

    // Head (aggregates recorded separately; their head slot stays -1 and
    // is filled from the aggregation result).
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      const Term& t = rule.head.terms[i];
      if (t.is_aggregate()) {
        out.aggregates.push_back(
            AggSpec{i, t.agg_func(), SlotOf(t.var())});
        CompiledTerm ct;
        ct.is_var = false;
        ct.constant = Value::Null();  // placeholder, overwritten per group
        ct.const_id = SymbolTable::Global().Intern(ct.constant);
        out.head.terms.push_back(ct);
      } else {
        out.head.terms.push_back(CompileTerm(t));
      }
    }
    out.head.predicate = rule.head.predicate;
    out.num_slots = static_cast<int>(slots_.size());
    return out;
  }

 private:
  int SlotOf(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(slots_.size());
    slots_.emplace(var, slot);
    return slot;
  }

  CompiledTerm CompileTerm(const Term& t) {
    CompiledTerm ct;
    if (t.is_variable()) {
      ct.is_var = true;
      ct.slot = SlotOf(t.var());
    } else {
      ct.is_var = false;
      ct.constant = t.value();
      // Interning here (not per probe) is what keeps constants off the
      // hot path; the id is canonical, so if the constant matches any
      // stored fact they share this id.
      ct.const_id = SymbolTable::Global().Intern(ct.constant);
    }
    return ct;
  }

  CompiledLiteral CompileLiteral(const Literal& l) {
    CompiledLiteral cl;
    cl.kind = l.kind;
    switch (l.kind) {
      case Literal::Kind::kAtom:
      case Literal::Kind::kNegatedAtom:
        cl.atom.predicate = l.atom.predicate;
        for (const Term& t : l.atom.terms) {
          cl.atom.terms.push_back(CompileTerm(t));
        }
        cl.recursive = stratum_preds_.count(l.atom.predicate) > 0 &&
                       l.kind == Literal::Kind::kAtom;
        break;
      case Literal::Kind::kComparison:
        cl.compare_op = l.compare_op;
        cl.lhs = CompileTerm(l.lhs);
        cl.rhs = CompileTerm(l.rhs);
        break;
      case Literal::Kind::kAssignment:
        cl.assign_slot = SlotOf(l.assign_var);
        cl.arith_op = l.arith_op;
        cl.lhs = CompileTerm(l.lhs);
        cl.rhs = CompileTerm(l.rhs);
        break;
    }
    return cl;
  }

  const std::set<std::string>& stratum_preds_;
  const Database* db_;
  std::map<std::string, int> slots_;
};

// ---------------------------------------------------------------------------
// Rule execution.
// ---------------------------------------------------------------------------

/// Mutable binding environment with a trail for backtracking. Slots hold
/// symbol ids, never Values — materialization happens only in the
/// Value-semantics literals (comparisons, arithmetic) and at the
/// provenance/aggregation boundary.
class BindingEnv {
 public:
  explicit BindingEnv(int num_slots)
      : ids_(num_slots, kNoSymbol), bound_(num_slots, 0) {}

  bool is_bound(int slot) const { return bound_[slot] != 0; }
  SymbolId id(int slot) const { return ids_[slot]; }

  void Bind(int slot, SymbolId id) {
    ids_[slot] = id;
    bound_[slot] = 1;
    trail_.push_back(slot);
  }

  size_t Mark() const { return trail_.size(); }

  void UnwindTo(size_t mark) {
    while (trail_.size() > mark) {
      bound_[trail_.back()] = 0;
      trail_.pop_back();
    }
  }

 private:
  std::vector<SymbolId> ids_;
  std::vector<unsigned char> bound_;
  std::vector<int> trail_;
};

/// Join-work counters of one rule evaluation; fields map 1:1 onto the
/// EvalStats join counters (scan_probes -> join_probes).
struct JoinWork {
  size_t scan_probes = 0;
  size_t index_probes = 0;
  size_t index_candidates = 0;
  size_t index_builds = 0;

  void Add(const JoinWork& o) {
    scan_probes += o.scan_probes;
    index_probes += o.index_probes;
    index_candidates += o.index_candidates;
    index_builds += o.index_builds;
  }

  void MergeInto(EvalStats* st) const {
    st->join_probes += scan_probes;
    st->index_probes += index_probes;
    st->index_candidates += index_candidates;
    st->index_builds += index_builds;
  }
};

constexpr size_t kNoDelta = static_cast<size_t>(-1);

/// Evaluates one compiled rule body, invoking `on_solution` for every
/// complete binding. Each positive atom reads one source, fixed here:
/// the body atom at `delta_position` (or kNoDelta) ranges over `delta`
/// instead of `db` (semi-naive). Negations read `db`.
class RuleExecutor {
 public:
  RuleExecutor(const CompiledRule& rule, const Database& db,
               const Database* delta, size_t delta_position,
               const PlannerOptions& planner)
      : rule_(rule),
        db_(db),
        planner_(planner),
        table_(SymbolTable::Global()),
        sources_(rule.body.size(), &db),
        lit_index_(rule.body.size()),
        env_(rule.num_slots) {
    if (delta != nullptr && delta_position < sources_.size()) {
      sources_[delta_position] = delta;
    }
  }

  template <typename Fn>
  void ForEachSolution(Fn&& on_solution) {
    Descend(0, on_solution);
  }

  BindingEnv& env() { return env_; }

  /// EXPLAIN ANALYZE hookup: when set (one slot per compiled body
  /// literal), probe/candidate counters are additionally recorded per
  /// literal — at the same sites as work_, so per-literal totals
  /// reconcile with EvalStats exactly — and each literal accumulates
  /// inclusive wall time. Null (the default): zero extra work.
  void set_lit_stats(std::vector<LiteralRuntime>* lit_stats) {
    lit_stats_ = lit_stats;
  }

  /// Join-work counters of this execution (see JoinWork).
  const JoinWork& work() const { return work_; }

  /// Ground instances of the rule's positive body atoms under the current
  /// (complete) bindings — the premises of the derivation just emitted.
  /// Materializes Values: provenance is a boundary consumer.
  std::vector<std::pair<std::string, Tuple>> GroundPositiveAtoms() const {
    std::vector<std::pair<std::string, Tuple>> out;
    for (const CompiledLiteral& lit : rule_.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      std::vector<Value> values;
      values.reserve(lit.atom.terms.size());
      bool ok = true;
      for (const CompiledTerm& t : lit.atom.terms) {
        const Value* v = TermValue(t);
        if (v == nullptr) {
          ok = false;
          break;
        }
        values.push_back(*v);
      }
      if (ok) out.push_back({lit.atom.predicate, Tuple(std::move(values))});
    }
    return out;
  }

 private:
  /// The term's symbol id under the current bindings. Pre-condition:
  /// the term is ground here (constant, or a slot the compiled order
  /// proved bound) — callers only ask for bound_positions terms.
  SymbolId TermId(const CompiledTerm& t) const {
    return t.is_var ? env_.id(t.slot) : t.const_id;
  }

  /// The term's Value under the current bindings, or nullptr when an
  /// unbound variable (unsafe literal; validated away — fail closed).
  /// This is the id -> Value materialization point for the
  /// Value-semantics literals.
  const Value* TermValue(const CompiledTerm& t) const {
    if (!t.is_var) return &t.constant;
    if (!env_.is_bound(t.slot)) return nullptr;
    return &table_.value(env_.id(t.slot));
  }

  template <typename Fn>
  void Descend(size_t index, Fn&& on_solution) {
    if (index == rule_.body.size()) {
      on_solution(env_);
      return;
    }
    if (lit_stats_ == nullptr) {
      DescendStep(index, on_solution);
      return;
    }
    // ANALYZE: inclusive wall time per literal (this literal plus
    // everything nested inside it in the join tree).
    auto start = std::chrono::steady_clock::now();
    DescendStep(index, on_solution);
    (*lit_stats_)[index].time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  template <typename Fn>
  void DescendStep(size_t index, Fn&& on_solution) {
    const CompiledLiteral& lit = rule_.body[index];
    switch (lit.kind) {
      case Literal::Kind::kAtom:
        EvalAtom(lit, *sources_[index], index, on_solution);
        return;
      case Literal::Kind::kNegatedAtom: {
        // Pure id containment check: every ground term resolves to an id
        // (constants were interned at compile; a value nobody interned
        // cannot be stored, so equal Values always share an id here).
        SymbolId local[8];
        std::vector<SymbolId> heap;
        SymbolId* ids = local;
        size_t n = lit.atom.terms.size();
        if (n > 8) {
          heap.resize(n);
          ids = heap.data();
        }
        for (size_t i = 0; i < n; ++i) {
          const CompiledTerm& t = lit.atom.terms[i];
          if (t.is_var && !env_.is_bound(t.slot)) {
            return;  // unsafe (validated away); fail closed
          }
          ids[i] = TermId(t);
        }
        Database::View v = db_.view(lit.atom.predicate);
        bool contained = v.valid() && v.arity() == n && v.ContainsIds(ids);
        if (!contained) Descend(index + 1, on_solution);
        return;
      }
      case Literal::Kind::kComparison: {
        const Value* a = TermValue(lit.lhs);
        const Value* b = TermValue(lit.rhs);
        if (a == nullptr || b == nullptr) return;
        if (EvalCompare(lit.compare_op, *a, *b)) {
          Descend(index + 1, on_solution);
        }
        return;
      }
      case Literal::Kind::kAssignment: {
        const Value* a = TermValue(lit.lhs);
        if (a == nullptr) return;
        std::optional<Value> result;
        if (lit.arith_op == ArithOp::kNone) {
          result = *a;
        } else {
          const Value* b = TermValue(lit.rhs);
          if (b == nullptr) return;
          result = ApplyArith(lit.arith_op, *a, *b);
        }
        if (!result.has_value()) return;  // arithmetic failure: literal false
        if (env_.is_bound(lit.assign_slot)) {
          // Numeric coercion (Int(3) == Double(3.0)) — must compare
          // Values, not ids.
          std::optional<int> cmp =
              CompareValues(table_.value(env_.id(lit.assign_slot)), *result);
          if (cmp.has_value() && *cmp == 0) Descend(index + 1, on_solution);
          return;
        }
        size_t mark = env_.Mark();
        // Computed values (sums, concatenations of ids never seen
        // before) enter the dictionary here — the only intern site on
        // the execution path.
        env_.Bind(lit.assign_slot, table_.Intern(*result));
        Descend(index + 1, on_solution);
        env_.UnwindTo(mark);
        return;
      }
    }
  }

  /// Resolved candidate list for one positive atom under the planner
  /// options. `list == nullptr` means "scan all rows"; `miss` means the
  /// bound prefix matched nothing (zero candidates).
  struct Candidates {
    Database::View view;
    const std::vector<uint32_t>* list = nullptr;
    size_t count = 0;
    bool via_index = false;
    bool miss = false;
  };

  /// Chooses how the atom at body position `index` enumerates facts:
  /// full scan when nothing is bound or indexes are disabled (the
  /// differential oracle), otherwise a probe of the composite index over
  /// the bound prefix. An unknown predicate or an out-of-range position
  /// has no index and is a miss. `lit.bound_positions` is static, but it
  /// equals the runtime binding state here because execution follows
  /// the compiled order: atoms bind every variable they mention and
  /// assignments always bind theirs.
  Candidates SelectCandidates(const CompiledLiteral& lit, size_t index,
                              const Database& source) {
    Candidates out;
    out.view = source.view(lit.atom.predicate);
    if (lit.bound_positions.empty() || !planner_.indexes) {
      // Full scan (also the indexes=false oracle).
      out.count = out.view.valid() ? out.view.rows() : 0;
      return out;
    }
    LitIndex& cached = lit_index_[index];
    if (!cached.resolved) {
      cached.resolved = true;
      cached.index = source.EnsureBoundIndex(
          lit.atom.predicate, lit.bound_positions, &work_.index_builds);
    }
    if (cached.index == nullptr) {
      out.miss = true;
      return out;
    }
    out.via_index = true;
    // The probe key is a handful of uint32s — hashed without touching
    // a single Value (the point of the columnar layout, DESIGN.md §5j).
    key_scratch_.clear();
    for (size_t pos : lit.bound_positions) {
      key_scratch_.push_back(TermId(lit.atom.terms[pos]));
    }
    auto it = cached.index->buckets.find(key_scratch_);
    if (it == cached.index->buckets.end()) {
      out.miss = true;
      return out;
    }
    out.list = &it->second;
    out.count = out.list->size();
    return out;
  }

  template <typename Fn>
  void EvalAtom(const CompiledLiteral& lit, const Database& source,
                size_t index, Fn&& on_solution) {
    Candidates cand = SelectCandidates(lit, index, source);
    if (cand.via_index) {
      ++work_.index_probes;
      if (lit_stats_ != nullptr) ++(*lit_stats_)[index].index_probes;
    }
    if (cand.miss) return;  // no fact matches the bound prefix
    if (cand.via_index) {
      work_.index_candidates += cand.count;
      if (lit_stats_ != nullptr) {
        (*lit_stats_)[index].index_candidates += cand.count;
      }
    } else {
      work_.scan_probes += cand.count;
      if (lit_stats_ != nullptr) (*lit_stats_)[index].scan_probes += cand.count;
    }
    if (cand.count == 0 || !cand.view.valid()) return;
    // All rows of a store share its arity, so the row engine's per-fact
    // arity test hoists to one check per call (candidates above were
    // already counted, matching the row engine's bookkeeping).
    size_t n = lit.atom.terms.size();
    if (cand.view.arity() != n) return;
    // The vectorized probe loop: raw column pointers, id comparisons
    // only. No Value is constructed, hashed or compared anywhere below.
    const AtomMatchPlan& plan = lit.match;
    for (size_t ci = 0; ci < cand.count; ++ci) {
      uint32_t row = (cand.list != nullptr) ? (*cand.list)[ci]
                                            : static_cast<uint32_t>(ci);
      bool ok = true;
      for (const AtomMatchPlan::PosId& c : plan.const_checks) {
        if (cand.view.column(c.pos)[row] != c.id) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const AtomMatchPlan::PosSlot& c : plan.bound_checks) {
          if (cand.view.column(c.pos)[row] != env_.id(c.slot)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        for (const AtomMatchPlan::PosPos& c : plan.self_checks) {
          if (cand.view.column(c.pos)[row] != cand.view.column(c.other)[row]) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      size_t mark = env_.Mark();
      for (const AtomMatchPlan::PosSlot& b : plan.binds) {
        env_.Bind(b.slot, cand.view.column(b.pos)[row]);
      }
      Descend(index + 1, on_solution);
      env_.UnwindTo(mark);
    }
  }

  /// Per-literal memo of the composite-index lookup, so the index map
  /// (and its mutex) is paid once per execution, not per probe. A
  /// resolved null index is a predicate or position with no index.
  struct LitIndex {
    bool resolved = false;
    const BoundIndex* index = nullptr;
  };

  const CompiledRule& rule_;
  const Database& db_;
  PlannerOptions planner_;
  SymbolTable& table_;
  std::vector<const Database*> sources_;  // per body literal (atoms only)
  std::vector<LitIndex> lit_index_;
  BindingEnv env_;
  JoinWork work_;
  std::vector<SymbolId> key_scratch_;  // composite probe key, reused
  std::vector<LiteralRuntime>* lit_stats_ = nullptr;
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_RULE_EXECUTOR_H_
