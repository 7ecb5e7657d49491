// Property tests for the process-wide interning dictionary behind the
// columnar Datalog storage engine (DESIGN.md §5j): intern/lookup
// round-trips over seeded random values, id stability across snapshot
// borrowing and KB write-guard rollback, and concurrent Intern/value()
// (the TSan job runs this file to certify the chunked wait-free reads).
#include "kb/symbol_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kb/database.h"
#include "kb/knowledge_base.h"
#include "kb/write_guard.h"

namespace vada::datalog {
namespace {

/// Deterministic mixed-type value stream (strings, ints, doubles, bools,
/// nulls) with deliberate collisions: small domains make re-interning of
/// equal values the common case, which is what the canonical-id property
/// is about.
Value RandomValue(std::mt19937* rng) {
  switch ((*rng)() % 5) {
    case 0:
      return Value::Int(static_cast<int64_t>((*rng)() % 64) - 32);
    case 1:
      return Value::Double(static_cast<double>((*rng)() % 16) / 4.0);
    case 2:
      return Value::String("sym_" + std::to_string((*rng)() % 128));
    case 3:
      return Value::Bool((*rng)() % 2 == 0);
    default:
      return Value::Null();
  }
}

TEST(SymbolTableTest, InternLookupRoundTripSeeded) {
  SymbolTable table;
  std::mt19937 rng(20260808);
  std::vector<std::pair<Value, SymbolId>> interned;
  for (int i = 0; i < 4000; ++i) {
    Value v = RandomValue(&rng);
    SymbolId id = table.Intern(v);
    // Canonical: equal values always map to the same id, and Find sees
    // exactly what Intern assigned.
    EXPECT_EQ(table.Intern(v), id);
    ASSERT_TRUE(table.Find(v).has_value());
    EXPECT_EQ(*table.Find(v), id);
    // Round-trip: the id resolves back to a strictly equal Value.
    EXPECT_EQ(table.value(id), v);
    interned.emplace_back(std::move(v), id);
  }
  // Ids are dense from 0 in first-intern order and never remapped.
  std::set<SymbolId> distinct;
  for (const auto& [v, id] : interned) {
    EXPECT_EQ(table.value(id), v);  // still stable after all interning
    distinct.insert(id);
  }
  EXPECT_EQ(distinct.size(), table.size());
  EXPECT_EQ(*distinct.rbegin(), static_cast<SymbolId>(table.size() - 1));
}

TEST(SymbolTableTest, FindNeverGrowsTheTable) {
  SymbolTable table;
  table.Intern(Value::Int(1));
  size_t before = table.size();
  EXPECT_FALSE(table.Find(Value::String("never interned")).has_value());
  EXPECT_EQ(table.size(), before);
}

TEST(SymbolTableTest, NanInternsFreshMirroringValueEquality) {
  // Double(NaN) != Double(NaN), so each NaN gets its own id — the same
  // semantics the row engine's hash sets had (DESIGN.md §5j).
  SymbolTable table;
  Value nan = Value::Double(std::nan(""));
  SymbolId a = table.Intern(nan);
  SymbolId b = table.Intern(nan);
  EXPECT_NE(a, b);
  EXPECT_TRUE(std::isnan(table.value(a).double_value()));
  EXPECT_FALSE(table.Find(nan).has_value());  // never equal to itself
}

TEST(SymbolTableTest, IdsStableAcrossSnapshotBorrowAndCowDetach) {
  auto snapshot = std::make_shared<Database>();
  snapshot->Insert("p", Tuple({Value::String("alpha"), Value::Int(1)}));
  snapshot->Insert("p", Tuple({Value::String("beta"), Value::Int(2)}));

  // Record the ids the snapshot's columns hold.
  Database::View before = snapshot->view("p");
  ASSERT_TRUE(before.valid());
  std::vector<SymbolId> ids(before.column(0), before.column(0) + before.rows());

  // Borrow, then write through the borrower (copy-on-write detach).
  Database borrower;
  borrower.AttachShared(snapshot);
  borrower.Insert("p", Tuple({Value::String("gamma"), Value::Int(3)}));
  EXPECT_EQ(borrower.FactCount("p"), 3u);
  EXPECT_EQ(snapshot->FactCount("p"), 2u);  // owner untouched

  // The borrowed rows kept their exact ids through the detach, and the
  // owner's columns are bit-identical to what they were before.
  Database::View after_owner = snapshot->view("p");
  Database::View after_borrower = borrower.view("p");
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_EQ(after_owner.column(0)[r], ids[r]);
    EXPECT_EQ(after_borrower.column(0)[r], ids[r]);
  }
}

TEST(SymbolTableTest, IdsSurviveWriteGuardRollback) {
  SymbolTable& table = SymbolTable::Global();

  KnowledgeBase kb;
  Relation rel(Schema::Untyped("guarded", {"name", "rank"}));
  ASSERT_TRUE(
      rel.InsertUnchecked(Tuple({Value::String("keep"), Value::Int(7)})).ok());
  ASSERT_TRUE(kb.ReplaceRelation(rel).ok());

  // Interning happens at the KB -> engine boundary.
  Database db;
  db.LoadRelation(*kb.FindRelation("guarded"));
  Database::View view = db.view("guarded");
  ASSERT_TRUE(view.valid());
  std::vector<SymbolId> ids(view.column(0), view.column(0) + view.rows());

  {
    WriteGuard guard(&kb);
    Relation bigger(Schema::Untyped("guarded", {"name", "rank"}));
    ASSERT_TRUE(
        bigger.InsertUnchecked(Tuple({Value::String("drop"), Value::Int(8)}))
            .ok());
    ASSERT_TRUE(kb.ReplaceRelation(bigger).ok());
    guard.Rollback();
  }

  // Rollback restored the KB; the global table never un-interns, so the
  // ids taken before the aborted write still resolve, and re-loading the
  // restored relation reproduces them exactly.
  for (SymbolId id : ids) {
    EXPECT_EQ(table.Intern(table.value(id)), id);
  }
  Database reloaded;
  reloaded.LoadRelation(*kb.FindRelation("guarded"));
  Database::View reloaded_view = reloaded.view("guarded");
  ASSERT_EQ(reloaded_view.rows(), ids.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_EQ(reloaded_view.column(0)[r], ids[r]);
  }
}

TEST(SymbolTableTest, ConcurrentInternAndReadAreRaceFree) {
  // 4 writers intern overlapping value ranges while readers resolve
  // every id each writer publishes. TSan certifies the release/acquire
  // chunk handoff; the assertions certify canonical ids.
  SymbolTable table;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  // Release/acquire handoff of published ids, so readers only ever
  // dereference ids obtained from published data — the table's stated
  // pre-condition for wait-free value().
  std::vector<std::atomic<SymbolId>> published(kWriters * kPerWriter);
  for (auto& p : published) p.store(kNoSymbol, std::memory_order_relaxed);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, &published, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Overlapping domains: every other value collides across writers.
        Value v = (i % 2 == 0)
                      ? Value::String("shared_" + std::to_string(i))
                      : Value::Int(static_cast<int64_t>(w) * kPerWriter + i);
        published[w * kPerWriter + i].store(table.Intern(v),
                                            std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&table, &published] {
      // Chase the writers: resolve whatever has been published so far.
      for (int pass = 0; pass < 3; ++pass) {
        for (const auto& slot : published) {
          SymbolId id = slot.load(std::memory_order_acquire);
          if (id == kNoSymbol) continue;
          (void)table.value(id);  // must be a fully constructed Value
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Shared values interned to one canonical id regardless of which
  // writer got there first.
  for (int i = 0; i < kPerWriter; i += 2) {
    for (int w = 1; w < kWriters; ++w) {
      EXPECT_EQ(published[w * kPerWriter + i].load(),
                published[i].load());
    }
  }
  // And every id round-trips after the dust settles.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 1; i < kPerWriter; i += 2) {
      EXPECT_EQ(table.value(published[w * kPerWriter + i].load()).int_value(),
                static_cast<int64_t>(w) * kPerWriter + i);
    }
  }
}

}  // namespace
}  // namespace vada::datalog
