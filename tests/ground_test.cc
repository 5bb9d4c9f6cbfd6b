#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/trace.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/serialize.h"
#include "rdb/rdb.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::SameRelation;

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Ground, SingleRelationTrie) {
  Relation r = MakeRel({0, 1}, {{2, 1}, {1, 1}, {1, 2}});
  FRep rep = GroundRelation(r, 0);
  rep.Validate();
  r.SortLex();
  EXPECT_TRUE(SameRelation(rep, r));
}

TEST(Ground, DeduplicatesInputTuples) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 1}, {1, 1}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_EQ(rep.CountTuples(), 1.0);
}

TEST(Ground, TwoWayJoinOverMergedClass) {
  // R(A,B) |x|_{B=C} S(C,D) over the tree {B,C} -> A, {B,C} -> D.
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 5}, {3, 6}, {4, 9}});
  Relation s = MakeRel({2, 3}, {{5, 70}, {5, 71}, {6, 72}, {8, 73}});
  FTree t;
  AttrSet cls = AttrSet::Of({1, 2});
  int nj = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nd = t.NewNode(AttrSet::Of({3}), AttrSet::Of({3}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(nj);
  t.AttachChild(nj, na);
  t.AttachChild(nj, nd);
  FRep rep = GroundQuery(t, {&r, &s});
  rep.Validate();
  // B=5: A in {1,2} x D in {70,71}; B=6: {3} x {72}. 5 join tuples.
  EXPECT_EQ(rep.CountTuples(), 5.0);
  // Factorised: 2 join values + 3 A values + 3 D values = 8 singletons
  // (x2 for the two-attribute class).
  EXPECT_EQ(rep.NumSingletons(), 2u * 2u + 3u + 3u);
}

TEST(Ground, AppliesConstPredicates) {
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}, {3, 7}});
  FTree t = PathFTree({0, 1}, 0);
  FRep rep = GroundQuery(t, {&r}, {ConstPred{1, CmpOp::kGe, 6}});
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 2.0);
}

TEST(Ground, EmptyJoinResult) {
  Relation r = MakeRel({0}, {{1}});
  Relation s = MakeRel({1}, {{2}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r, &s});
  EXPECT_TRUE(rep.empty());
}

TEST(Ground, EmptyInputRelation) {
  Relation r({0});
  FRep rep = GroundRelation(r, 0);
  EXPECT_TRUE(rep.empty());
}

TEST(Ground, RejectsPathConstraintViolation) {
  // R(A,B)'s attributes on two branches of a fork.
  Relation r = MakeRel({0, 1}, {{1, 2}});
  Relation s = MakeRel({2}, {{1}});
  FTree t;
  int root = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({1}),
                       RelSet::Of({1}));
  int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  t.AttachRoot(root);
  t.AttachChild(root, na);
  t.AttachChild(root, nb);
  EXPECT_THROW(GroundQuery(t, {&r, &s}), FdbError);
}

TEST(Ground, IntraRelationClassEquality) {
  // Class {A,B} within one relation keeps only tuples with A = B.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {3, 3}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r});
  EXPECT_EQ(rep.CountTuples(), 2.0);
}

TEST(Ground, GroceryQ1OverT1MatchesPaper) {
  // The factorised Q1 result of Example 1, over T1.
  auto db = testing_util::MakeGroceryDb();
  AttrId item = db->Attr("o_item"), sitem = db->Attr("s_item");
  AttrId loc = db->Attr("s_location"), dloc = db->Attr("d_location");
  AttrId oid = db->Attr("oid"), disp = db->Attr("dispatcher");

  FTree t1;
  AttrSet c_item = AttrSet::Of({item, sitem});
  AttrSet c_loc = AttrSet::Of({loc, dloc});
  int n_item =
      t1.NewNode(c_item, c_item, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int n_oid = t1.NewNode(AttrSet::Of({oid}), AttrSet::Of({oid}),
                         RelSet::Of({0}), RelSet::Of({0}));
  int n_loc =
      t1.NewNode(c_loc, c_loc, RelSet::Of({1, 2}), RelSet::Of({1, 2}));
  int n_disp = t1.NewNode(AttrSet::Of({disp}), AttrSet::Of({disp}),
                          RelSet::Of({2}), RelSet::Of({2}));
  t1.AttachRoot(n_item);
  t1.AttachChild(n_item, n_oid);
  t1.AttachChild(n_item, n_loc);
  t1.AttachChild(n_loc, n_disp);

  std::vector<const Relation*> rels = {
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Orders"))),
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Store"))),
      &db->relation(static_cast<RelId>(db->catalog().FindRelation("Disp")))};
  FRep rep = GroundQuery(t1, rels);
  rep.Validate();

  // Cross-check against RDB's flat evaluation of Q1.
  Query q1 = testing_util::GroceryQ1(*db);
  RdbResult flat = RdbEvaluate(db->catalog(), rels, q1);
  EXPECT_TRUE(SameRelation(rep, flat.relation));
  // 14 tuples flat (4 Milk + 6 Cheese + 4 Melon combinations); factorised
  // over T1 the result is strictly smaller than the 14 x 6 data elements.
  EXPECT_EQ(rep.CountTuples(), static_cast<double>(flat.NumTuples()));
  EXPECT_LT(rep.NumSingletons(), flat.NumTuples() * 6);
}

// ---------- Sort-once grounding (Relation::SortedBy) ----------

// The number of relations GroundQuery had to sort (its span's rows).
uint64_t RelationsSorted(const QueryTrace& trace) {
  for (const QueryTrace::Span& s : trace.spans()) {
    if (s.name == "ground") return s.rows;
  }
  ADD_FAILURE() << "no ground span";
  return 0;
}

// Grounds `q` through the engine and checks it against the flat baseline;
// returns the number of relations the grounding sorted.
uint64_t GroundAndCheck(Engine& engine, const Query& q) {
  QueryTrace trace;
  const FdbResult res = engine.EvaluateFlat(q, nullptr, &trace);
  res.rep.Validate();
  EXPECT_TRUE(SameRelation(res.rep, engine.ExecuteRdb(q).relation));
  return RelationsSorted(trace);
}

TEST(SortCache, EveryMutatorInvalidatesGrounding) {
  Database db;
  const RelId r = db.CreateRelation("R", {"a", "b"});
  const RelId s = db.CreateRelation("S", {"c", "d"});
  for (int64_t i = 1; i <= 12; ++i) {
    db.Insert(r, {i, i % 3});
    db.Insert(s, {i % 4, 100 + i});
  }
  Engine engine(&db);
  const Query join = engine.Parse("SELECT * FROM R, S WHERE b = c");
  const Query selective =
      engine.Parse("SELECT * FROM R, S WHERE b = c AND a >= 4 AND d <= 110");
  EXPECT_EQ(GroundAndCheck(engine, join), 2u);
  EXPECT_EQ(GroundAndCheck(engine, join), 0u);  // both orders cached
  // Predicates filter the cached rows; they need no sort of their own.
  EXPECT_EQ(GroundAndCheck(engine, selective), 0u);

  // Each mutation goes through Database::relation(), which bypasses
  // Database::version(): the relation's own cache must notice.
  const std::vector<std::pair<std::string, std::function<void(Relation&)>>>
      mutators = {
          {"AddTuple", [](Relation& rel) { rel.AddTuple({0, 1}); }},
          {"AppendRows",
           [](Relation& rel) {
             const std::vector<Value> rows = {20, 2, 21, 0};
             rel.AppendRows(rows);
           }},
          {"AdoptRows", [](Relation& rel) { rel.AdoptRows({22, 1, 23, 2}); }},
          {"Filter",
           [](Relation& rel) {
             rel.Filter([&](size_t row) { return rel.At(row, 0) % 2 == 0; });
           }},
          {"SortByColumns", [](Relation& rel) { rel.SortByColumns({1}); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    mutate(db.relation(r));
    EXPECT_EQ(GroundAndCheck(engine, join), 1u);
    EXPECT_EQ(GroundAndCheck(engine, selective), 0u);
    EXPECT_EQ(GroundAndCheck(engine, join), 0u);
  }
}

TEST(SortCache, CopiesAndMovesStartEmpty) {
  Relation r = MakeRel({0, 1}, {{3, 1}, {1, 2}, {2, 1}, {1, 2}});
  bool sorted = false;
  const std::shared_ptr<const Relation> by_b = r.SortedBy({1}, &sorted);
  EXPECT_TRUE(sorted);
  EXPECT_EQ(by_b->size(), 3u);  // sorted and deduplicated
  EXPECT_EQ(r.size(), 4u);      // the relation itself is untouched
  EXPECT_EQ(r.SortedBy({1}, &sorted), by_b);
  EXPECT_FALSE(sorted);
  // {1} and {1, 0} are one total column order.
  EXPECT_EQ(r.SortedBy({1, 0}, &sorted), by_b);
  EXPECT_FALSE(sorted);

  Relation copy = r;
  EXPECT_TRUE(copy == r);  // equality ignores the cache
  EXPECT_NE(copy.SortedBy({1}, &sorted), by_b);
  EXPECT_TRUE(sorted);
  EXPECT_EQ(r.SortedBy({1}, &sorted), by_b);  // the original keeps its own
  EXPECT_FALSE(sorted);

  Relation moved = std::move(copy);
  EXPECT_NE(moved.SortedBy({1}, &sorted), by_b);
  EXPECT_TRUE(sorted);

  Relation assigned({0, 1});
  assigned.AddTuple({9, 9});
  const std::shared_ptr<const Relation> stale = assigned.SortedBy({0});
  assigned = r;  // assignment drops the target's cache
  const std::shared_ptr<const Relation> fresh = assigned.SortedBy({0}, &sorted);
  EXPECT_TRUE(sorted);
  EXPECT_EQ(fresh->size(), 3u);
  // A copy handed out earlier outlives the cache entry it came from.
  EXPECT_EQ(stale->size(), 1u);
  EXPECT_EQ(stale->At(0, 0), 9);
}

TEST(SortCache, ConcurrentGroundingSortsEachRelationOnce) {
  // Four threads ground one join over the same two fresh relations at
  // once: every thread gets the same rep, and the cache sorts each
  // relation exactly once between them.
  Relation r({0, 1}), s({2, 3});
  for (Value i = 200; i >= 1; --i) {
    r.AddTuple({i, i % 7});
    s.AddTuple({i % 5, 1000 - i});
  }
  FTree t;
  const AttrSet cls = AttrSet::Of({1, 2});
  const int nj = t.NewNode(cls, cls, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  const int na = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}),
                           RelSet::Of({0}), RelSet::Of({0}));
  const int nd = t.NewNode(AttrSet::Of({3}), AttrSet::Of({3}),
                           RelSet::Of({1}), RelSet::Of({1}));
  t.AttachRoot(nj);
  t.AttachChild(nj, na);
  t.AttachChild(nj, nd);

  constexpr int kThreads = 4;
  std::vector<std::string> bytes(kThreads);
  std::vector<uint64_t> sorts(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      QueryTrace trace;
      const FRep rep = GroundQuery(t, {&r, &s}, {}, &trace);
      std::ostringstream os;
      WriteFRep(os, rep);
      bytes[static_cast<size_t>(i)] = os.str();
      sorts[static_cast<size_t>(i)] = RelationsSorted(trace);
    });
  }
  for (std::thread& th : threads) th.join();

  std::ostringstream expect;
  WriteFRep(expect, GroundQuery(t, {&r, &s}));
  uint64_t total_sorts = 0;
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(bytes[static_cast<size_t>(i)], expect.str()) << "thread " << i;
    total_sorts += sorts[static_cast<size_t>(i)];
  }
  EXPECT_EQ(total_sorts, 2u);
}

}  // namespace
}  // namespace fdb
