// Grouped aggregation inside the factorisation (core/aggregate.h), cross-
// checked against the flat enumerate-then-hash baseline (rdb/HashGroupBy)
// on hand-built reps, the grocery database, and randomized workloads; every
// cross-check also asserts that the morsel-parallel materialisation gives
// the sequential table bit for bit. Runs under ThreadSanitizer in CI.
#include <cstring>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/ground.h"
#include "core/ops.h"
#include "opt/ftree_search.h"
#include "rdb/rdb.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

// The join result over *all* attributes of the f-tree (the relation the
// aggregates range over), via the reference walker's full-tuple stream.
Relation FullRelation(const FRep& rep) {
  Relation out(rep.tree().AllAttrs().ToVector());
  for (const std::vector<Value>& t :
       testing_util::ReferenceTuples(rep, /*visible_only=*/false)) {
    out.AddTuple(t);
  }
  out.SortLex();
  return out;
}

GroupedTable Reference(const FRep& rep, AttrSet group_by,
                       const std::vector<AggSpec>& specs) {
  return HashGroupBy(FullRelation(rep), group_by, specs);
}

GroupedTable Factorised(const FRep& rep, AttrSet group_by,
                        const std::vector<AggSpec>& specs,
                        FPlan* plan = nullptr) {
  GroupedRep g = GroupByAggregate(rep, group_by, specs, nullptr, plan);
  GroupedTable t = g.Materialize();
  t.SortByKey();
  return t;
}

void ExpectSameTable(const GroupedTable& got, const GroupedTable& want) {
  ASSERT_EQ(got.group_schema, want.group_schema);
  ASSERT_EQ(got.num_rows, want.num_rows);
  for (size_t r = 0; r < got.num_rows; ++r) {
    for (size_t c = 0; c < got.group_schema.size(); ++c) {
      ASSERT_EQ(got.KeyAt(r, c), want.KeyAt(r, c)) << "row " << r;
    }
    for (size_t c = 0; c < got.specs.size(); ++c) {
      EXPECT_DOUBLE_EQ(got.AggAt(r, c), want.AggAt(r, c))
          << "row " << r << " spec " << c;
    }
  }
}

// Materialize at threads {2, 8} with one-tuple morsels must give the
// sequential table row for row, in the same order, with bit-identical
// doubles.
void ExpectParallelIdentical(const GroupedRep& g) {
  const GroupedTable seq = g.Materialize();
  for (int threads : {2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 1;
    const GroupedTable par = g.Materialize(opts);
    ASSERT_EQ(par.num_rows, seq.num_rows) << threads;
    EXPECT_EQ(par.keys, seq.keys) << threads;
    ASSERT_EQ(par.aggs.size(), seq.aggs.size()) << threads;
    if (!seq.aggs.empty()) {
      EXPECT_EQ(std::memcmp(par.aggs.data(), seq.aggs.data(),
                            seq.aggs.size() * sizeof(double)),
                0)
          << threads;
    }
  }
}

void CrossCheck(const FRep& rep, AttrSet group_by,
                const std::vector<AggSpec>& specs) {
  ExpectParallelIdentical(GroupByAggregate(rep, group_by, specs));
  ExpectSameTable(Factorised(rep, group_by, specs),
                  Reference(rep, group_by, specs));
}

// All five functions over `attr` plus COUNT(*).
std::vector<AggSpec> AllSpecs(AttrId attr) {
  return {{AggFn::kCount, 0}, {AggFn::kSum, attr}, {AggFn::kAvg, attr},
          {AggFn::kMin, attr}, {AggFn::kMax, attr}};
}

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(GroupByAggregate, SingleRelation) {
  Relation r = MakeRel({0, 1}, {{1, 10}, {1, 20}, {2, 30}});
  FRep rep = GroundRelation(r, 0);
  GroupedTable t = Factorised(rep, AttrSet::Of({0}), AllSpecs(1));
  ASSERT_EQ(t.num_rows, 2u);
  EXPECT_EQ(t.KeyAt(0, 0), 1);
  EXPECT_EQ(t.AggAt(0, 0), 2.0);   // COUNT
  EXPECT_EQ(t.AggAt(0, 1), 30.0);  // SUM
  EXPECT_EQ(t.AggAt(0, 2), 15.0);  // AVG
  EXPECT_EQ(t.AggAt(0, 3), 10.0);  // MIN
  EXPECT_EQ(t.AggAt(0, 4), 20.0);  // MAX
  EXPECT_EQ(t.KeyAt(1, 0), 2);
  EXPECT_EQ(t.AggAt(1, 0), 1.0);
  EXPECT_EQ(t.AggAt(1, 1), 30.0);
  CrossCheck(rep, AttrSet::Of({0}), AllSpecs(1));
}

TEST(GroupByAggregate, GroupAttrAggregates) {
  // SUM/MIN/MAX of a grouping attribute (kGroup placement).
  Relation r = MakeRel({0, 1}, {{1, 10}, {1, 20}, {2, 30}});
  FRep rep = GroundRelation(r, 0);
  CrossCheck(rep, AttrSet::Of({0}), AllSpecs(0));
}

TEST(GroupByAggregate, RestructureLiftsDeepGroup) {
  // Path f-tree A -> B -> C; grouping by C needs two swaps.
  Relation r = MakeRel({0, 1, 2},
                       {{1, 10, 5}, {1, 10, 6}, {1, 20, 5}, {2, 30, 6}});
  FRep rep = GroundRelation(r, 0);
  FPlan plan;
  GroupedTable got = Factorised(rep, AttrSet::Of({2}), AllSpecs(1), &plan);
  EXPECT_GE(plan.steps.size(), 2u);
  for (const PlanStep& s : plan.steps) {
    EXPECT_EQ(s.kind, PlanStep::Kind::kSwap);
  }
  ExpectSameTable(got, Reference(rep, AttrSet::Of({2}), AllSpecs(1)));
}

TEST(GroupByAggregate, GroupByMiddleOfPath) {
  Relation r = MakeRel({0, 1, 2},
                       {{1, 10, 5}, {1, 10, 6}, {1, 20, 5}, {2, 30, 6}});
  FRep rep = GroundRelation(r, 0);
  CrossCheck(rep, AttrSet::Of({1}), AllSpecs(0));
  CrossCheck(rep, AttrSet::Of({1}), AllSpecs(2));
  CrossCheck(rep, AttrSet::Of({0, 2}), AllSpecs(1));
}

TEST(GroupByAggregate, GlobalTreesMultiplyEveryGroup) {
  // R(A) x S(B,C): grouping by A leaves S's tree without a grouping class;
  // its aggregates become global multipliers.
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1, 2}, {{10, 7}, {20, 9}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  GroupedTable t = Factorised(prod, AttrSet::Of({0}), AllSpecs(2));
  ASSERT_EQ(t.num_rows, 3u);
  EXPECT_EQ(t.AggAt(0, 0), 2.0);   // COUNT = |S|
  EXPECT_EQ(t.AggAt(0, 1), 16.0);  // SUM(C) over S
  EXPECT_EQ(t.AggAt(0, 3), 7.0);   // MIN(C)
  EXPECT_EQ(t.AggAt(0, 4), 9.0);   // MAX(C)
  CrossCheck(prod, AttrSet::Of({0}), AllSpecs(2));
  CrossCheck(prod, AttrSet::Of({2}), AllSpecs(0));
}

TEST(GroupByAggregate, EmptyGroupSetIsGlobalAggregate) {
  Relation r = MakeRel({0, 1}, {{1, 10}, {1, 20}, {2, 30}});
  FRep rep = GroundRelation(r, 0);
  GroupedTable t = Factorised(rep, {}, AllSpecs(1));
  ASSERT_EQ(t.num_rows, 1u);
  EXPECT_EQ(t.AggAt(0, 0), Count(rep));
  EXPECT_EQ(t.AggAt(0, 1), Sum(rep, 1));
  EXPECT_EQ(t.AggAt(0, 3), static_cast<double>(Min(rep, 1)));
  EXPECT_EQ(t.AggAt(0, 4), static_cast<double>(Max(rep, 1)));
  CrossCheck(rep, {}, AllSpecs(1));
}

TEST(GroupByAggregate, EmptyRelationYieldsNoGroups) {
  FRep rep{PathFTree({0, 1}, 0)};
  GroupedTable t = Factorised(rep, AttrSet::Of({0}), AllSpecs(1));
  EXPECT_EQ(t.num_rows, 0u);
  EXPECT_EQ(GroupByAggregate(rep, AttrSet::Of({0}), AllSpecs(1)).NumGroups(),
            0u);
}

TEST(GroupByAggregate, NullaryRelation) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  GroupedTable t = Factorised(rep, {}, {{AggFn::kCount, 0}});
  ASSERT_EQ(t.num_rows, 1u);
  EXPECT_EQ(t.AggAt(0, 0), 1.0);  // COUNT of <> is 1
  EXPECT_THROW(GroupByAggregate(rep, {}, {{AggFn::kSum, 0}}), FdbError);
  EXPECT_THROW(GroupByAggregate(rep, AttrSet::Of({0}), {}), FdbError);
}

TEST(GroupByAggregate, UnknownAttributesThrow) {
  Relation r = MakeRel({0}, {{1}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_THROW(GroupByAggregate(rep, AttrSet::Of({42}), {}), FdbError);
  EXPECT_THROW(GroupByAggregate(rep, {}, {{AggFn::kSum, 42}}), FdbError);
}

TEST(GroupByAggregate, SharedSubtreesCollapseOnce) {
  // Hand-built rep where both A-entries share one B-union (a DAG, as a
  // deserialised rep or a Swap's output may be); the collapse must solve
  // it once and the grouped rep must still match the enumeration
  // baseline.
  FTree t = PathFTree({0, 1}, 0);
  const int a_node = t.FindAttr(0), b_node = t.FindAttr(1);
  FRep rep{t};
  UnionBuilder bb = rep.StartUnion(b_node);
  bb.AddValue(10);
  bb.AddValue(20);
  uint32_t bid = bb.Finish();
  UnionBuilder ba = rep.StartUnion(a_node);
  ba.AddValue(1);
  ba.AddChild(bid);
  ba.AddValue(2);
  ba.AddChild(bid);  // shared
  uint32_t aid = ba.Finish();
  rep.roots().push_back(aid);
  rep.MarkNonEmpty();
  rep.Validate();

  GroupedRep g = GroupByAggregate(rep, AttrSet::Of({0}), AllSpecs(1));
  ExpectSameTable(Factorised(rep, AttrSet::Of({0}), AllSpecs(1)),
                  Reference(rep, AttrSet::Of({0}), AllSpecs(1)));
  EXPECT_EQ(g.NumGroups(), 2u);
  // Grouping by the shared node forces a swap over the shared subtree.
  CrossCheck(rep, AttrSet::Of({1}), AllSpecs(0));
}

TEST(GroupByAggregate, GroceryJoin) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  AttrId disp = db->Attr("dispatcher"), oid = db->Attr("oid");
  AttrId item = db->Attr("o_item"), sitem = db->Attr("s_item");
  CrossCheck(res.rep, AttrSet::Of({disp}), AllSpecs(oid));
  CrossCheck(res.rep, AttrSet::Of({oid}), AllSpecs(disp));
  // Grouping by one attribute of a merged class {o_item, s_item}.
  CrossCheck(res.rep, AttrSet::Of({item}), AllSpecs(oid));
  CrossCheck(res.rep, AttrSet::Of({sitem, disp}), AllSpecs(oid));
}

TEST(GroupByAggregate, PerGroupCountOverflowThrows) {
  // 9-way product of 300-value relations: 300^8 > 2^64 tuples per group.
  Relation r({0});
  for (Value v = 1; v <= 300; ++v) r.AddTuple({v});
  FRep rep = GroundRelation(r, 0);
  for (AttrId a = 1; a < 9; ++a) {
    Relation s({a});
    for (Value v = 1; v <= 300; ++v) s.AddTuple({v});
    rep = Product(rep, GroundRelation(s, static_cast<int>(a)));
  }
  EXPECT_THROW(GroupByAggregate(rep, AttrSet::Of({0}), {{AggFn::kCount, 0}}),
               FdbError);
}

TEST(GroupByAggregate, CancelledContextStopsMaterialize) {
  // A cancelled ExecContext in scope stops the grouped materialisation at
  // its first probe, sequential or parallel, instead of returning groups.
  Relation r({0, 1});
  for (Value a = 0; a < 400; ++a) r.AddTuple({a, a % 7});
  const GroupedRep g =
      GroupByAggregate(GroundRelation(r, 0), AttrSet::Of({0}), AllSpecs(1));
  ASSERT_EQ(g.NumGroups(), 400u);
  ExecContext ctx;
  ctx.Cancel();
  ExecContext::Scope scope(&ctx);
  for (int threads : {1, 2}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    EXPECT_THROW(g.Materialize(opts), FdbCancelled) << threads;
  }
}

TEST(GroupByAggregate, EngineExecuteAggregateSql) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  AggregateResult res = engine.ExecuteAggregate(
      "SELECT dispatcher, COUNT(*), SUM(oid), MIN(oid), MAX(oid), AVG(oid) "
      "FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location "
      "GROUP BY dispatcher");
  ASSERT_EQ(res.table.specs.size(), 5u);

  FdbResult base = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  GroupedTable want =
      Reference(base.rep, AttrSet::Of({db->Attr("dispatcher")}),
                res.table.specs);
  ExpectSameTable(res.table, want);
  EXPECT_EQ(res.grouped.NumGroups(), want.num_rows);

  // Execute() dispatches aggregate queries and carries the table along.
  FdbResult via_execute = engine.Execute(
      "SELECT dispatcher, COUNT(*) FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location "
      "GROUP BY dispatcher");
  ASSERT_TRUE(via_execute.aggregate.has_value());
  EXPECT_EQ(via_execute.aggregate->num_rows, want.num_rows);

  // GROUP BY without aggregates computes the distinct groups.
  AggregateResult distinct = engine.ExecuteAggregate(
      "SELECT dispatcher FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location "
      "GROUP BY dispatcher");
  EXPECT_EQ(distinct.table.num_rows, want.num_rows);
  EXPECT_TRUE(distinct.table.specs.empty());

  // Plain SELECT attribute outside GROUP BY is rejected.
  EXPECT_THROW(engine.ExecuteAggregate(
                   "SELECT oid, COUNT(*) FROM Orders, Store, Disp "
                   "WHERE o_item = s_item AND s_location = d_location "
                   "GROUP BY dispatcher"),
               FdbError);

  // Aggregating a dictionary-encoded string attribute would silently
  // aggregate intern codes; AnalyzeQuery rejects it (COUNT(*) and string
  // GROUP BY keys stay fine).
  EXPECT_THROW(engine.ExecuteAggregate(
                   "SELECT SUM(o_item) FROM Orders GROUP BY oid"),
               FdbError);
  EXPECT_THROW(engine.ExecuteAggregate("SELECT MIN(dispatcher) FROM Disp"),
               FdbError);
}

TEST(GroupByAggregate, MatchesRdbHashBaselineOnSql) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  Query q = engine.Parse(
      "SELECT dispatcher, COUNT(*), SUM(oid) FROM Orders, Store, Disp "
      "WHERE o_item = s_item AND s_location = d_location "
      "GROUP BY dispatcher");
  AggregateResult fact = engine.ExecuteAggregate(q);

  RdbResult flat = engine.ExecuteRdb(q.SpjCore());
  ExpectSameTable(fact.table, HashGroupBy(flat.relation, q.group_by,
                                          q.aggregates));
}

// Property test: randomized workloads, every attribute as a grouping key,
// plus post-operator reps (further equality selections on the factorised
// result).
class GroupAggregateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupAggregateProperty, MatchesEnumerateThenHash) {
  WorkloadSpec spec;
  spec.num_rels = 3;
  spec.num_attrs = 7;
  spec.tuples_per_rel = 30;
  spec.domain = 6;
  spec.num_equalities = 2;
  spec.seed = GetParam();
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  if (rep.empty()) GTEST_SKIP();

  std::vector<AttrId> attrs = info.all_attrs.ToVector();
  AttrId agg_attr = attrs.back();
  for (AttrId a : attrs) {
    CrossCheck(rep, AttrSet::Of({a}), AllSpecs(agg_attr));
  }
  // Two-attribute keys across relations, and a whole equivalence class.
  CrossCheck(rep, AttrSet::Of({attrs.front(), attrs.back()}),
             AllSpecs(attrs.front()));
  CrossCheck(rep, info.classes.front(), AllSpecs(agg_attr));

  // Post-operator rep: apply one more equality selection factorised.
  Rng rng(spec.seed * 31 + 7);
  auto extra = DrawExtraEqualities(info.classes, 1, rng);
  if (!extra.empty()) {
    EdgeCoverSolver s2;
    FPlanSearchResult plan =
        FindOptimalFPlan(rep.tree(), extra, s2, FPlanSearchOptions{});
    FRep post = ExecutePlan(rep, plan.plan);
    if (!post.empty()) {
      CrossCheck(post, AttrSet::Of({attrs.front()}), AllSpecs(agg_attr));
      CrossCheck(post, AttrSet::Of({attrs.back()}), AllSpecs(attrs.front()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupAggregateProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fdb
