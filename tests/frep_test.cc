#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "core/frep.h"
#include "core/ground.h"
#include "core/print.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::KernelTuples;

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(FRep, EmptyRepresentation) {
  FRep rep{PathFTree({0, 1}, 0)};
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.NumSingletons(), 0u);
  EXPECT_EQ(rep.CountTuples(), 0.0);
  rep.Validate();
}

TEST(FRep, Example3Factorisation) {
  // R = {(1,1),(1,2),(2,2)} over the f-tree A -> B:
  // <A:1> x (<B:1> u <B:2>) u <A:2> x <B:2>  — 5 singletons.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  rep.Validate();
  EXPECT_FALSE(rep.empty());
  EXPECT_EQ(rep.NumSingletons(), 5u);
  EXPECT_EQ(rep.CountTuples(), 3.0);
  EXPECT_EQ(rep.NumValues(), 5u);
}

TEST(FRep, SingletonCountsClassAttributes) {
  // A node labelled by a 2-attribute class counts each value twice.
  Relation r = MakeRel({0, 1}, {{1, 1}, {2, 2}});
  FTree t;
  AttrSet cls = AttrSet::Of({0, 1});
  int n = t.NewNode(cls, cls, RelSet::Of({0}), RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep = GroundQuery(t, {&r});
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 2.0);
  EXPECT_EQ(rep.NumValues(), 2u);
  EXPECT_EQ(rep.NumSingletons(), 4u);  // 2 values x 2 attributes
}

TEST(FRep, EnumerationMatchesRelation) {
  Relation r = MakeRel({3, 7}, {{1, 1}, {1, 2}, {2, 2}, {5, 9}});
  r.SortLex();
  FRep rep = GroundRelation(r, 0);
  EXPECT_TRUE(testing_util::SameRelation(rep, r));
}

TEST(FRep, EnumerationOrderAndDelay) {
  Relation r = MakeRel({0, 1}, {{2, 5}, {1, 7}, {1, 4}});
  FRep rep = GroundRelation(r, 0);
  const std::vector<std::vector<Value>> got = KernelTuples(rep, false);
  // Lexicographic by the path f-tree order.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::vector<Value>{1, 4}));
  EXPECT_EQ(got[1], (std::vector<Value>{1, 7}));
  EXPECT_EQ(got[2], (std::vector<Value>{2, 5}));
}

TEST(FRep, EnumeratorOnEmptyRep) {
  FRep rep{PathFTree({0}, 0)};
  EXPECT_TRUE(KernelTuples(rep, false).empty());
}

TEST(FRep, NullaryRelation) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 1.0);
  // The single nullary tuple.
  EXPECT_EQ(KernelTuples(rep, false),
            (std::vector<std::vector<Value>>{{}}));
}

// A deferred-projection f-tree: the node of `invisible` stays in the tree
// but contributes nothing to the output schema.
FTree DeferredProjectionTree(AttrId visible, AttrId invisible, bool inv_root) {
  FTree t;
  int v = t.NewNode(AttrSet::Of({visible}), AttrSet::Of({visible}),
                    RelSet::Of({0}), RelSet::Of({0}));
  int i = t.NewNode(AttrSet::Of({invisible}), {}, RelSet::Of({0}),
                    RelSet::Of({0}));
  if (inv_root) {
    t.AttachRoot(i);
    t.AttachChild(i, v);
  } else {
    t.AttachRoot(v);
    t.AttachChild(v, i);
  }
  return t;
}

TEST(FRep, VisibleOnlyEnumerationSkipsInvisibleSubtrees) {
  // A (visible) -> B (invisible): full enumeration yields all 3 tuples,
  // so projecting to A repeats the value 1; visible-only enumeration
  // collapses positions that differ only below the invisible leaf.
  Relation r = MakeRel({0, 1}, {{1, 10}, {1, 20}, {2, 30}});
  FRep rep = GroundQuery(DeferredProjectionTree(0, 1, false), {&r});
  rep.Validate();

  // Distinct tuples over all attributes.
  EXPECT_EQ(KernelTuples(rep, /*visible_only=*/false).size(), 3u);

  // No duplicate visible tuple.
  EXPECT_EQ(KernelTuples(rep, /*visible_only=*/true),
            (std::vector<std::vector<Value>>{{1}, {2}}));

  Relation m = MaterializeVisible(rep);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FRep, VisibleOnlyEnumerationKeepsVisibleDescendants) {
  // A (invisible) -> B (visible): the invisible node has a visible
  // descendant, so its frames must stay in the odometer; duplicates that
  // are a property of the data (both A-values lead to B=10) remain in the
  // kernel stream; MaterializeVisible sinks A below B first
  // (PlanOutputOrder), so they never reach its output.
  Relation r = MakeRel({0, 1}, {{1, 10}, {2, 10}, {2, 20}});
  FRep rep = GroundQuery(DeferredProjectionTree(1, 0, true), {&r});
  rep.Validate();

  // The data duplicate B=10 still streams twice.
  EXPECT_EQ(KernelTuples(rep, /*visible_only=*/true).size(), 3u);

  Relation m = MaterializeVisible(rep);
  EXPECT_EQ(m.size(), 2u);  // {10, 20}
}

TEST(FRep, VisibleOnlyEnumerationOfFullyInvisibleRep) {
  // Everything projected away (deferred): exactly one empty visible tuple.
  Relation r = MakeRel({0, 1}, {{1, 10}, {2, 20}});
  FTree t = DeferredProjectionTree(0, 1, false);
  t.node(t.FindAttr(0)).visible = {};
  FRep rep = GroundQuery(t, {&r});

  EXPECT_EQ(KernelTuples(rep, /*visible_only=*/true),
            (std::vector<std::vector<Value>>{{}}));
  EXPECT_EQ(MaterializeVisible(rep).size(), 1u);
}

TEST(FRep, ValidateRejectsUnsortedUnion) {
  FTree t = PathFTree({0}, 0);
  FRep rep{t};
  UnionBuilder b = rep.StartUnion(0);
  b.AddValue(3);
  b.AddValue(1);  // not ascending
  rep.roots().push_back(b.Finish());
  rep.MarkNonEmpty();
  EXPECT_THROW(rep.Validate(), FdbError);
}

TEST(FRep, ValidateRejectsChildCountMismatch) {
  FTree t = PathFTree({0, 1}, 0);
  FRep rep{t};
  UnionBuilder b = rep.StartUnion(0);
  b.AddValue(1);  // missing the child slot for node 1
  rep.roots().push_back(b.Finish());
  rep.MarkNonEmpty();
  EXPECT_THROW(rep.Validate(), FdbError);
}

TEST(FRep, CountTuplesMultipliesForest) {
  // Two independent root unions of 2 and 3 values: 6 tuples.
  Relation r1 = MakeRel({0}, {{1}, {2}});
  Relation r2 = MakeRel({1}, {{1}, {2}, {3}});
  FTree t;
  int n0 = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int n1 = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(n0);
  t.AttachRoot(n1);
  FRep rep = GroundQuery(t, {&r1, &r2});
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 6.0);
  EXPECT_EQ(rep.NumSingletons(), 5u);  // exponential gap in miniature
}

TEST(FRep, UnreachableOverflowingUnionDoesNotSaturateCount) {
  // A root over five leaf children. An unreachable root-node union over
  // five leaves of 2^13 values each represents 2^65 tuples; the reachable
  // root represents 2 x 2^5. The count DP must skip the unreachable one.
  FTree t;
  RelSet rs = RelSet::Of({0});
  const int root = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), rs, rs);
  t.AttachRoot(root);
  for (AttrId a = 1; a <= 5; ++a) {
    t.AttachChild(root, t.NewNode(AttrSet::Of({a}), AttrSet::Of({a}), rs, rs));
  }
  FRep rep{t};
  auto leaves = [&](Value n) {
    std::vector<uint32_t> ids;
    for (int leaf : rep.tree().node(root).children) {
      UnionBuilder b = rep.StartUnion(leaf);
      for (Value v = 0; v < n; ++v) b.AddValue(v);
      ids.push_back(b.Finish());
    }
    return ids;
  };
  const std::vector<uint32_t> big = leaves(Value{1} << 13);
  UnionBuilder garbage = rep.StartUnion(root);
  garbage.AddValue(1);
  for (uint32_t c : big) garbage.AddChild(c);
  garbage.Finish();  // never linked from the roots
  const std::vector<uint32_t> small = leaves(2);
  UnionBuilder b = rep.StartUnion(root);
  for (Value v : {1, 2}) {
    b.AddValue(v);
    for (uint32_t c : small) b.AddChild(c);
  }
  rep.roots().push_back(b.Finish());
  rep.MarkNonEmpty();
  rep.Validate();

  EXPECT_EQ(rep.CountTuplesExact(), 64u);
  bool exact = false;
  EXPECT_EQ(rep.CountTuples(&exact), 64.0);
  EXPECT_TRUE(exact);
  EXPECT_EQ(rep.NumValues(), 12u);
}

TEST(Print, PaperNotation) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  PrintOptions opts;
  opts.unicode = false;
  EXPECT_EQ(ToExpressionString(rep, opts),
            "<1> x (<1> u <2>) u <2> x <2>");
}

TEST(Print, EmptyAndNullary) {
  FRep empty{PathFTree({0}, 0)};
  PrintOptions opts;
  opts.unicode = false;
  EXPECT_EQ(ToExpressionString(empty, opts), "{}");
  FRep nullary{FTree{}};
  nullary.MarkNonEmpty();
  EXPECT_EQ(ToExpressionString(nullary, opts), "<>");
}

TEST(Print, TruncatesLongOutput) {
  Relation r({0});
  for (Value v = 0; v < 100; ++v) r.AddTuple({v});
  FRep rep = GroundRelation(r, 0);
  PrintOptions opts;
  opts.unicode = false;
  opts.max_chars = 20;
  std::string s = ToExpressionString(rep, opts);
  EXPECT_LE(s.size(), 24u);  // 20 + "..."
}

TEST(Print, DictionaryDecoding) {
  auto db = testing_util::MakeGroceryDb();
  FRep rep = GroundRelation(
      db->relation(static_cast<RelId>(db->catalog().FindRelation("Produce"))),
      0);
  PrintOptions opts;
  opts.unicode = false;
  opts.catalog = &db->catalog();
  opts.dict = &db->dict();
  std::string s = ToExpressionString(rep, opts);
  EXPECT_NE(s.find("Guney"), std::string::npos);
  EXPECT_NE(s.find("Milk"), std::string::npos);
}

}  // namespace
}  // namespace fdb
