// Edge cases and composed-operator sequences that the main operator tests
// do not cover: forests with several roots, cascaded emptiness, repeated
// selections on merged classes, operator chains, and failure injection.
#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/fplan.h"
#include "core/ground.h"
#include "core/ops.h"
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

TEST(OpsEdge, ProductOfThreeForests) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}});
  Relation u = MakeRel({2}, {{7}, {8}, {9}});
  FRep p = Product(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                   GroundRelation(u, 2));
  p.Validate();
  EXPECT_EQ(p.tree().roots().size(), 3u);
  EXPECT_EQ(p.CountTuples(), 6.0);
  EXPECT_EQ(p.NumSingletons(), 6u);
}

TEST(OpsEdge, SwapRootWithinForest) {
  // Swap inside one tree of a multi-root forest; the other root must be
  // untouched.
  Relation r = MakeRel({0, 1}, {{1, 4}, {2, 5}});
  Relation s = MakeRel({2}, {{9}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep sw = Swap(p, 0, 1);
  sw.Validate();
  EXPECT_EQ(sw.tree().roots().size(), 2u);
  Relation joined({0, 1, 2});
  joined.AddTuple({1, 4, 9});
  joined.AddTuple({2, 5, 9});
  EXPECT_TRUE(SameRelation(sw, joined));
}

TEST(OpsEdge, MergeCascadeEmptiesDeepBranch) {
  // Sibling merge under a grouping node where only one group survives, and
  // the survivor's other branches must be preserved intact.
  Relation r = MakeRel({0, 1, 2}, {{1, 3, 10}, {2, 4, 20}});   // A,B,X
  Relation s = MakeRel({3, 4}, {{1, 3}, {2, 5}});              // A',C
  FTree t;
  AttrSet ca = AttrSet::Of({0, 3});
  int na = t.NewNode(ca, ca, RelSet::Of({0, 1}), RelSet::Of({0, 1}));
  int nb = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nx = t.NewNode(AttrSet::Of({2}), AttrSet::Of({2}), RelSet::Of({0}),
                     RelSet::Of({0}));
  int nc = t.NewNode(AttrSet::Of({4}), AttrSet::Of({4}), RelSet::Of({1}),
                     RelSet::Of({1}));
  t.AttachRoot(na);
  t.AttachChild(na, nb);
  t.AttachChild(nb, nx);
  t.AttachChild(na, nc);
  FRep rep = GroundQuery(t, {&r, &s});
  // Selection B = C: A=1 has B=3,C=3 (keep); A=2 has B=4,C=5 (dies).
  FRep merged = Merge(rep, 1, 4);
  merged.Validate();
  EXPECT_EQ(merged.CountTuples(), 1.0);
  const std::vector<std::vector<Value>> tuples =
      testing_util::KernelTuples(merged, /*visible_only=*/false);
  ASSERT_EQ(tuples.size(), 1u);
  ASSERT_EQ(merged.tree().AllAttrs().ToVector(),
            (std::vector<AttrId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(tuples[0][2], 10);  // X of the surviving group intact
}

TEST(OpsEdge, AbsorbThenAbsorbOnSamePath) {
  // R(A,B,C): enforce A=B then A=C by two absorbs; equals the diagonal.
  Relation r = MakeRel({0, 1, 2}, {{1, 1, 1}, {1, 1, 2}, {2, 2, 2}, {3, 2, 3}});
  FRep rep = GroundRelation(r, 0);
  FRep once = Absorb(rep, 0, 1);
  FRep twice = Absorb(once, 0, 2);
  twice.Validate();
  EXPECT_EQ(twice.CountTuples(), 2.0);  // (1,1,1) and (2,2,2)
  int n = twice.tree().FindAttr(0);
  EXPECT_EQ(twice.tree().node(n).attrs, AttrSet::Of({0, 1, 2}));
}

TEST(OpsEdge, SelectOnMergedClassFiltersAllAttrs) {
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1}, {{2}, {3}, {4}});
  FRep joined = Merge(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                      0, 1);
  // The class {0,1} holds {2,3}; select on attr 1 must constrain attr 0.
  FRep sel = SelectConst(joined, 1, CmpOp::kGt, 2);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), 1.0);
  EXPECT_EQ(Min(sel, 0), 3);
}

TEST(OpsEdge, SelectConstEqualityOnRootOfForest) {
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1}, {{5}, {6}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep sel = SelectConst(p, 0, CmpOp::kEq, 2);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), 2.0);
  int n = sel.tree().FindAttr(0);
  EXPECT_TRUE(sel.tree().node(n).constant);
}

TEST(OpsEdge, ProjectAfterSwapKeepsSemantics) {
  Relation r = MakeRel({0, 1, 2}, {{1, 4, 7}, {1, 5, 8}, {2, 4, 9}});
  FRep rep = GroundRelation(r, 0);
  FRep sw = Swap(rep, 1, 2);       // regroup C above B
  FRep proj = Project(sw, AttrSet::Of({0, 2}));
  proj.Validate();
  Relation expect({0, 2});
  expect.AddTuple({1, 7});
  expect.AddTuple({1, 8});
  expect.AddTuple({2, 9});
  EXPECT_TRUE(SameRelation(proj, expect));
}

TEST(OpsEdge, NormalizeAfterProjectSplitsIndependentParts) {
  // R(A,B) x S(C): project away nothing; then project away B — A stays a
  // separate root from C.
  Relation r = MakeRel({0, 1}, {{1, 5}, {2, 6}});
  Relation s = MakeRel({2}, {{7}});
  FRep p = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep proj = Project(p, AttrSet::Of({0, 2}));
  proj.Validate();
  EXPECT_EQ(proj.tree().roots().size(), 2u);
  EXPECT_TRUE(proj.tree().IsNormalized());
}

TEST(OpsEdge, OperatorsOnEmptyRepresentations) {
  FRep empty{PathFTree({0, 1}, 0)};
  EXPECT_TRUE(Swap(empty, 0, 1).empty());
  EXPECT_TRUE(Absorb(empty, 0, 1).empty());
  EXPECT_TRUE(SelectConst(empty, 0, CmpOp::kEq, 3).empty());
  EXPECT_TRUE(Project(empty, AttrSet::Of({0})).empty());
  EXPECT_TRUE(Normalize(empty).empty());
}

TEST(OpsEdge, PreconditionViolationsThrow) {
  Relation r = MakeRel({0, 1}, {{1, 2}});
  FRep rep = GroundRelation(r, 0);
  EXPECT_THROW(Swap(rep, 1, 0), FdbError);   // 0 is the parent, not child
  EXPECT_THROW(Swap(rep, 0, 42), FdbError);  // unknown attribute
  EXPECT_THROW(Merge(rep, 0, 1), FdbError);  // parent/child, not siblings
  EXPECT_THROW(SelectConst(rep, 42, CmpOp::kEq, 1), FdbError);
  EXPECT_THROW(PushUp(rep, 0), FdbError);    // root cannot be pushed up
}

TEST(OpsEdge, LongOperatorChainPreservesRelation) {
  // A realistic plan: ground, swap, merge, select, swap back, project.
  Relation r = MakeRel({0, 1}, {{1, 5}, {1, 6}, {2, 5}, {3, 7}});
  Relation s = MakeRel({2, 3}, {{5, 100}, {6, 200}, {7, 100}});
  FRep cur = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  cur = Swap(cur, 0, 1);           // B above A
  cur = Merge(cur, 1, 2);          // B = C
  cur = SelectConst(cur, 3, CmpOp::kEq, 100);
  cur = Project(cur, AttrSet::Of({0, 1}));
  cur.Validate();

  // Reference by brute force.
  Relation expect({0, 1});
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (r.At(i, 1) == s.At(j, 0) && s.At(j, 1) == 100) {
        expect.AddTuple({r.At(i, 0), r.At(i, 1)});
      }
    }
  }
  expect.SortLex();
  EXPECT_TRUE(SameRelation(cur, expect));
}

TEST(OpsEdge, MergeIdenticalSubtreesDoesNotShareState) {
  // After merging, mutating semantics via a further selection on one
  // branch must not leak into sibling copies (operators deep-copy).
  Relation r = MakeRel({0}, {{1}, {2}});
  Relation s = MakeRel({1, 2}, {{1, 5}, {2, 5}});
  FRep joined = Merge(Product(GroundRelation(r, 0), GroundRelation(s, 1)),
                      0, 1);
  FRep sel = SelectConst(joined, 2, CmpOp::kEq, 5);
  sel.Validate();
  EXPECT_EQ(sel.CountTuples(), joined.CountTuples());
}

}  // namespace
}  // namespace fdb
