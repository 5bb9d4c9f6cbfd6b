// Deep invariant validation (core/validate.h): real representations,
// trees, grouped aggregates and morsel plans must pass; hand-corrupted
// fixtures — built through the public FRep/FTree API, no friend access —
// must each be rejected with a diagnostic naming the broken invariant.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/parallel_enumerate.h"
#include "core/validate.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing_util::GroceryQ1;
using testing_util::MakeGroceryDb;

// Runs `f`, returns the FdbError message it throws ("" when it doesn't).
template <typename F>
std::string ErrorOf(F&& f) {
  try {
    f();
  } catch (const FdbError& e) {
    return e.what();
  }
  return {};
}

void ExpectRejected(const std::string& msg, const std::string& needle) {
  EXPECT_FALSE(msg.empty()) << "validator accepted a corrupted fixture";
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic \"" << msg << "\" does not mention \"" << needle << "\"";
}

// Single-node f-tree (one root, attribute 0, relation 0).
FTree LeafTree() {
  FTree t;
  AttrSet cls = AttrSet::Of({0});
  RelSet rs = RelSet::Of({0});
  int n = t.NewNode(cls, cls, rs, rs);
  t.AttachRoot(n);
  return t;
}

// Two-node chain: root (attribute 0) over a leaf (attribute 1).
FTree ChainTree() {
  FTree t;
  RelSet rs = RelSet::Of({0});
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), rs, rs);
  int m = t.NewNode(AttrSet::Of({1}), AttrSet::Of({1}), rs, rs);
  t.AttachRoot(n);
  t.AttachChild(n, m);
  return t;
}

// Leaf rep with the given root-union values.
FRep LeafRep(std::vector<Value> values) {
  FRep rep(LeafTree());
  rep.MarkNonEmpty();
  UnionBuilder b = rep.StartUnion(rep.tree().roots()[0]);
  for (Value v : values) b.AddValue(v);
  rep.roots().push_back(b.Finish());
  return rep;
}

// ---- positive: real structures pass -------------------------------------

TEST(ValidateDeepTest, AcceptsRealQueryResult) {
  auto db = MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(GroceryQ1(*db));
  ASSERT_FALSE(res.rep.empty());
  EXPECT_NO_THROW(ValidateDeep(res.rep));
  EXPECT_NO_THROW(ValidateFTree(res.rep.tree()));
}

TEST(ValidateDeepTest, AcceptsEmptyAndNullaryReps) {
  EXPECT_NO_THROW(ValidateDeep(FRep(LeafTree())));  // empty relation
  FRep nullary{FTree{}};                            // the relation <>
  nullary.MarkNonEmpty();
  EXPECT_NO_THROW(ValidateDeep(nullary));
}

TEST(ValidateMorselPlanTest, AcceptsPlannerOutput) {
  auto db = MakeGroceryDb();
  Engine engine(db.get());
  FRep rep = engine.EvaluateFlat(GroceryQ1(*db)).rep;
  for (bool visible_only : {false, true}) {
    for (double target : {1.0, 4.0, 1e18}) {
      MorselPlan plan = PlanMorsels(rep, visible_only, target);
      EXPECT_NO_THROW(ValidateMorselPlan(rep, visible_only, plan))
          << "visible_only=" << visible_only << " target=" << target;
    }
  }
}

TEST(ValidateGroupedRepTest, AcceptsGroupByResult) {
  auto db = MakeGroceryDb();
  Engine engine(db.get());
  FRep rep = engine.EvaluateFlat(GroceryQ1(*db)).rep;
  AttrSet by = AttrSet::Of({db->Attr("dispatcher")});
  GroupedRep g = GroupByAggregate(
      rep, by, {AggSpec{AggFn::kCount, 0}, AggSpec{AggFn::kSum, db->Attr("oid")}});
  EXPECT_NO_THROW(ValidateGroupedRep(g));
}

// ---- corrupted f-representations ----------------------------------------

TEST(ValidateDeepTest, RejectsOutOfRangeChildId) {
  FRep rep(ChainTree());
  rep.MarkNonEmpty();
  UnionBuilder b = rep.StartUnion(rep.tree().roots()[0]);
  b.AddValue(1);
  b.AddChild(9999);  // no such union
  rep.roots().push_back(b.Finish());
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "out-of-range child");
}

TEST(ValidateDeepTest, RejectsCyclicReference) {
  FRep rep(ChainTree());
  rep.MarkNonEmpty();
  UnionBuilder b = rep.StartUnion(rep.tree().roots()[0]);
  b.AddValue(1);
  // Finish() assigns the next id, NumUnions(): a self-cycle.
  b.AddChild(static_cast<uint32_t>(rep.NumUnions()));
  rep.roots().push_back(b.Finish());
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "cyclic reference");
}

TEST(ValidateDeepTest, RejectsChildCommittedAfterItsParent) {
  // Acyclic and correctly bound, but the child's id is larger than its
  // parent's: passes over the ids rely on children coming first.
  FRep rep(ChainTree());
  rep.MarkNonEmpty();
  const int root = rep.tree().roots()[0];
  const int leaf = rep.tree().node(root).children[0];
  UnionBuilder b = rep.StartUnion(root);
  b.AddValue(1);
  b.AddChild(1);  // the id of the leaf union committed below
  rep.roots().push_back(b.Finish());
  UnionBuilder lb = rep.StartUnion(leaf);
  lb.AddValue(7);
  ASSERT_EQ(lb.Finish(), 1u);
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "does not precede");
}

TEST(ValidateDeepTest, RejectsChildSlotCountMismatch) {
  FRep rep(ChainTree());
  rep.MarkNonEmpty();
  const int root = rep.tree().roots()[0];
  const int leaf = rep.tree().node(root).children[0];
  UnionBuilder lb = rep.StartUnion(leaf);
  lb.AddValue(7);
  const uint32_t leaf_id = lb.Finish();
  UnionBuilder b = rep.StartUnion(root);
  b.AddValue(1);
  b.AddValue(2);
  b.AddChild(leaf_id);  // one child slot for two entries
  rep.roots().push_back(b.Finish());
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "child slots");
}

TEST(ValidateDeepTest, RejectsUnsortedValues) {
  FRep rep = LeafRep({2, 1});
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }),
                 "not strictly increasing");
}

TEST(ValidateDeepTest, RejectsEmptyUnion) {
  FRep rep = LeafRep({});
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "empty");
}

TEST(ValidateDeepTest, RejectsMultiEntryConstantUnion) {
  FRep rep = LeafRep({1, 2});
  rep.tree().node(rep.tree().roots()[0]).constant = true;
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }), "constant");
}

TEST(ValidateDeepTest, RejectsEmptyRepWithLeftoverUnions) {
  FRep rep(LeafTree());  // stays marked empty
  UnionBuilder b = rep.StartUnion(rep.tree().roots()[0]);
  b.AddValue(1);
  rep.roots().push_back(b.Finish());
  ExpectRejected(ErrorOf([&] { ValidateDeep(rep); }),
                 "empty representation");
}

// ---- corrupted f-trees ---------------------------------------------------

// NewNode enforces both invariants at construction, so the corrupted
// states are reached the way a buggy operator would: by mutating an
// existing node through the non-const accessor.

TEST(ValidateFTreeTest, RejectsVisibleOutsideClass) {
  FTree t = LeafTree();
  t.node(t.roots()[0]).visible = AttrSet::Of({1});  // class is {0}
  ExpectRejected(ErrorOf([&] { ValidateFTree(t); }),
                 "visible attributes outside its class");
}

TEST(ValidateFTreeTest, RejectsCoverRelsMissingFromDepRels) {
  FTree t = LeafTree();
  t.node(t.roots()[0]).dep_rels = RelSet{};  // cover_rels is {0}
  ExpectRejected(ErrorOf([&] { ValidateFTree(t); }),
                 "missing from dep_rels");
}

// ---- corrupted morsel plans ----------------------------------------------

MorselPlan PlanOf(std::vector<Morsel> morsels, double total) {
  MorselPlan p;
  p.morsels = std::move(morsels);
  p.est_total = total;
  return p;
}

TEST(ValidateMorselPlanTest, RejectsOverlappingBounds) {
  FRep rep = LeafRep({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  MorselPlan plan = PlanOf({Morsel{{EntryBound{0, 6}}, 6.0},
                            Morsel{{EntryBound{4, 10}}, 6.0}},
                           10.0);
  ExpectRejected(ErrorOf([&] { ValidateMorselPlan(rep, false, plan); }),
                 "not adjacent");
}

TEST(ValidateMorselPlanTest, RejectsGapBetweenMorsels) {
  FRep rep = LeafRep({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  MorselPlan plan = PlanOf({Morsel{{EntryBound{0, 4}}, 4.0},
                            Morsel{{EntryBound{6, 10}}, 4.0}},
                           10.0);
  ExpectRejected(ErrorOf([&] { ValidateMorselPlan(rep, false, plan); }),
                 "not adjacent");
}

TEST(ValidateMorselPlanTest, RejectsStreamNotCoveredFromStart) {
  FRep rep = LeafRep({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  MorselPlan plan = PlanOf({Morsel{{EntryBound{1, 10}}, 9.0}}, 10.0);
  ExpectRejected(ErrorOf([&] { ValidateMorselPlan(rep, false, plan); }),
                 "stream start");
}

TEST(ValidateMorselPlanTest, RejectsBoundPastUnionLength) {
  FRep rep = LeafRep({1, 2, 3});
  MorselPlan plan = PlanOf({Morsel{{EntryBound{0, 4}}, 4.0}}, 3.0);
  ExpectRejected(ErrorOf([&] { ValidateMorselPlan(rep, false, plan); }),
                 "exceeds the union length");
}

TEST(ValidateMorselPlanTest, RejectsUnpinnedInnerBound) {
  FRep rep(ChainTree());
  rep.MarkNonEmpty();
  const int root = rep.tree().roots()[0];
  const int leaf = rep.tree().node(root).children[0];
  UnionBuilder l1 = rep.StartUnion(leaf);
  l1.AddValue(10);
  const uint32_t lid1 = l1.Finish();
  UnionBuilder l2 = rep.StartUnion(leaf);
  l2.AddValue(20);
  const uint32_t lid2 = l2.Finish();
  UnionBuilder b = rep.StartUnion(root);
  b.AddValue(1);
  b.AddValue(2);
  b.AddChild(lid1);
  b.AddChild(lid2);
  rep.roots().push_back(b.Finish());
  ASSERT_NO_THROW(ValidateDeep(rep));
  // An inner bound spanning two entries: the restricted frames below it
  // would not form a fixed chain.
  MorselPlan plan = PlanOf(
      {Morsel{{EntryBound{0, 2}, EntryBound{0, 1}}, 2.0}}, 2.0);
  ExpectRejected(ErrorOf([&] { ValidateMorselPlan(rep, false, plan); }),
                 "pin");
}

// ---- corrupted grouped aggregates ----------------------------------------

GroupedRep GroceryGrouped() {
  auto db = MakeGroceryDb();
  Engine engine(db.get());
  FRep rep = engine.EvaluateFlat(GroceryQ1(*db)).rep;
  return GroupByAggregate(rep, AttrSet::Of({db->Attr("dispatcher")}),
                          {AggSpec{AggFn::kCount, 0}});
}

TEST(ValidateGroupedRepTest, RejectsPayloadArityMismatch) {
  GroupedRep g = GroceryGrouped();
  ASSERT_FALSE(g.entry_count.empty());
  g.entry_count.pop_back();
  ExpectRejected(ErrorOf([&] { ValidateGroupedRep(g); }), "entry_count");
}

TEST(ValidateGroupedRepTest, RejectsZeroEntryCount) {
  GroupedRep g = GroceryGrouped();
  ASSERT_FALSE(g.entry_count.empty());
  g.entry_count[0] = 0;
  ExpectRejected(ErrorOf([&] { ValidateGroupedRep(g); }),
                 "zero collapsed tuples");
}

TEST(ValidateGroupedRepTest, RejectsZeroGlobalCount) {
  GroupedRep g = GroceryGrouped();
  g.global_count = 0;
  ExpectRejected(ErrorOf([&] { ValidateGroupedRep(g); }), "global_count");
}

}  // namespace
}  // namespace fdb
