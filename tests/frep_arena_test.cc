// Tests for the columnar arena storage behind FRep: UnionBuilder staging,
// UnionRef view stability across arena growth, empty-union handling, memory
// accounting, and serialisation round-trips through the arena.
#include <gtest/gtest.h>

#include <sstream>

#include "core/enumerate.h"
#include "core/frep.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/serialize.h"
#include "test_util.h"

namespace fdb {
namespace {

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(FRepArena, BuilderAppendOrder) {
  // A -> B over R = {(1,10),(1,20),(2,30)}: children first for one entry,
  // values in bulk for another — staging tolerates any interleaving, the
  // committed windows come out entry-aligned.
  FTree t = PathFTree({0, 1}, 0);
  FRep rep{t};

  UnionBuilder ua = rep.StartUnion(0);
  {
    UnionBuilder ub = rep.StartUnion(1);  // B-union of A=1, built nested
    ub.AddValue(10);
    ub.AddValue(20);
    ua.AddValue(1);
    ua.AddChild(ub.Finish());
  }
  {
    UnionBuilder ub = rep.StartUnion(1);  // B-union of A=2
    ub.AddValue(30);
    ua.AddChild(ub.Finish());  // child appended before the value this time
    ua.AddValue(2);
  }
  EXPECT_EQ(ua.size(), 2u);
  rep.roots().push_back(ua.Finish());
  rep.MarkNonEmpty();
  rep.Validate();

  UnionRef a = rep.u(rep.roots()[0]);
  EXPECT_EQ(a.node(), 0);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.value(0), 1);
  EXPECT_EQ(a.value(1), 2);
  ASSERT_EQ(a.num_children(), 2u);
  UnionRef b1 = rep.u(a.Child(0, 0, 1));
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1.value(0), 10);
  EXPECT_EQ(b1.value(1), 20);
  UnionRef b2 = rep.u(a.Child(1, 0, 1));
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2.value(0), 30);
  EXPECT_EQ(rep.CountTuples(), 3.0);
}

TEST(FRepArena, ViewStableAcrossArenaGrowth) {
  // Take a view of the first committed union, then grow the arena far past
  // any initial capacity; the view must keep reading the same data because
  // it re-resolves offsets through the FRep.
  FTree t;
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep{t};

  UnionBuilder first = rep.StartUnion(n);
  first.AddValue(7);
  first.AddValue(9);
  UnionRef view = rep.u(first.Finish());
  const Value* raw_before = view.values();

  for (int i = 0; i < 10000; ++i) {
    UnionBuilder filler = rep.StartUnion(n);
    filler.AddValue(i);
    filler.Finish();  // unreachable; they only grow the arena
  }
  // The raw pointer may have moved (reallocation); the view must not care.
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.value(0), 7);
  EXPECT_EQ(view.value(1), 9);
  EXPECT_EQ(view.values()[1], 9);
  (void)raw_before;
}

TEST(FRepArena, BuildersTolerateOutOfOrderFinish) {
  // Operators finish builders LIFO, but the API must not blow up (e.g. in a
  // noexcept destructor) when builders are finished FIFO or via containers.
  FTree t;
  int n = t.NewNode(AttrSet::Of({0}), AttrSet::Of({0}), RelSet::Of({0}),
                    RelSet::Of({0}));
  t.AttachRoot(n);
  FRep rep{t};

  UnionBuilder first = rep.StartUnion(n);
  UnionBuilder second = rep.StartUnion(n);
  first.AddValue(1);
  second.AddValue(2);
  uint32_t id1 = first.Finish();  // FIFO: first out before second
  uint32_t id2 = second.Finish();
  EXPECT_EQ(rep.u(id1).value(0), 1);
  EXPECT_EQ(rep.u(id2).value(0), 2);

  // And a third builder after the shuffle still stages correctly.
  UnionBuilder third = rep.StartUnion(n);
  third.AddValue(3);
  EXPECT_EQ(rep.u(third.Finish()).value(0), 3);
}

TEST(FRepArena, ValidateRejectsCommittedEmptyUnion) {
  FTree t = PathFTree({0}, 0);
  FRep rep{t};
  UnionBuilder b = rep.StartUnion(0);
  EXPECT_TRUE(b.empty());
  rep.roots().push_back(b.Finish());  // zero-length union as a root
  rep.MarkNonEmpty();
  EXPECT_THROW(rep.Validate(), FdbError);
}

TEST(FRepArena, AbandonCommitsNothing) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  const size_t unions_before = rep.NumUnions();
  const size_t values_before = rep.NumValues();

  UnionBuilder b = rep.StartUnion(0);
  b.AddValue(99);
  b.Abandon();  // staged data is dropped and no id is used

  rep.Validate();
  EXPECT_EQ(rep.NumUnions(), unions_before);
  EXPECT_EQ(rep.NumValues(), values_before);
}

TEST(FRepArena, IdsFollowCommitOrder) {
  // The parent's builder opens first, but the child commits first, so the
  // child gets the smaller id and the earlier value window.
  FRep rep{PathFTree({0, 1}, 0)};
  UnionBuilder ua = rep.StartUnion(0);
  UnionBuilder ub = rep.StartUnion(1);
  ub.AddValue(10);
  ub.AddValue(20);
  const uint32_t b = ub.Finish();
  ua.AddValue(1);
  ua.AddChild(b);
  const uint32_t a = ua.Finish();
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(rep.u(b).arena_offset(), 0u);
  EXPECT_EQ(rep.u(a).arena_offset(), 2u);
  rep.roots().push_back(a);
  rep.MarkNonEmpty();
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 2.0);
}

TEST(FRepArena, ValidateRejectsChildCommittedAfterItsParent) {
  FRep rep{PathFTree({0, 1}, 0)};
  UnionBuilder ua = rep.StartUnion(0);
  ua.AddValue(1);
  ua.AddChild(1);  // the id of the B-union committed below
  rep.roots().push_back(ua.Finish());
  UnionBuilder ub = rep.StartUnion(1);
  ub.AddValue(10);
  ASSERT_EQ(ub.Finish(), 1u);
  rep.MarkNonEmpty();
  EXPECT_THROW(rep.Validate(), FdbError);
}

TEST(FRepArena, MemoryBytesTracksArena) {
  FRep empty{PathFTree({0, 1}, 0)};
  size_t empty_bytes = empty.MemoryBytes();

  Relation r({0, 1, 2});
  for (Value v = 0; v < 500; ++v) r.AddTuple({v, v % 7, v % 11});
  FRep rep = GroundRelation(r, 0);
  // At least the reachable values must be accounted for.
  EXPECT_GE(rep.MemoryBytes(), rep.NumValues() * sizeof(Value));
  EXPECT_GT(rep.MemoryBytes(), empty_bytes);
}

TEST(FRepArena, MarkEmptyReleasesArenaCapacity) {
  Relation r({0, 1});
  for (Value v = 0; v < 1000; ++v) r.AddTuple({v, v + 1});
  FRep rep = GroundRelation(r, 0);
  ASSERT_GT(rep.MemoryBytes(), 0u);

  rep.MarkEmpty();
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.MemoryBytes(), 0u);  // shrink_to_fit semantics
  rep.Validate();
}

TEST(FRepArena, CopyDuplicatesArenas) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  FRep copy = rep;  // three buffer memcpys, no per-union allocation
  copy.Validate();
  EXPECT_TRUE(testing_util::SameRelation(copy, r));
  // Emptying the copy must not disturb the original.
  copy.MarkEmpty();
  rep.Validate();
  EXPECT_EQ(rep.CountTuples(), 3.0);
}

TEST(FRepArena, SerializeRoundTripEquality) {
  // Push the rep through an operator first so the arena contains unreachable
  // dropped-entry unions; the writer compacts ids and the reader rebuilds a
  // dense arena that represents the same relation.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {5, 9}});
  FRep rep = SelectConst(GroundRelation(r, 0), 1, CmpOp::kLe, 5);

  std::stringstream ss;
  WriteFRep(ss, rep);
  FRep back = ReadFRep(ss);
  back.Validate();

  EXPECT_EQ(back.empty(), rep.empty());
  EXPECT_EQ(back.CountTuples(), rep.CountTuples());
  EXPECT_EQ(back.NumSingletons(), rep.NumSingletons());
  Relation expect = MaterializeVisible(rep);
  EXPECT_TRUE(testing_util::SameRelation(back, expect));
}

TEST(FRepArena, OperatorsKeepArenaValid) {
  // A small end-to-end sweep: ground, product, merge, swap, select, project
  // all construct through UnionBuilder; every intermediate must validate.
  Relation r = MakeRel({0, 1}, {{10, 1}, {20, 1}, {20, 2}});
  Relation s = MakeRel({2, 3}, {{10, 5}, {20, 5}, {30, 7}});
  FRep e1 = GroundRelation(r, 0);
  FRep e2 = GroundRelation(s, 1);
  FRep prod = Product(e1, e2);
  prod.Validate();
  FRep joined = Merge(prod, 0, 2);  // a = c (two root unions)
  joined.Validate();
  FRep swapped = Swap(joined, 0, 1);
  swapped.Validate();
  FRep sel = SelectConst(joined, 3, CmpOp::kEq, 5);
  sel.Validate();
  FRep proj = Project(joined, AttrSet::Of({0, 3}));
  proj.Validate();
  EXPECT_EQ(joined.CountTuples(), 3.0);
}

}  // namespace
}  // namespace fdb
