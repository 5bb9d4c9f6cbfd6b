#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/ground.h"
#include "core/ops.h"
#include "core/serialize.h"
#include "storage/generator.h"
#include "test_util.h"

namespace fdb {
namespace {

FRep RoundTrip(const FRep& rep) {
  std::ostringstream out;
  WriteFRep(out, rep);
  std::istringstream in(out.str());
  return ReadFRep(in);
}

void ExpectSame(const FRep& a, const FRep& b) {
  EXPECT_EQ(a.empty(), b.empty());
  EXPECT_EQ(a.tree().CanonicalKey(), b.tree().CanonicalKey());
  EXPECT_EQ(a.NumSingletons(), b.NumSingletons());
  EXPECT_EQ(a.CountTuples(), b.CountTuples());
  if (!a.empty()) {
    EXPECT_TRUE(MaterializeVisible(a) == MaterializeVisible(b));
  }
}

Relation MakeRel(std::vector<AttrId> schema,
                 std::vector<std::vector<Value>> rows) {
  Relation r(std::move(schema));
  for (auto& row : rows) r.AddTuple(row);
  return r;
}

TEST(Serialize, RoundTripSimple) {
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  FRep rep = GroundRelation(r, 0);
  ExpectSame(rep, RoundTrip(rep));
}

TEST(Serialize, RoundTripEmpty) {
  FRep rep{PathFTree({0, 1}, 0)};
  FRep back = RoundTrip(rep);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.tree().CanonicalKey(), rep.tree().CanonicalKey());
}

TEST(Serialize, RoundTripNullary) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  FRep back = RoundTrip(rep);
  EXPECT_FALSE(back.empty());
  EXPECT_EQ(back.CountTuples(), 1.0);
}

TEST(Serialize, RoundTripAfterOperators) {
  // A representation with dead tree nodes (merge kills one) and a constant
  // node must survive the round trip.
  Relation r = MakeRel({0}, {{1}, {2}, {3}});
  Relation s = MakeRel({1, 2}, {{1, 7}, {2, 8}, {3, 9}});
  FRep prod = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  FRep joined = Merge(prod, 0, 1);
  FRep selected = SelectConst(joined, 2, CmpOp::kNe, 8);
  ExpectSame(selected, RoundTrip(selected));
}

TEST(Serialize, RoundTripGrocery) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  ExpectSame(res.rep, RoundTrip(res.rep));
}

TEST(Serialize, RoundTripRandomWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    WorkloadSpec spec;
    spec.num_rels = 3;
    spec.num_attrs = 7;
    spec.tuples_per_rel = 30;
    spec.domain = 6;
    spec.num_equalities = 2;
    spec.seed = seed;
    GeneratedWorkload w = GenerateWorkload(spec);
    std::vector<const Relation*> rels;
    for (const Relation& rel : w.relations) rels.push_back(&rel);
    QueryInfo info = AnalyzeQuery(w.catalog, w.query);
    EdgeCoverSolver solver;
    FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
    ExpectSame(rep, RoundTrip(rep));
  }
}

TEST(Serialize, FileRoundTrip) {
  Relation r = MakeRel({0, 1}, {{5, 6}});
  FRep rep = GroundRelation(r, 0);
  const std::string path = "/tmp/fdb_serialize_test.frep";
  WriteFRepFile(path, rep);
  ExpectSame(rep, ReadFRepFile(path));
}

TEST(Serialize, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadFRep(in);
  };
  EXPECT_THROW(parse(""), FdbError);
  EXPECT_THROW(parse("bogus header\nend\n"), FdbError);
  EXPECT_THROW(parse("fdb-frep 1\nnonempty\n"), FdbError);  // missing end
  EXPECT_THROW(parse("fdb-frep 1\nwhatisthis 3\nend\n"), FdbError);
  // Dangling child reference.
  EXPECT_THROW(
      parse("fdb-frep 1\n"
            "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n"
            "troot 0\nnonempty\n"
            "union 0 node=0 values=1 children=5\n"
            "uroot 0\nend\n"),
      FdbError);
  // Inconsistent representation (child count mismatch) must fail Validate.
  EXPECT_THROW(
      parse("fdb-frep 1\n"
            "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n"
            "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 parent=0\n"
            "troot 0\nnonempty\n"
            "union 0 node=0 values=1 children=\n"
            "uroot 0\nend\n"),
      FdbError);
}

// Fuzz-found crash classes (fuzz/corpus/frep_read/): each of these inputs
// used to reach an abort, undefined behaviour or an unbounded allocation
// instead of the header's promised FdbError.
TEST(Serialize, RejectsFuzzFoundCrashClasses) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadFRep(in);
  };
  const std::string node0 =
      "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n";
  // Hex with trailing garbage was silently truncated ("1zz" -> 0x1).
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=1zz visible=1 cover=1 dep=1 const=0 "
                     "parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  // More than 16 hex digits overflows uint64; a sign must not negate-wrap.
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=ffffffffffffffffff visible=1 cover=1 "
                     "dep=1 const=0 parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 0 attrs=-1 visible=1 cover=1 dep=1 const=0 "
                     "parent=-1\ntroot 0\nempty\nend\n"),
               FdbError);
  // A huge node id must be refused up front, not drive the pool rebuild
  // into a multi-gigabyte allocation before validation runs.
  EXPECT_THROW(parse("fdb-frep 1\n"
                     "node 999999999 attrs=1 visible=1 cover=1 dep=1 "
                     "const=0 parent=-1\ntroot 999999999\nempty\nend\n"),
               FdbError);
  // Out-of-pool troot dereferenced FTree::node() out of bounds.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 + "troot 7\nempty\nend\n"),
               FdbError);
  // Out-of-pool union node binding dereferenced the tree during Validate.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "troot 0\nnonempty\n"
                     "union 0 node=9 values=1 children=\nuroot 0\nend\n"),
               FdbError);
  // Duplicate node records doubled children lists; duplicate troots
  // duplicated roots.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 + node0 + "troot 0\nempty\nend\n"),
               FdbError);
  EXPECT_THROW(
      parse("fdb-frep 1\n" + node0 + "troot 0\ntroot 0\nempty\nend\n"),
      FdbError);
  // A self-parent cycle passed the shallow tree Validate() and then hung
  // the CountTuples DP.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 "
                     "parent=1\ntroot 0\nempty\nend\n"),
               FdbError);
  // Parent reference to a node the file never declares.
  EXPECT_THROW(parse("fdb-frep 1\n" + node0 +
                     "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 "
                     "parent=30000\ntroot 0\nempty\nend\n"),
               FdbError);
}

// Rewrites the union records of a written rep: the record with written id
// i gets id id_of[i], and the records appear in the order `order` lists
// them (indexes into the written order).
std::string Reorder(const std::string& text, const std::vector<size_t>& id_of,
                    const std::vector<size_t>& order) {
  std::istringstream in(text);
  std::string line, head, tail;
  std::vector<std::string> recs;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "union") {
      size_t id;
      std::string node, values, children;
      ls >> id >> node >> values >> children;
      std::string kids = "children=";
      std::istringstream cs(children.substr(kids.size()));
      std::string c;
      for (bool first = true; std::getline(cs, c, ','); first = false) {
        kids += (first ? "" : ",") + std::to_string(id_of[std::stoul(c)]);
      }
      recs.push_back("union " + std::to_string(id_of[id]) + " " + node + " " +
                     values + " " + kids + "\n");
    } else if (kind == "uroot") {
      size_t r;
      ls >> r;
      tail += "uroot " + std::to_string(id_of[r]) + "\n";
    } else if (kind == "end") {
      tail += line + "\n";
    } else {
      head += line + "\n";
    }
  }
  for (size_t i : order) head += recs[i];
  return head + tail;
}

TEST(Serialize, RecordOrderDoesNotChangeTheBytes) {
  // A DAG (Swap shares the C-subtrees across B-values) over three levels.
  Relation r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 1}, {3, 3}});
  Relation s = MakeRel({2, 3}, {{1, 5}, {1, 6}, {2, 7}, {3, 5}});
  FRep joined = Merge(Product(GroundRelation(r, 0), GroundRelation(s, 1)), 0, 2);
  for (const FRep& rep : {joined, Swap(joined, 0, 1)}) {
    std::ostringstream out;
    WriteFRep(out, rep);
    const std::string text = out.str();
    size_t n = 0;
    for (size_t at = text.find("\nunion "); at != std::string::npos;
         at = text.find("\nunion ", at + 1)) {
      ++n;
    }
    std::vector<size_t> ident(n);
    std::iota(ident.begin(), ident.end(), size_t{0});
    ASSERT_GE(ident.size(), 4u);
    std::vector<size_t> reversed(ident.rbegin(), ident.rend());
    std::vector<size_t> shuffled_ids = ident, shuffled_order = ident;
    std::mt19937 rng(7);
    std::shuffle(shuffled_ids.begin(), shuffled_ids.end(), rng);
    std::shuffle(shuffled_order.begin(), shuffled_order.end(), rng);
    const std::string variants[] = {
        Reorder(text, ident, ident),               // parent-first (written)
        Reorder(text, reversed, reversed),         // child-first ids + lines
        Reorder(text, shuffled_ids, shuffled_order)};
    for (const std::string& v : variants) {
      std::istringstream in(v);
      FRep back = ReadFRep(in);
      std::ostringstream again;
      WriteFRep(again, back);
      EXPECT_EQ(again.str(), text) << "read from:\n" << v;
    }
  }
}

TEST(Serialize, RejectsChildRecordOfWrongTreeNode) {
  auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      ReadFRep(in);
    } catch (const FdbError& e) {
      return e.what();
    }
    return {};
  };
  // Path 0 -> 1 -> 2.
  const std::string head =
      "fdb-frep 1\n"
      "node 0 attrs=1 visible=1 cover=1 dep=1 const=0 parent=-1\n"
      "node 1 attrs=2 visible=2 cover=1 dep=1 const=0 parent=0\n"
      "node 2 attrs=4 visible=4 cover=1 dep=1 const=0 parent=1\n"
      "troot 0\nnonempty\n";
  // The root's slot holds the grandchild's union instead of a child's.
  EXPECT_NE(error_of(head +
                     "union 0 node=0 values=1 children=1\n"
                     "union 1 node=2 values=3 children=\n"
                     "uroot 0\nend\n")
                .find("wrong tree node"),
            std::string::npos);
  // A union of node 0 in its own slot (a self-cycle).
  EXPECT_NE(error_of(head +
                     "union 0 node=0 values=1 children=0\n"
                     "uroot 0\nend\n")
                .find("wrong tree node"),
            std::string::npos);
  // The well-formed file is accepted.
  EXPECT_EQ(error_of(head +
                     "union 0 node=0 values=1 children=1\n"
                     "union 1 node=1 values=2 children=2\n"
                     "union 2 node=2 values=3 children=\n"
                     "uroot 0\nend\n"),
            "");
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  Relation r = MakeRel({0}, {{1}, {2}});
  FRep rep = GroundRelation(r, 0);
  std::ostringstream out;
  WriteFRep(out, rep);
  std::string text = "# compiled database\n\n" + out.str();
  std::istringstream in(text);
  ExpectSame(rep, ReadFRep(in));
}

}  // namespace
}  // namespace fdb
