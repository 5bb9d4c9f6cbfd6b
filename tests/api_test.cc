#include <gtest/gtest.h>

#include <fstream>

#include "core/aggregate.h"
#include "core/enumerate.h"
#include "test_util.h"

namespace fdb {
namespace {

TEST(Database, CreateAndInsert) {
  Database db;
  RelId r = db.CreateRelation("R", {"a", "name:str"});
  db.Insert(r, {int64_t{1}, "x"});
  db.Insert(r, {int64_t{2}, "y"});
  EXPECT_EQ(db.relation(r).size(), 2u);
  EXPECT_TRUE(db.catalog().attr(db.Attr("name")).is_string);
  EXPECT_EQ(db.dict().Decode(db.relation(r).At(0, 1)), "x");
}

TEST(Database, InsertTypeMismatch) {
  Database db;
  RelId r = db.CreateRelation("R", {"a", "name:str"});
  EXPECT_THROW(db.Insert(r, {int64_t{1}, int64_t{2}}), FdbError);
  EXPECT_THROW(db.Insert(r, {"x", "y"}), FdbError);
  EXPECT_THROW(db.Insert(r, {int64_t{1}}), FdbError);  // arity
}

TEST(Database, DuplicateRelationName) {
  Database db;
  db.CreateRelation("R", {"a"});
  EXPECT_THROW(db.CreateRelation("R", {"b"}), FdbError);
}

TEST(Database, SharedAttributeAcrossRelations) {
  // Reusing an attribute name binds to the same attribute id; such
  // relations cannot appear together in one query.
  Database db;
  RelId r = db.CreateRelation("R", {"a"});
  RelId s = db.CreateRelation("S", {"a"});
  Query q;
  q.rels = {r, s};
  Engine engine(&db);
  EXPECT_THROW(engine.EvaluateFlat(q), FdbError);
}

TEST(Database, UnknownAttrThrows) {
  Database db;
  EXPECT_THROW(db.Attr("nope"), FdbError);
}

TEST(Database, LoadCsvIntegratesWithCatalog) {
  const std::string path = "/tmp/fdb_api_test.csv";
  {
    std::ofstream out(path);
    out << "k,v:str\n1,alpha\n2,beta\n";
  }
  Database db;
  RelId r = db.LoadCsv(path, "KV");
  EXPECT_EQ(db.catalog().FindRelation("KV"), static_cast<int>(r));
  EXPECT_EQ(db.relation(r).size(), 2u);
  Engine engine(&db);
  FdbResult res = engine.Execute("SELECT * FROM KV WHERE v = 'beta'");
  EXPECT_EQ(res.FlatTuples(), 1.0);
}

TEST(Engine, JoinFactorisedMatchesFlatJoin) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult r1 = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  FdbResult r2 = engine.EvaluateFlat(testing_util::GroceryQ2(*db));

  FdbResult joined = engine.JoinFactorised(
      r1.rep, r2.rep, {{db->Attr("o_item"), db->Attr("p_item")}});

  // Flat reference.
  Query big;
  for (const char* n : {"Orders", "Store", "Disp", "Produce", "Serve"}) {
    big.rels.push_back(static_cast<RelId>(db->catalog().FindRelation(n)));
  }
  big.equalities = {{db->Attr("o_item"), db->Attr("s_item")},
                    {db->Attr("s_location"), db->Attr("d_location")},
                    {db->Attr("supplier"), db->Attr("sv_supplier")},
                    {db->Attr("o_item"), db->Attr("p_item")}};
  RdbResult flat = engine.ExecuteRdb(big);
  EXPECT_TRUE(testing_util::SameRelation(joined.rep, flat.relation));
}

TEST(Engine, JoinFactorisedRejectsOverlappingAttrs) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult r1 = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  EXPECT_THROW(engine.JoinFactorised(r1.rep, r1.rep, {}), FdbError);
}

TEST(Engine, AggregatesOnQueryResult) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  AttrId oid = db->Attr("oid");
  EXPECT_EQ(Count(res.rep), 14.0);
  EXPECT_EQ(Min(res.rep, oid), 1);
  EXPECT_EQ(Max(res.rep, oid), 3);
  EXPECT_EQ(CountDistinct(res.rep, db->Attr("dispatcher")), 3u);
}

TEST(Engine, TimingFieldsPopulated) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.EvaluateFlat(testing_util::GroceryQ1(*db));
  EXPECT_GE(res.optimize_seconds, 0.0);
  EXPECT_GE(res.evaluate_seconds, 0.0);
}

TEST(Engine, EmptyDatabaseQuery) {
  Database db;
  RelId r = db.CreateRelation("R", {"a", "b"});
  Engine engine(&db);
  Query q;
  q.rels = {r};
  FdbResult res = engine.EvaluateFlat(q);
  EXPECT_TRUE(res.rep.empty());
  EXPECT_EQ(res.FlatTuples(), 0.0);
  EXPECT_EQ(engine.MaterializeResult(res).size(), 0u);
}

TEST(Engine, SelfJoinViaAliasedRelation) {
  // Self-joins need an aliased copy with fresh attribute ids (the paper's
  // query model gives every query relation its own attributes).
  Database db;
  RelId e1 = db.CreateRelation("Edge", {"src", "dst"});
  RelId e2 = db.CreateRelation("Edge2", {"src2", "dst2"});
  for (auto [s, d] : std::initializer_list<std::pair<int64_t, int64_t>>{
           {1, 2}, {2, 3}, {3, 1}, {2, 4}}) {
    db.Insert(e1, {s, d});
    db.Insert(e2, {s, d});
  }
  Engine engine(&db);
  // Two-hop paths: Edge(src,dst) |x|_{dst=src2} Edge2(src2,dst2).
  FdbResult res = engine.Execute(
      "SELECT * FROM Edge, Edge2 WHERE dst = src2");
  RdbResult flat = engine.ExecuteRdb(engine.Parse(
      "SELECT * FROM Edge, Edge2 WHERE dst = src2"));
  EXPECT_EQ(res.FlatTuples(), static_cast<double>(flat.NumTuples()));
  EXPECT_EQ(res.FlatTuples(), 4.0);  // 1-2-3, 1-2-4, 2-3-1, 3-1-2
}

}  // namespace
}  // namespace fdb
