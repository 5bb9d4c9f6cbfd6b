// Shared fixtures: the grocery retailer database of Fig. 1 and small
// helpers used across the test suite.
#ifndef FDB_TESTS_TEST_UTIL_H_
#define FDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "core/enumerate.h"
#include "core/kernel.h"
#include "core/parallel_enumerate.h"

namespace fdb {
namespace testing_util {

// The example database of Figure 1. Attribute names are global, so the
// shared column names of the paper (item, location, supplier) are prefixed
// per relation; queries equate them explicitly, exactly like the paper's
// equivalence classes {item, item'} etc.
//
//   Orders(oid, o_item)         Store(s_location, s_item)
//   Disp(dispatcher, d_location)
//   Produce(supplier, p_item)   Serve(sv_supplier, sv_location)
inline std::unique_ptr<Database> MakeGroceryDb() {
  auto db = std::make_unique<Database>();
  RelId orders = db->CreateRelation("Orders", {"oid", "o_item:str"});
  RelId store = db->CreateRelation("Store", {"s_location:str", "s_item:str"});
  RelId disp = db->CreateRelation("Disp", {"dispatcher:str", "d_location:str"});
  RelId produce = db->CreateRelation("Produce", {"supplier:str", "p_item:str"});
  RelId serve =
      db->CreateRelation("Serve", {"sv_supplier:str", "sv_location:str"});

  auto ins = [&db](RelId r, std::vector<Cell> row) { db->Insert(r, row); };
  ins(orders, {int64_t{1}, "Milk"});
  ins(orders, {int64_t{1}, "Cheese"});
  ins(orders, {int64_t{2}, "Melon"});
  ins(orders, {int64_t{3}, "Cheese"});
  ins(orders, {int64_t{3}, "Melon"});

  ins(store, {"Istanbul", "Milk"});
  ins(store, {"Istanbul", "Cheese"});
  ins(store, {"Istanbul", "Melon"});
  ins(store, {"Izmir", "Milk"});
  ins(store, {"Antalya", "Milk"});
  ins(store, {"Antalya", "Cheese"});

  ins(disp, {"Adnan", "Istanbul"});
  ins(disp, {"Adnan", "Izmir"});
  ins(disp, {"Yasemin", "Istanbul"});
  ins(disp, {"Volkan", "Antalya"});

  ins(produce, {"Guney", "Milk"});
  ins(produce, {"Guney", "Cheese"});
  ins(produce, {"Dikici", "Milk"});
  ins(produce, {"Byzantium", "Melon"});

  ins(serve, {"Guney", "Antalya"});
  ins(serve, {"Dikici", "Istanbul"});
  ins(serve, {"Dikici", "Izmir"});
  ins(serve, {"Dikici", "Antalya"});
  ins(serve, {"Byzantium", "Istanbul"});
  return db;
}

// Q1 = Orders |x|_item Store |x|_location Disp (Example 1).
inline Query GroceryQ1(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Orders")),
            static_cast<RelId>(db.catalog().FindRelation("Store")),
            static_cast<RelId>(db.catalog().FindRelation("Disp"))};
  q.equalities = {{db.Attr("o_item"), db.Attr("s_item")},
                  {db.Attr("s_location"), db.Attr("d_location")}};
  return q;
}

// Q2 = Produce |x|_supplier Serve (Example 1).
inline Query GroceryQ2(const Database& db) {
  Query q;
  q.rels = {static_cast<RelId>(db.catalog().FindRelation("Produce")),
            static_cast<RelId>(db.catalog().FindRelation("Serve"))};
  q.equalities = {{db.Attr("supplier"), db.Attr("sv_supplier")}};
  return q;
}

// Materialises an f-representation and a flat relation into comparable
// sorted forms and checks equality of the represented relations. The
// schemas must cover the same attribute sets.
inline bool SameRelation(const FRep& rep, const Relation& flat) {
  Relation lhs = MaterializeVisible(rep);
  Relation rhs = flat;
  if (lhs.attr_set() != rhs.attr_set()) return false;
  // Reorder rhs columns to match lhs schema.
  std::vector<size_t> cols;
  for (AttrId a : lhs.schema()) cols.push_back(rhs.ColumnOf(a));
  Relation rhs2(lhs.schema());
  std::vector<Value> tuple(cols.size());
  for (size_t r = 0; r < rhs.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) tuple[c] = rhs.At(r, cols[c]);
    rhs2.AddTuple(tuple);
  }
  rhs2.SortLex();
  return lhs == rhs2;
}

// Reference enumeration, the oracle of the kernel's byte-identity tests:
// an obviously correct recursive walk over the same frames the kernel
// lowers (BuildPreOrderFrames), without bounds. Returns the stream's
// tuples in order, each in increasing attribute id order over the
// stream's attributes (all of them, or the visible ones with
// `visible_only` — the kernel's schema()). The nullary stream is one
// empty tuple; the empty rep streams nothing.
inline std::vector<std::vector<Value>> ReferenceTuples(const FRep& rep,
                                                       bool visible_only) {
  std::vector<std::vector<Value>> out;
  if (rep.empty()) return out;
  const FTree& t = rep.tree();
  const std::vector<char> keep = VisibleKeepMask(t);
  const std::vector<PreOrderFrame> frames =
      BuildPreOrderFrames(t, visible_only ? &keep : nullptr);
  const std::vector<AttrId> schema =
      (visible_only ? t.VisibleAttrs() : t.AllAttrs()).ToVector();
  std::vector<uint32_t> uid(frames.size());
  std::vector<size_t> entry(frames.size());
  std::vector<Value> value_of(kMaxAttrs, 0);
  auto walk = [&](auto&& self, size_t i) -> void {
    if (i == frames.size()) {
      std::vector<Value> tuple;
      for (AttrId a : schema) tuple.push_back(value_of[a]);
      out.push_back(std::move(tuple));
      return;
    }
    const PreOrderFrame& f = frames[i];
    if (f.parent_pos < 0) {
      uid[i] = rep.roots()[f.slot];
    } else {
      const size_t p = static_cast<size_t>(f.parent_pos);
      uid[i] = rep.u(uid[p]).Child(
          entry[p], f.slot, t.node(frames[p].node).children.size());
    }
    const UnionRef u = rep.u(uid[i]);
    for (entry[i] = 0; entry[i] < u.size(); ++entry[i]) {
      for (AttrId a : t.node(f.node).attrs) value_of[a] = u.value(entry[i]);
      self(self, i + 1);
    }
  };
  walk(walk, 0);
  return out;
}

// Singletons of the tree `rep` stands for (the paper's |E| of its
// tree-shaped expansion): a union referenced from several entries counts
// once per reference, where FRep::NumSingletons counts it once.
inline uint64_t TreeSingletons(const FRep& rep) {
  if (rep.empty()) return 0;
  const FTree& t = rep.tree();
  auto walk = [&](auto&& self, uint32_t id) -> uint64_t {
    const UnionRef u = rep.u(id);
    const FTreeNode& nd = t.node(u.node());
    const size_t k = nd.children.size();
    uint64_t total = u.size() * nd.visible.Size();
    for (size_t e = 0; e < u.size(); ++e) {
      for (size_t j = 0; j < k; ++j) total += self(self, u.Child(e, j, k));
    }
    return total;
  };
  uint64_t total = 0;
  for (uint32_t r : rep.roots()) total += walk(walk, r);
  return total;
}

// The library's stream of `rep`: one whole-stream EnumKernel run, split
// into tuples of the kernel's schema (same layout as ReferenceTuples).
inline std::vector<std::vector<Value>> KernelTuples(const FRep& rep,
                                                    bool visible_only) {
  const EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
  std::vector<Value> flat;
  const uint64_t rows = k.Emit(rep, {}, &flat);
  const size_t arity = k.schema().size();
  std::vector<std::vector<Value>> out;
  for (size_t r = 0; r < rows; ++r) {
    out.emplace_back(flat.begin() + static_cast<ptrdiff_t>(r * arity),
                     flat.begin() + static_cast<ptrdiff_t>((r + 1) * arity));
  }
  return out;
}

}  // namespace testing_util
}  // namespace fdb

#endif  // FDB_TESTS_TEST_UTIL_H_
