// Quickstart: create a database, run a join query, inspect the factorised
// result and materialise its tuples.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "api/database.h"
#include "api/engine.h"
#include "core/print.h"

int main() {
  using namespace fdb;

  // 1. Declare relations; ":str" marks dictionary-encoded string columns.
  Database db;
  RelId orders = db.CreateRelation("Orders", {"oid", "item:str"});
  RelId stock = db.CreateRelation("Stock", {"sitem:str", "warehouse:str"});

  db.Insert(orders, {int64_t{1}, "Milk"});
  db.Insert(orders, {int64_t{1}, "Cheese"});
  db.Insert(orders, {int64_t{2}, "Milk"});
  db.Insert(stock, {"Milk", "North"});
  db.Insert(stock, {"Milk", "South"});
  db.Insert(stock, {"Cheese", "South"});

  // 2. Run an SPJ query. FDB finds an optimal factorisation tree for the
  //    result and computes it directly in factorised form.
  Engine engine(&db);
  FdbResult res = engine.Execute(
      "SELECT * FROM Orders, Stock WHERE item = sitem");

  // 3. Inspect the factorised result.
  PrintOptions opts;
  opts.catalog = &db.catalog();
  opts.dict = &db.dict();
  std::cout << "factorised result:\n  " << ToExpressionString(res.rep, opts)
            << "\n\n";
  std::cout << "singletons: " << res.NumSingletons()
            << "   flat tuples: " << res.FlatTuples()
            << "   s(T) of the result: " << res.plan.result_s << "\n\n";
  std::cout << "f-tree of the result:\n"
            << res.rep.tree().ToString(&db.catalog()) << "\n";

  // 4. Materialise the tuples: the result is restructured into attribute
  //    order and streamed by a compiled enumeration kernel (constant
  //    delay per tuple), so the rows come out sorted with no sort.
  Relation rows = engine.MaterializeResult(res);
  const size_t oid = rows.ColumnOf(db.Attr("oid"));
  const size_t item = rows.ColumnOf(db.Attr("item"));
  const size_t wh = rows.ColumnOf(db.Attr("warehouse"));
  std::cout << "tuples:\n";
  for (size_t r = 0; r < rows.size(); ++r) {
    std::cout << "  oid=" << rows.At(r, oid)
              << " item=" << db.dict().Decode(rows.At(r, item))
              << " warehouse=" << db.dict().Decode(rows.At(r, wh)) << "\n";
  }
  return 0;
}
