// Parallel chunked enumeration: the morsel planner must partition the
// stream exactly, and one kernel run per ParallelEnumerator chunk —
// concatenated in chunk order — must reproduce the sequential stream of
// the test-only reference walker tuple for tuple, for every thread count,
// morsel size, visibility mode and rep shape (including empty and nullary
// reps). The MaterializeVisible sink is checked differentially against the
// flat baseline on seeded random instances. Runs under ThreadSanitizer in
// CI alongside the serve suite.
#include <algorithm>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/engine.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/enumerate.h"
#include "core/fplan.h"
#include "core/ground.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/parallel_enumerate.h"
#include "storage/query.h"
#include "test_util.h"

namespace fdb {
namespace {

using Tuples = std::vector<std::vector<Value>>;

Tuples SequentialStream(const FRep& rep, bool visible_only) {
  return testing_util::ReferenceTuples(rep, visible_only);
}

// Runs one kernel per ParallelEnumerator chunk and concatenates the
// per-chunk streams by chunk index; `chunks_out` (optional) receives the
// chunk count.
Tuples ParallelStream(const FRep& rep, bool visible_only,
                      const EnumerateOptions& opts,
                      size_t* chunks_out = nullptr) {
  const EnumKernel k = EnumKernel::Compile(rep.tree(), visible_only);
  ParallelEnumerator pe(rep, opts, visible_only);
  if (chunks_out != nullptr) *chunks_out = pe.num_chunks();
  std::vector<std::vector<Value>> parts(pe.num_chunks());
  std::vector<uint64_t> rows(pe.num_chunks(), 0);
  pe.ForEachChunk([&](size_t c) {
    rows[c] = k.Emit(rep, pe.plan().morsels[c].bounds, &parts[c]);
  });
  const size_t arity = k.schema().size();
  Tuples all;
  for (size_t c = 0; c < parts.size(); ++c) {
    for (size_t r = 0; r < rows[c]; ++r) {
      all.emplace_back(parts[c].begin() + r * arity,
                       parts[c].begin() + (r + 1) * arity);
    }
  }
  return all;
}

// The acceptance matrix of ISSUE 5: thread counts {1,2,3,8} x morsel
// sizes {1, huge} x visible_only {off, on}, parallel output must equal
// the sequential stream tuple for tuple.
void CheckAllModes(const FRep& rep) {
  for (bool visible_only : {false, true}) {
    const Tuples expect = SequentialStream(rep, visible_only);
    for (int threads : {1, 2, 3, 8}) {
      for (double morsel : {1.0, 1e18}) {
        EnumerateOptions opts;
        opts.threads = threads;
        opts.parallel_cutoff = 0;  // plan even tiny reps
        opts.target_morsel_tuples = morsel;
        size_t chunks = 0;
        Tuples got = ParallelStream(rep, visible_only, opts, &chunks);
        EXPECT_EQ(got, expect)
            << "threads=" << threads << " morsel=" << morsel
            << " visible_only=" << visible_only << " chunks=" << chunks;
        if (threads > 1 && morsel == 1.0 && expect.size() > 1) {
          EXPECT_GT(chunks, 1u);  // tiny morsels must actually split
        }
      }
    }
  }
}

Relation RandomRelation(std::vector<AttrId> schema, size_t rows,
                        int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(std::move(schema));
  std::vector<Value> t(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (Value& v : t) v = rng.Uniform(1, domain);
    r.AddTuple(t);
  }
  return r;
}

TEST(ParallelEnumerate, PathTreeRandomised) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 200, 8, seed), 0);
    CheckAllModes(rep);
  }
}

TEST(ParallelEnumerate, HighFanoutStarJoin) {
  // S(a,b) |x| T(b,c) on a small b-domain: the root union is small and
  // every entry dominates, forcing the planner to pin entries and recurse
  // one level down.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(99);
  Relation& rs = db.relation(s);
  Relation& rt = db.relation(t);
  for (int64_t i = 1; i <= 160; ++i) {
    rs.AddTuple({i, rng.Uniform(1, 4)});
    rt.AddTuple({rng.Uniform(1, 4), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  CheckAllModes(res.rep);
}

TEST(ParallelEnumerate, MultiRootProductForest) {
  // Two independent root trees: the first root's union carries only part
  // of the stream weight; morsels over it still cover the cross product.
  Relation r = RandomRelation({0, 1}, 40, 16, 7);
  Relation s = RandomRelation({2, 3}, 30, 16, 8);
  FRep rep = Product(GroundRelation(r, 0), GroundRelation(s, 1));
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, SingleEntryTopUnionRecursesOneLevelDown) {
  // A constant first column gives the top union exactly one entry, so the
  // top frame alone offers nothing to split; the planner must pin it and
  // recurse into the frames below (CheckAllModes asserts that tiny
  // morsels still produce more than one chunk).
  Rng rng(11);
  Relation r({0, 1, 2});
  for (int64_t i = 0; i < 120; ++i) {
    r.AddTuple({Value{7}, rng.Uniform(1, 30), rng.Uniform(1, 6)});
  }
  FRep rep = GroundRelation(r, 0);
  ASSERT_EQ(rep.u(rep.roots()[0]).size(), 1u);
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, DeferredProjectionVisibleOnly) {
  // Invisible nodes (deferred projection) change the visible_only frame
  // set; bounds must be planned against the same frames the enumerator
  // walks.
  Relation r = RandomRelation({0, 1, 2}, 150, 6, 21);
  FRep rep = GroundRelation(r, 0);
  // Project away attribute 1 with deferral: keep the node, clear
  // visibility (mirrors the deferred-projection trees of frep_test).
  rep.tree().node(rep.tree().FindAttr(1)).visible = {};
  rep.Validate();
  CheckAllModes(rep);
}

TEST(ParallelEnumerate, EmptyRep) {
  FRep rep{PathFTree({0, 1}, 0)};
  EXPECT_TRUE(SequentialStream(rep, false).empty());
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    size_t chunks = 99;
    EXPECT_TRUE(ParallelStream(rep, false, opts, &chunks).empty());
    EXPECT_EQ(chunks, 0u);
  }
}

TEST(ParallelEnumerate, NullaryRep) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  for (bool visible_only : {false, true}) {
    for (int threads : {1, 3, 8}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      opts.target_morsel_tuples = 1.0;
      size_t chunks = 0;
      Tuples got = ParallelStream(rep, visible_only, opts, &chunks);
      EXPECT_EQ(got.size(), 1u);  // the single empty tuple
      EXPECT_EQ(chunks, 1u);      // nothing to split over
    }
  }
}

TEST(ParallelEnumerate, FullyInvisibleRepVisibleOnly) {
  // All attributes deferred-projected away: one empty visible tuple, for
  // every thread count.
  Relation r = RandomRelation({0, 1}, 20, 5, 33);
  FRep rep = GroundRelation(r, 0);
  for (int n : rep.tree().AliveNodes()) rep.tree().node(n).visible = {};
  EnumerateOptions opts;
  opts.threads = 8;
  opts.parallel_cutoff = 0;
  EXPECT_EQ(ParallelStream(rep, true, opts).size(), 1u);
}

TEST(ParallelEnumerate, BoundsContract) {
  // The kernel.h bounds contract, through count mode.
  FRep rep = GroundRelation(RandomRelation({0, 1}, 10, 4, 5), 0);
  const EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  using Bounds = std::vector<EntryBound>;
  // Non-pinned prefix bound is rejected.
  EXPECT_THROW(k.CountRows(rep, Bounds{{0, 2}, {0, 1}}), FdbError);
  // Empty range is rejected.
  EXPECT_THROW(k.CountRows(rep, Bounds{{1, 1}}), FdbError);
  // More bounds than frames is rejected.
  EXPECT_THROW(k.CountRows(rep, Bounds{{0, 1}, {0, 1}, {0, 1}}), FdbError);
  // A bound past the union's entries yields the empty stream.
  EXPECT_EQ(k.CountRows(rep, Bounds{{1000, 1001}}), 0u);
}

TEST(ParallelEnumerate, MaterializeVisibleParallelMatchesSequential) {
  Relation r = RandomRelation({0, 1, 2}, 300, 10, 77);
  FRep rep = GroundRelation(r, 0);
  rep.tree().node(rep.tree().FindAttr(2)).visible = {};  // deferred proj
  Relation seq = MaterializeVisible(rep);
  for (int threads : {2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 16;
    EXPECT_TRUE(MaterializeVisible(rep, opts) == seq) << threads;
  }
}

TEST(ParallelEnumerate, GroupedMaterializeParallelMatchesSequential) {
  // Random star instance, grouped by the join attribute: the parallel
  // grouped materialisation must produce the identical table (same rows,
  // same pre-sort order) as the sequential walk.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(1234);
  for (int64_t i = 1; i <= 200; ++i) {
    db.relation(s).AddTuple({i, rng.Uniform(1, 12)});
    db.relation(t).AddTuple({rng.Uniform(1, 12), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  FdbResult res = engine.EvaluateFlat(q);
  ASSERT_FALSE(res.rep.empty());
  GroupedRep grouped = GroupByAggregate(
      res.rep, AttrSet::Of({db.Attr("b")}),
      {{AggFn::kCount, 0}, {AggFn::kSum, db.Attr("c")},
       {AggFn::kMin, db.Attr("a")}});
  GroupedTable seq = grouped.Materialize();
  for (int threads : {2, 3, 8}) {
    for (double morsel : {1.0, 64.0}) {
      EnumerateOptions opts;
      opts.threads = threads;
      opts.parallel_cutoff = 0;
      opts.target_morsel_tuples = morsel;
      EXPECT_TRUE(grouped.Materialize(opts) == seq)
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelEnumerate, EngineMaterializeResult) {
  auto db = testing_util::MakeGroceryDb();
  Engine engine(db.get());
  FdbResult res = engine.Execute(
      "SELECT * FROM Orders, Store WHERE o_item = s_item");
  EXPECT_TRUE(engine.MaterializeResult(res) == MaterializeVisible(res.rep));
}

TEST(ParallelEnumerate, PlanMorselsIsOrderedAndSized) {
  // Direct planner checks: morsels come out in lexicographic odometer
  // order (prefix-pinned chains, ranges ascending) and their estimates
  // sum to the stream total.
  FRep rep = GroundRelation(RandomRelation({0, 1}, 120, 9, 3), 0);
  MorselPlan plan = PlanMorsels(rep, /*visible_only=*/false,
                                /*target_tuples=*/8);
  ASSERT_GT(plan.morsels.size(), 1u);
  EXPECT_EQ(plan.est_total, rep.CountTuples());
  double est_sum = 0;
  for (size_t m = 0; m < plan.morsels.size(); ++m) {
    const std::vector<EntryBound>& b = plan.morsels[m].bounds;
    ASSERT_FALSE(b.empty());
    for (size_t i = 0; i + 1 < b.size(); ++i) {
      EXPECT_EQ(b[i].begin + 1, b[i].end);  // pinned chain above the range
    }
    if (m > 0) {
      // Lexicographic: the first diverging bound must increase.
      const std::vector<EntryBound>& prev = plan.morsels[m - 1].bounds;
      size_t i = 0;
      while (i < prev.size() && i < b.size() &&
             prev[i].begin == b[i].begin) {
        ++i;
      }
      ASSERT_TRUE(i < prev.size() && i < b.size());
      EXPECT_GE(b[i].begin, prev[i].end);
    }
    est_sum += plan.morsels[m].est_tuples;
  }
  EXPECT_NEAR(est_sum, plan.est_total, 1e-6 * plan.est_total);
}

TEST(ParallelEnumerate, PlanCoversStreamExactly) {
  // Morsel estimates must add up to the plan total, and the per-chunk
  // streams must be non-overlapping contiguous slices (already implied by
  // the equality checks; here: chunk sizes sum to the stream length).
  FRep rep = GroundRelation(RandomRelation({0, 1, 2}, 400, 12, 55), 0);
  EnumerateOptions opts;
  opts.threads = 4;
  opts.parallel_cutoff = 0;
  opts.target_morsel_tuples = 32;
  ParallelEnumerator pe(rep, opts, false);
  ASSERT_GT(pe.num_chunks(), 1u);
  double est_sum = 0;
  for (const Morsel& m : pe.plan().morsels) est_sum += m.est_tuples;
  EXPECT_NEAR(est_sum, pe.plan().est_total, 1e-6 * pe.plan().est_total);
  EXPECT_EQ(pe.plan().est_total, rep.CountTuples());
  const EnumKernel k = EnumKernel::Compile(rep.tree(), false);
  size_t streamed = 0;
  pe.ForEachChunk([&](size_t c) {
    std::vector<Value> buf;
    const uint64_t local = k.Emit(rep, pe.plan().morsels[c].bounds, &buf);
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    streamed += local;
  });
  EXPECT_EQ(static_cast<double>(streamed), rep.CountTuples());
}

// ---------------------------------------------------------------------------
// Differential sink test: MaterializeVisible against ExecuteRdb.
// ---------------------------------------------------------------------------

bool StrictlyIncreasing(const Relation& r) {
  for (size_t row = 1; row < r.size(); ++row) {
    const std::span<const Value> a = r.Row(row - 1), b = r.Row(row);
    if (!std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end())) {
      return false;
    }
  }
  return true;
}

// The canonical answer: the baseline's rows over `schema` (ascending
// attribute ids), sorted and deduplicated.
Relation Canonical(const Relation& flat, const std::vector<AttrId>& schema) {
  Relation out(schema);
  if (schema.empty()) {
    if (!flat.empty()) out.AddTuple({});
    return out;
  }
  std::vector<size_t> cols;
  for (AttrId a : schema) cols.push_back(flat.ColumnOf(a));
  std::vector<Value> t(schema.size());
  for (size_t r = 0; r < flat.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) t[c] = flat.At(r, cols[c]);
    out.AddTuple(t);
  }
  out.SortLex();
  return out;
}

// True when the visible-only frames of `t` are not a depth-first order:
// some frame's parent is not on the path to the frame before it.
bool InterleavedFrames(const FTree& t) {
  std::vector<char> keep = VisibleKeepMask(t);
  std::vector<PreOrderFrame> frames = BuildPreOrderFrames(t, &keep);
  for (size_t i = 1; i < frames.size(); ++i) {
    const int p = t.node(frames[i].node).parent;
    const int prev = frames[i - 1].node;
    if (p != -1 && p != prev && !t.IsAncestor(p, prev)) return true;
  }
  return false;
}

bool HasInvisibleInnerNode(const FTree& t) {
  const std::vector<char> keep = VisibleKeepMask(t);
  for (int n : t.AliveNodes()) {
    if (t.node(n).visible.Empty() && keep[static_cast<size_t>(n)]) return true;
  }
  return false;
}

// Seeded random instances: 1-4 relations of arity 1-2 over a small domain
// (attribute ids follow creation order, so unary relations placed under
// one another interleave with the rest of the forest), random equalities,
// a random f-tree shape satisfying the path constraint, deferred
// projection (invisible inner nodes), constant selections at grounding and
// through SelectConst, empty results and fully invisible (nullary) ones.
// At 1, 2 and 8 threads with tiny morsels the sink must emit strictly
// increasing rows equal to the canonical ExecuteRdb answer.
TEST(SinkDifferential, MatchesRdbOnRandomInstances) {
  int restructured = 0, interleaved = 0, invisible_inner = 0, empty = 0,
      nullary = 0, selected = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    Database db;
    Query q;
    std::vector<AttrId> attrs;
    const int nrels = static_cast<int>(rng.Uniform(1, 4));
    for (int r = 0; r < nrels; ++r) {
      const int arity = static_cast<int>(rng.Uniform(1, 2));
      std::vector<std::string> cols;
      for (int c = 0; c < arity; ++c) {
        cols.push_back("r" + std::to_string(r) + "c" + std::to_string(c));
      }
      const RelId rel = db.CreateRelation("R" + std::to_string(r), cols);
      q.rels.push_back(rel);
      for (const std::string& c : cols) attrs.push_back(db.Attr(c));
      const int64_t rows = rng.Uniform(1, 9);
      for (int64_t i = 0; i < rows; ++i) {
        std::vector<Value> t(static_cast<size_t>(arity));
        for (Value& v : t) v = rng.Uniform(1, 4);
        db.relation(rel).AddTuple(t);
      }
    }
    auto any_attr = [&] {
      return attrs[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1))];
    };
    if (attrs.size() > 1 && rng.Uniform(0, 2) == 0) {
      const AttrId a = any_attr(), b = any_attr();
      if (a != b) q.equalities.push_back({a, b});
    }
    if (rng.Uniform(0, 3) == 0) {  // at grounding; 0 matches nothing
      q.const_preds.push_back(
          {any_attr(), rng.Uniform(0, 1) ? CmpOp::kLe : CmpOp::kEq,
           rng.Uniform(0, 4)});
    }
    for (AttrId a : attrs) {
      if (rng.Uniform(0, 2) > 0) q.projection.Add(a);
    }

    const QueryInfo info = AnalyzeQuery(db.catalog(), q);
    // Random forests until one satisfies the path constraint; a single
    // path (the last attempt) always does.
    FTree tree;
    for (int attempt = 0; attempt < 20; ++attempt) {
      std::vector<int> perm(info.classes.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
      rng.Shuffle(perm);
      std::vector<int> parent_of(perm.size(), -1);
      for (size_t i = 1; i < perm.size(); ++i) {
        const int64_t j = attempt == 19
                              ? static_cast<int64_t>(i) - 1
                              : rng.Uniform(-1, static_cast<int64_t>(i) - 1);
        parent_of[static_cast<size_t>(perm[i])] =
            j < 0 ? -1 : perm[static_cast<size_t>(j)];
      }
      tree = FTreeFromShape(info, info.classes, parent_of);
      if (tree.SatisfiesPathConstraint()) break;
    }
    ASSERT_TRUE(tree.SatisfiesPathConstraint()) << "seed " << seed;
    const bool all_invisible = rng.Uniform(0, 9) == 0;
    if (all_invisible) {
      for (int n : tree.AliveNodes()) tree.node(n).visible = {};
    }
    FRep rep = GroundQuery(tree, db.RelationPtrs(q.rels), q.const_preds);
    if (rng.Uniform(0, 3) == 0) {  // through the f-plan operator
      const ConstPred p{any_attr(), rng.Uniform(0, 1) ? CmpOp::kGe : CmpOp::kEq,
                        rng.Uniform(1, 4)};
      rep = SelectConst(rep, p.attr, p.op, p.value);
      q.const_preds.push_back(p);
      ++selected;
    }

    const std::vector<AttrId> schema = rep.tree().VisibleAttrs().ToVector();
    Query flat_q = q;
    flat_q.projection = AttrSet::FromVector(schema);
    if (schema.empty()) flat_q.projection = {};
    const Relation expect =
        Canonical(Engine(&db).ExecuteRdb(flat_q).relation, schema);

    restructured += PlanOutputOrder(rep.tree()).empty() ? 0 : 1;
    interleaved += InterleavedFrames(rep.tree()) ? 1 : 0;
    invisible_inner += HasInvisibleInnerNode(rep.tree()) ? 1 : 0;
    empty += rep.empty() ? 1 : 0;
    nullary += schema.empty() && !rep.empty() ? 1 : 0;
    for (int threads : {1, 2, 8}) {
      for (double morsel : {1.0, 3.0}) {
        EnumerateOptions opts;
        opts.threads = threads;
        opts.parallel_cutoff = 0;
        opts.target_morsel_tuples = morsel;
        const Relation got = MaterializeVisible(rep, opts);
        EXPECT_TRUE(StrictlyIncreasing(got)) << "seed " << seed;
        EXPECT_TRUE(got == expect)
            << "seed " << seed << " threads " << threads << " morsel "
            << morsel << "\n"
            << rep.tree().ToString(&db.catalog());
      }
    }
  }
  // Every shape the sink must handle actually occurred.
  EXPECT_GT(restructured, 0);
  EXPECT_GT(interleaved, 0);
  EXPECT_GT(invisible_inner, 0);
  EXPECT_GT(empty, 0);
  EXPECT_GT(nullary, 0);
  EXPECT_GT(selected, 0);
}

TEST(SinkDifferential, OrderSwapsChargeTheBudget) {
  // S(a, b) |x| T(b2, c) grounds with the join class {b, b2} on top; output
  // order lifts a above it with one swap, whose arena growth the ambient
  // budget sees. A path tree in attribute order needs no swap and charges
  // nothing.
  Database db;
  RelId s = db.CreateRelation("S", {"a", "b"});
  RelId t = db.CreateRelation("T", {"b2", "c"});
  Rng rng(5);
  for (int64_t i = 1; i <= 200; ++i) {
    db.relation(s).AddTuple({i, rng.Uniform(1, 8)});
    db.relation(t).AddTuple({rng.Uniform(1, 8), i});
  }
  Engine engine(&db);
  Query q;
  q.rels = {s, t};
  q.equalities = {{db.Attr("b"), db.Attr("b2")}};
  const FRep star = engine.EvaluateFlat(q).rep;
  ASSERT_EQ(PlanOutputOrder(star.tree()).size(), 1u);
  const Relation expect = MaterializeVisible(star);
  {
    ExecContext ctx;
    ExecContext::Scope scope(&ctx);
    EXPECT_TRUE(MaterializeVisible(star) == expect);
    EXPECT_GT(ctx.budget().charged(), 0u);
  }
  {
    ExecContext ctx;
    ctx.budget().set_limit(1024);
    ExecContext::Scope scope(&ctx);
    EXPECT_THROW(MaterializeVisible(star), FdbResourceExhausted);
  }
  const FRep path = GroundRelation(RandomRelation({0, 1, 2}, 100, 6, 9), 0);
  ASSERT_TRUE(PlanOutputOrder(path.tree()).empty());
  ExecContext ctx;
  ExecContext::Scope scope(&ctx);
  MaterializeVisible(path);
  EXPECT_EQ(ctx.budget().charged(), 0u);
}

TEST(SinkDifferential, NullaryRep) {
  FRep rep{FTree{}};
  rep.MarkNonEmpty();
  for (int threads : {1, 2, 8}) {
    EnumerateOptions opts;
    opts.threads = threads;
    opts.parallel_cutoff = 0;
    opts.target_morsel_tuples = 1.0;
    const Relation got = MaterializeVisible(rep, opts);
    EXPECT_EQ(got.arity(), 0u);
    EXPECT_EQ(got.size(), 1u);
  }
  EXPECT_EQ(MaterializeVisible(FRep{FTree{}}).size(), 0u);
}

}  // namespace
}  // namespace fdb
