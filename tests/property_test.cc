// Property-based tests: on random databases and random SPJ queries, FDB's
// factorised evaluation must agree tuple-for-tuple with the flat baselines,
// restructuring operators must preserve the represented relation, output-
// order restructuring must make the plain odometer stream sorted and
// duplicate-free, and the size bound |E| = O(|D|^{s(T)}) must hold on
// observed data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/enumerate.h"
#include "core/fplan.h"
#include "core/ops.h"
#include "opt/ftree_search.h"
#include "opt/fplan_search.h"
#include "opt/greedy.h"
#include "rdb/rdb.h"
#include "storage/generator.h"
#include "test_util.h"
#include "vdb/vdb.h"

namespace fdb {
namespace {

struct Params {
  int rels;
  int attrs;
  int eqs;
  Distribution dist;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "R" + std::to_string(p.rels) + "A" + std::to_string(p.attrs) + "K" +
         std::to_string(p.eqs) +
         (p.dist == Distribution::kZipf ? "zipf" : "uni") + "s" +
         std::to_string(p.seed);
}

Relation Reorder(const Relation& src, const std::vector<AttrId>& schema) {
  Relation out(schema);
  std::vector<size_t> cols;
  for (AttrId a : schema) cols.push_back(src.ColumnOf(a));
  std::vector<Value> t(schema.size());
  for (size_t r = 0; r < src.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) t[c] = src.At(r, cols[c]);
    out.AddTuple(t);
  }
  out.SortLex();
  return out;
}

class FlatEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(FlatEquivalence, FdbMatchesRdbAndVdb) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 40;
  spec.domain = 8;  // small domain: joins actually hit
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  // FDB: optimal f-tree + grounding.
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FTreeSearchResult t = FindOptimalFTree(info, solver);
  FRep rep = GroundQuery(t.tree, rels, w.query.const_preds);
  rep.Validate();

  RdbResult rdb = RdbEvaluate(w.catalog, rels, w.query);
  ASSERT_FALSE(rdb.timed_out);
  EXPECT_TRUE(testing_util::SameRelation(rep, rdb.relation));

  VdbResult vdb = VdbEvaluate(w.catalog, rels, w.query);
  ASSERT_FALSE(vdb.timed_out);
  Relation v = Reorder(vdb.relation, rdb.relation.schema());
  EXPECT_TRUE(v == rdb.relation);

  // Observed size respects the bound |E| <= c * |D|^{s(T)} with a modest
  // constant (here: number of f-tree nodes as the per-node multiplier).
  double d = 0;
  for (const Relation& r : w.relations) d += static_cast<double>(r.size());
  double bound = (static_cast<double>(t.tree.NumAlive()) + 1.0) * 2.0 *
                 std::pow(d, t.cost);
  EXPECT_LE(static_cast<double>(rep.NumSingletons()), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlatEquivalence,
    ::testing::Values(
        Params{1, 3, 1, Distribution::kUniform, 1},
        Params{2, 5, 1, Distribution::kUniform, 2},
        Params{2, 5, 2, Distribution::kUniform, 3},
        Params{3, 7, 2, Distribution::kUniform, 4},
        Params{3, 7, 3, Distribution::kZipf, 5},
        Params{3, 9, 4, Distribution::kUniform, 6},
        Params{4, 9, 3, Distribution::kUniform, 7},
        Params{4, 10, 4, Distribution::kZipf, 8},
        Params{4, 10, 5, Distribution::kUniform, 9},
        Params{5, 11, 4, Distribution::kZipf, 10},
        Params{5, 12, 5, Distribution::kUniform, 11},
        Params{2, 6, 3, Distribution::kZipf, 12}),
    ParamName);

class RestructureInvariance : public ::testing::TestWithParam<Params> {};

TEST_P(RestructureInvariance, RandomSwapsPreserveRelation) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 25;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  if (rep.empty()) GTEST_SKIP() << "empty join result";
  Relation reference = MaterializeVisible(rep);

  Rng rng(p.seed * 1337);
  for (int step = 0; step < 12; ++step) {
    // Pick a random tree edge and swap it.
    std::vector<std::pair<AttrId, AttrId>> edges;
    const FTree& t = rep.tree();
    for (int n : t.AliveNodes()) {
      if (t.node(n).parent != -1) {
        edges.emplace_back(t.node(t.node(n).parent).attrs.Min(),
                           t.node(n).attrs.Min());
      }
    }
    if (edges.empty()) break;
    auto [pa, ch] =
        edges[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(edges.size()) - 1))];
    rep = Swap(rep, pa, ch);
    rep.Validate();
    EXPECT_TRUE(rep.tree().IsNormalized()) << "swap broke normalisation";
    Relation now = MaterializeVisible(rep);
    ASSERT_TRUE(now == reference) << "swap changed the relation at step "
                                  << step;
  }
  // Normalising at the end changes nothing semantically.
  FRep norm = Normalize(rep);
  EXPECT_TRUE(MaterializeVisible(norm) == reference);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RestructureInvariance,
    ::testing::Values(Params{2, 5, 2, Distribution::kUniform, 21},
                      Params{3, 7, 2, Distribution::kUniform, 22},
                      Params{3, 8, 3, Distribution::kZipf, 23},
                      Params{4, 9, 3, Distribution::kUniform, 24},
                      Params{4, 10, 4, Distribution::kZipf, 25}),
    ParamName);

// Random swaps on grounded reps of random queries: the represented
// tuples never change, and the stored rep (Swap shares each A-entry's
// independent subtrees across the B-values it pairs with) is never larger
// than the tree it stands for — and smaller on some of the inputs.
TEST(SwapSharing, RandomSwapsKeepTuplesAndStayWithinTheTree) {
  using testing_util::ReferenceTuples;
  using testing_util::TreeSingletons;
  auto sorted_tuples = [](const FRep& r) {
    std::vector<std::vector<Value>> tuples = ReferenceTuples(r, false);
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  };
  const int shapes[][3] = {{2, 5, 1}, {2, 5, 2}, {3, 7, 2}, {3, 8, 3},
                           {4, 9, 3}};
  int shared = 0, swaps = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [rels, attrs, eqs] : shapes) {
      WorkloadSpec spec;
      spec.num_rels = rels;
      spec.num_attrs = attrs;
      spec.tuples_per_rel = 20;
      spec.domain = 4;
      spec.dist = seed % 2 == 0 ? Distribution::kZipf : Distribution::kUniform;
      spec.num_equalities = eqs;
      spec.seed = seed * 101 + static_cast<uint64_t>(rels);
      const GeneratedWorkload w = GenerateWorkload(spec);
      std::vector<const Relation*> ptrs;
      for (const Relation& r : w.relations) ptrs.push_back(&r);
      EdgeCoverSolver solver;
      const QueryInfo info = AnalyzeQuery(w.catalog, w.query);
      FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, ptrs);
      if (rep.empty()) continue;
      const std::vector<std::vector<Value>> reference = sorted_tuples(rep);
      Rng rng(spec.seed * 7919);
      for (int step = 0; step < 10; ++step) {
        const FTree& t = rep.tree();
        std::vector<std::pair<AttrId, AttrId>> edges;
        for (int n : t.AliveNodes()) {
          if (t.node(n).parent != -1) {
            edges.emplace_back(t.node(t.node(n).parent).attrs.Min(),
                               t.node(n).attrs.Min());
          }
        }
        if (edges.empty()) break;
        const auto [pa, ch] = edges[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(edges.size()) - 1))];
        rep = Swap(rep, pa, ch);
        ++swaps;
        SCOPED_TRACE("seed " + std::to_string(spec.seed) + " step " +
                     std::to_string(step));
        rep.Validate();
        ASSERT_EQ(sorted_tuples(rep), reference);
        const uint64_t tree_size = TreeSingletons(rep);
        ASSERT_LE(rep.NumSingletons(), tree_size);
        shared += rep.NumSingletons() < tree_size ? 1 : 0;
      }
    }
  }
  EXPECT_GT(swaps, 100);
  EXPECT_GT(shared, 0) << "no swap shared a subtree";
}

class OutputOrder : public ::testing::TestWithParam<Params> {};

// PlanOutputOrder on optimal f-trees of random queries with a random
// deferred projection (invisible nodes, inner ones included): the planned
// tree is in output order, executing the swaps yields exactly that tree,
// and the visible-only odometer over the result — no sink, no sort — is
// strictly increasing and spells the input's distinct visible tuples.
TEST_P(OutputOrder, SwapsYieldSortedDuplicateFreeStream) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 25;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);
  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  Rng rng(p.seed * 31 + 5);
  for (int n : rep.tree().AliveNodes()) {
    if (rng.Uniform(0, 2) == 0) rep.tree().node(n).visible = {};
  }

  FTree ordered;
  const std::vector<PlanStep> steps = PlanOutputOrder(rep.tree(), &ordered);
  for (int n : ordered.AliveNodes()) {
    const int parent = ordered.node(n).parent;
    if (parent == -1) continue;
    const AttrId kp = FrameOrderKey(ordered, parent);
    const AttrId kn = FrameOrderKey(ordered, n);
    EXPECT_TRUE(kp < kn || (kp == kMaxAttrs && kn == kMaxAttrs))
        << "node " << n << " below a larger key";
  }
  FRep out = rep;
  for (const PlanStep& step : steps) out = ExecuteStep(out, step);
  out.Validate();
  EXPECT_EQ(out.tree().CanonicalKey(), ordered.CanonicalKey());

  auto stream = [](const FRep& r) {
    return testing_util::ReferenceTuples(r, /*visible_only=*/true);
  };
  const std::vector<std::vector<Value>> in_rows = stream(rep);
  const std::set<std::vector<Value>> expect(in_rows.begin(), in_rows.end());
  const std::vector<std::vector<Value>> got = stream(out);
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1], got[i]) << "row " << i;
  }
  EXPECT_EQ(std::set<std::vector<Value>>(got.begin(), got.end()), expect);
  EXPECT_EQ(got.size(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OutputOrder,
    ::testing::Values(Params{2, 5, 1, Distribution::kUniform, 51},
                      Params{3, 7, 2, Distribution::kUniform, 52},
                      Params{3, 8, 3, Distribution::kZipf, 53},
                      Params{4, 9, 3, Distribution::kUniform, 54},
                      Params{4, 10, 4, Distribution::kZipf, 55},
                      Params{5, 11, 4, Distribution::kUniform, 56}),
    ParamName);

class FactorisedQueries : public ::testing::TestWithParam<Params> {};

TEST_P(FactorisedQueries, ExtraEqualitiesMatchFlatSelection) {
  // Experiment 4's semantics: L extra equalities evaluated on the
  // factorised result of the first query must equal the flat selection on
  // the materialised result.
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 30;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  QueryInfo info = AnalyzeQuery(w.catalog, w.query);
  EdgeCoverSolver solver;
  FTreeSearchResult t = FindOptimalFTree(info, solver);
  FRep rep = GroundQuery(t.tree, rels);
  if (rep.empty()) GTEST_SKIP() << "empty join result";

  Rng rng(p.seed * 7 + 1);
  auto extra = DrawExtraEqualities(info.classes, 2, rng);
  if (extra.empty()) GTEST_SKIP() << "no classes left to equate";

  auto plan = FindOptimalFPlan(rep.tree(), extra, solver);
  FRep out = ExecutePlan(rep, plan.plan);
  out.Validate();
  // Predicted tree equals executed tree.
  EXPECT_EQ(out.tree().CanonicalKey(), plan.final_tree.CanonicalKey());

  // Reference: filter the materialised first result.
  Relation flat = MaterializeVisible(rep);
  for (const auto& [a, b] : extra) {
    size_t ca = flat.ColumnOf(a), cb = flat.ColumnOf(b);
    flat.Filter([&](size_t row) { return flat.At(row, ca) == flat.At(row, cb); });
  }
  flat.SortLex();
  EXPECT_TRUE(testing_util::SameRelation(out, flat));

  // Greedy must produce the same relation.
  auto gplan = GreedyFPlan(rep.tree(), extra, solver);
  FRep gout = ExecutePlan(rep, gplan.plan);
  EXPECT_TRUE(testing_util::SameRelation(gout, flat));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FactorisedQueries,
    ::testing::Values(Params{3, 7, 2, Distribution::kUniform, 31},
                      Params{3, 8, 3, Distribution::kUniform, 32},
                      Params{4, 9, 2, Distribution::kZipf, 33},
                      Params{4, 10, 4, Distribution::kUniform, 34},
                      Params{4, 10, 5, Distribution::kZipf, 35},
                      Params{5, 11, 3, Distribution::kUniform, 36}),
    ParamName);

class ProjectionEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(ProjectionEquivalence, RandomProjectionsMatchRdb) {
  const Params& p = GetParam();
  WorkloadSpec spec;
  spec.num_rels = p.rels;
  spec.num_attrs = p.attrs;
  spec.tuples_per_rel = 30;
  spec.domain = 5;
  spec.dist = p.dist;
  spec.num_equalities = p.eqs;
  spec.seed = p.seed;
  GeneratedWorkload w = GenerateWorkload(spec);
  std::vector<const Relation*> rels;
  for (const Relation& r : w.relations) rels.push_back(&r);

  // Keep a random half of the attributes.
  Rng rng(p.seed + 99);
  AttrSet keep;
  for (int a = 0; a < p.attrs; ++a) {
    if (rng.Uniform(0, 1) == 0) keep.Add(static_cast<AttrId>(a));
  }
  if (keep.Empty()) keep.Add(0);
  Query q = w.query;
  q.projection = keep;

  QueryInfo info = AnalyzeQuery(w.catalog, q);
  EdgeCoverSolver solver;
  FRep rep = GroundQuery(FindOptimalFTree(info, solver).tree, rels);
  FRep proj = Project(rep, keep);
  proj.Validate();

  RdbResult rdb = RdbEvaluate(w.catalog, rels, q);
  ASSERT_FALSE(rdb.timed_out);
  EXPECT_TRUE(testing_util::SameRelation(proj, rdb.relation));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProjectionEquivalence,
    ::testing::Values(Params{2, 5, 2, Distribution::kUniform, 41},
                      Params{3, 7, 3, Distribution::kUniform, 42},
                      Params{3, 8, 2, Distribution::kZipf, 43},
                      Params{4, 9, 3, Distribution::kUniform, 44},
                      Params{4, 10, 4, Distribution::kZipf, 45}),
    ParamName);

}  // namespace
}  // namespace fdb
