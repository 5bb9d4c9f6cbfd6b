#include "core/aggregate.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/exec_context.h"
#include "core/kernel.h"
#include "core/ops.h"
#include "core/validate.h"

namespace fdb {

namespace {

constexpr const char* kCountOverflow =
    "aggregate tuple count overflows uint64 — a weighted aggregate over "
    "this representation would be silently inexact";

uint64_t MulCount(uint64_t a, uint64_t b) {
  uint64_t out;
  FDB_CHECK_MSG(!U64MulOverflow(a, b, &out), kCountOverflow);
  return out;
}

uint64_t AddCount(uint64_t a, uint64_t b) {
  uint64_t out;
  FDB_CHECK_MSG(!U64AddOverflow(a, b, &out), kCountOverflow);
  return out;
}

// COUNT and SUM(attr) over a whole representation, for Sum/Avg: the
// collapse DP of grouped aggregation with one SUM spec (defined with it
// below).
struct CountSum {
  uint64_t count = 0;
  double sum = 0.0;
};
CountSum SolveForest(const FRep& rep, AttrId attr);

int NodeOfAttr(const FRep& rep, AttrId attr) {
  int n = rep.tree().FindAttr(attr);
  FDB_CHECK_MSG(n >= 0, "aggregate attribute not in the f-tree");
  return n;
}

template <typename Fn>
void ForEachUnionOfNode(const FRep& rep, int node, Fn fn) {
  const std::vector<char> reach = rep.ReachableUnions();
  for (uint32_t id = 0; id < rep.NumUnions(); ++id) {
    if (reach[id] && rep.u(id).node() == node) fn(rep.u(id));
  }
}

}  // namespace

double Count(const FRep& rep) { return rep.CountTuples(); }

double Sum(const FRep& rep, AttrId attr) {
  NodeOfAttr(rep, attr);
  if (rep.empty()) return 0.0;
  return SolveForest(rep, attr).sum;
}

double Avg(const FRep& rep, AttrId attr) {
  NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "AVG over the empty relation");
  CountSum cs = SolveForest(rep, attr);
  return cs.sum / static_cast<double>(cs.count);
}

Value Min(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "MIN over the empty relation");
  Value best = std::numeric_limits<Value>::max();
  ForEachUnionOfNode(rep, node, [&](const UnionRef& un) {
    best = std::min(best, un.value(0));  // values are sorted
  });
  return best;
}

Value Max(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  FDB_CHECK_MSG(!rep.empty(), "MAX over the empty relation");
  Value best = std::numeric_limits<Value>::min();
  ForEachUnionOfNode(rep, node, [&](const UnionRef& un) {
    best = std::max(best, un.value(un.size() - 1));
  });
  return best;
}

size_t CountDistinct(const FRep& rep, AttrId attr) {
  int node = NodeOfAttr(rep, attr);
  if (rep.empty()) return 0;
  std::unordered_set<Value> seen;
  ForEachUnionOfNode(rep, node, [&](const UnionRef& un) {
    seen.insert(un.values(), un.values() + un.size());
  });
  return seen.size();
}

// ---------------------------------------------------------------------------
// Grouped aggregation (restructure-then-collapse; see aggregate.h).
// ---------------------------------------------------------------------------

namespace {

// Repeated chi swaps until every node whose class meets `group_attrs` has
// only such nodes as ancestors (the grouping classes become the f-tree's
// upper fragment). Swaps are always applicable to a (parent, child) pair;
// each one strictly shrinks the total number of non-group ancestors of
// group nodes, so the loop terminates. Among the applicable swaps the one
// whose resulting tree has the smallest s(T) is taken (greedy; mirrors the
// f-plan optimiser's cost measure without its equality-driven goal test).
// Counts the swaps applied in *swaps.
FRep RestructureForGrouping(const FRep& in, AttrSet group_attrs,
                            EdgeCoverSolver& solver, FPlan* plan_out,
                            size_t* swaps) {
  FRep cur = in;
  for (;;) {
    const FTree& t = cur.tree();
    int best_a = -1, best_b = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int b : t.AliveNodes()) {
      if (!t.node(b).attrs.Intersects(group_attrs)) continue;
      int a = t.node(b).parent;
      if (a == -1 || t.node(a).attrs.Intersects(group_attrs)) continue;
      FTree sim = t;
      sim.SwapTree(a, b);
      double cost = sim.Cost(solver);
      if (cost < best_cost) {
        best_cost = cost;
        best_a = a;
        best_b = b;
      }
    }
    if (best_b == -1) return cur;
    AttrId aa = t.node(best_a).attrs.Min();
    AttrId ba = t.node(best_b).attrs.Min();
    cur = Swap(cur, aa, ba);
    ++*swaps;
    if (plan_out != nullptr) {
      plan_out->steps.push_back(PlanStep::MakeSwap(aa, ba));
    }
  }
}

// Multi-spec statistics of whole sub-representations (the parts below
// the grouping frontier, the global root trees, whole reps for Sum/Avg):
// tuple count plus per-spec sum/min/max of the spec's attribute, per
// reachable union, shared subtrees solved once. For an entry with value v
// and child counts c_1..c_k / child sums s_1..s_k:
//   count contribution:  prod_j c_j
//   sum contribution:    [node has attr] * v * prod_j c_j
//                        + sum_j s_j * prod_{j' != j} c_{j'}
// Counts accumulate in uint64_t and throw on overflow: past 2^64 the
// weighted sum recurrence would silently round, so SUM/AVG refuse.
struct CollapseCtx {
  CollapseCtx(const FRep& r, const std::vector<AggSpec>& s)
      : rep(r),
        specs(s),
        spec_slot(r.tree().pool_size(), std::vector<int>(s.size(), -2)),
        count(r.NumUnions(), 0),
        sum(s.size() * r.NumUnions(), 0.0),
        mn(s.size() * r.NumUnions(), std::numeric_limits<Value>::max()),
        mx(s.size() * r.NumUnions(), std::numeric_limits<Value>::min()),
        weighted(s.size()) {}

  const FRep& rep;
  const std::vector<AggSpec>& specs;
  // spec_slot[node][j]: -1 when spec j's attribute is in the node's own
  // class, a child-slot index when it lives in that child's subtree, -2
  // when absent from the subtree (or spec j is COUNT). Filled by the
  // caller.
  std::vector<std::vector<int>> spec_slot;

  std::vector<uint64_t> count;  ///< [union]
  std::vector<double> sum;      ///< [spec * NumUnions + union]
  std::vector<Value> mn, mx;    ///< [spec * NumUnions + union]
  std::vector<double> weighted;  ///< per-entry scratch of SolveStats
};

// Statistics of union `id` from those of its children, which must be
// solved already. The memo arrays of `c` start zeroed / at the min-max
// sentinels, so stats accumulate into the union's slots directly.
void SolveStats(CollapseCtx& c, uint32_t id) {
  const size_t ns = c.specs.size();
  const size_t nu = c.rep.NumUnions();
  std::vector<double>& weighted = c.weighted;
  UnionRef un = c.rep.u(id);
  const FTreeNode& nd = c.rep.tree().node(un.node());
  const size_t k = nd.children.size();
  const std::vector<int>& slot = c.spec_slot[static_cast<size_t>(un.node())];
  uint64_t total_count = 0;
  for (size_t e = 0; e < un.size(); ++e) {
    uint64_t prod = 1;
    std::fill(weighted.begin(), weighted.end(), 0.0);
    for (size_t j = 0; j < k; ++j) {
      uint32_t ch = un.Child(e, j, k);
      for (size_t s = 0; s < ns; ++s) {
        weighted[s] = weighted[s] * static_cast<double>(c.count[ch]) +
                      c.sum[s * nu + ch] * static_cast<double>(prod);
      }
      prod = MulCount(prod, c.count[ch]);
    }
    total_count = AddCount(total_count, prod);
    for (size_t s = 0; s < ns; ++s) {
      c.sum[s * nu + id] += weighted[s];
      if (slot[s] == -1) {
        c.sum[s * nu + id] += static_cast<double>(un.value(e)) *
                              static_cast<double>(prod);
      } else if (slot[s] >= 0) {
        uint32_t ch = un.Child(e, static_cast<size_t>(slot[s]), k);
        c.mn[s * nu + id] = std::min(c.mn[s * nu + id], c.mn[s * nu + ch]);
        c.mx[s * nu + id] = std::max(c.mx[s * nu + id], c.mx[s * nu + ch]);
      }
    }
  }
  for (size_t s = 0; s < ns; ++s) {
    if (slot[s] == -1) {
      c.mn[s * nu + id] = un.value(0);  // values are sorted
      c.mx[s * nu + id] = un.value(un.size() - 1);
    }
  }
  c.count[id] = total_count;
}

// The collapse: one forward loop over the reachable unions, so every child
// is done before its parents. A union of a node marked in `is_group` goes
// to `group`; every other union is solved.
template <typename Group>
void Collapse(CollapseCtx& c, const std::vector<char>& is_group, Group group) {
  const std::vector<char> reach = c.rep.ReachableUnions();
  // Governance probe: the collapse visits every reachable union, same
  // cancellation window as the CountTuples DP.
  ExecContext* const ctx = ExecContext::Current();
  uint32_t tick = 0;
  for (uint32_t id = 0; id < c.rep.NumUnions(); ++id) {
    if (!reach[id]) continue;
    if (ctx != nullptr && (++tick & 255u) == 0) ctx->CheckCancelled();
    if (is_group[static_cast<size_t>(c.rep.u(id).node())]) {
      group(id);
    } else {
      SolveStats(c, id);
    }
  }
}

// COUNT and SUM(attr) of the whole representation: the collapse DP with
// one SUM spec, pair-combined over the root trees (a product): count
// multiplies; the sum of attr over a product is
// sum_i s_i * prod_{i' != i} c_{i'} — attr lives in exactly one root
// tree, so only one s_i is non-zero.
CountSum SolveForest(const FRep& rep, AttrId attr) {
  const std::vector<AggSpec> specs{{AggFn::kSum, attr}};
  CollapseCtx c(rep, specs);
  c.spec_slot[static_cast<size_t>(rep.tree().FindAttr(attr))][0] = -1;
  Collapse(c, std::vector<char>(rep.tree().pool_size(), 0), [](uint32_t) {});
  CountSum total{1, 0.0};
  for (uint32_t r : rep.roots()) {
    total.sum = total.sum * static_cast<double>(c.count[r]) +
                c.sum[r] * static_cast<double>(total.count);
    total.count = MulCount(total.count, c.count[r]);
  }
  return total;
}

}  // namespace

uint64_t GroupedRep::NumGroups() const {
  return rep.empty() ? 0 : rep.CountTuplesExact();
}

GroupedTable GroupedRep::Materialize(const EnumerateOptions& opts) const {
  GroupedTable tbl;
  tbl.group_schema = group_attrs.ToVector();
  tbl.specs = specs;
  if (rep.empty()) return tbl;
  const FTree& t = rep.tree();
  const size_t ns = specs.size();
  const size_t nk = tbl.group_schema.size();

  // One row per group forest tuple, in the kernel's frame order; each row
  // reports the rep-wide entry index of every step, which keys both the
  // collapsed payloads and the group values (FRep::ValueAt).
  const EnumKernel kernel = EnumKernel::Compile(t, /*visible_only=*/false);
  const size_t nf = kernel.num_steps();
  std::vector<size_t> step_of(t.pool_size(), 0);
  for (size_t i = 0; i < nf; ++i) {
    step_of[static_cast<size_t>(kernel.step_node(i))] = i;
  }
  std::vector<size_t> key_step(nk), spec_step(ns, 0);
  for (size_t c = 0; c < nk; ++c) {
    const int n = t.FindAttr(tbl.group_schema[c]);
    key_step[c] = step_of[static_cast<size_t>(n)];
  }
  for (size_t j = 0; j < ns; ++j) {
    if (spec_node[j] >= 0) {
      spec_step[j] = step_of[static_cast<size_t>(spec_node[j])];
    }
  }

  // The morsel planner partitions the group forest's odometer exactly as
  // it partitions tuple enumeration; each chunk writes its rows into its
  // own slice of the presized table, so the row order matches the
  // sequential walk for every thread count.
  ParallelEnumerator pe(rep, opts, /*visible_only=*/false);
  const std::vector<Morsel>& morsels = pe.plan().morsels;
  std::vector<size_t> first(morsels.size() + 1, 0);
  for (size_t c = 0; c < morsels.size(); ++c) {
    first[c + 1] = first[c] + kernel.CountRows(rep, morsels[c].bounds);
  }
  tbl.num_rows = first.back();
  tbl.keys.resize(tbl.num_rows * nk);
  tbl.aggs.resize(tbl.num_rows * ns);

  const double g_count = static_cast<double>(global_count);
  pe.ForEachChunk([&](size_t c) {
    std::vector<size_t> entries;
    const uint64_t rows = kernel.EmitEntries(rep, morsels[c].bounds, &entries);
    std::vector<double> sums(ns);
    for (size_t r = 0; r < rows; ++r) {
      const size_t* e = entries.data() + r * nf;
      Value* key = tbl.keys.data() + (first[c] + r) * nk;
      double* row = tbl.aggs.data() + (first[c] + r) * ns;
      // Fold the payloads down the group's entries in frame order: the
      // count multiplies, and SUM pair-combines with the count so far.
      uint64_t cnt = 1;
      std::fill(sums.begin(), sums.end(), 0.0);
      for (size_t i = 0; i < nf; ++i) {
        const size_t gi = e[i];
        for (size_t s = 0; s < ns; ++s) {
          sums[s] = sums[s] * static_cast<double>(entry_count[gi]) +
                    entry_sum[s][gi] * static_cast<double>(cnt);
        }
        cnt = MulCount(cnt, entry_count[gi]);
      }
      const uint64_t total = MulCount(cnt, global_count);
      for (size_t j = 0; j < ns; ++j) {
        const AggSpec& sp = specs[j];
        const size_t gi = spec_node[j] >= 0 ? e[spec_step[j]] : 0;
        // Pair-combine of the group-local fold with the global multipliers:
        // SUM = sums[j] * G + global_sum[j] * cnt (exactly one term is
        // non-zero unless the spec's attribute is a group attribute).
        switch (sp.fn) {
          case AggFn::kCount:
            row[j] = static_cast<double>(total);
            break;
          case AggFn::kSum:
          case AggFn::kAvg: {
            double v = spec_where[j] == Where::kGroup
                           ? static_cast<double>(rep.ValueAt(gi)) *
                                 static_cast<double>(total)
                           : sums[j] * g_count +
                                 global_sum[j] * static_cast<double>(cnt);
            row[j] = sp.fn == AggFn::kSum ? v : v / static_cast<double>(total);
            break;
          }
          case AggFn::kMin:
          case AggFn::kMax: {
            Value v = 0;
            if (spec_where[j] == Where::kGroup) {
              v = rep.ValueAt(gi);
            } else if (spec_where[j] == Where::kGlobal) {
              v = sp.fn == AggFn::kMin ? global_min[j] : global_max[j];
            } else {
              v = sp.fn == AggFn::kMin ? entry_min[j][gi] : entry_max[j][gi];
            }
            row[j] = static_cast<double>(v);
            break;
          }
        }
      }
      for (size_t k = 0; k < nk; ++k) key[k] = rep.ValueAt(e[key_step[k]]);
    }
  });
  return tbl;
}

GroupedRep GroupByAggregate(const FRep& in, AttrSet group_attrs,
                            std::vector<AggSpec> specs,
                            EdgeCoverSolver* solver, FPlan* plan_out,
                            QueryTrace* trace) {
  for (AttrId a : group_attrs) {
    FDB_CHECK_MSG(in.tree().FindAttr(a) >= 0,
                  "GROUP BY attribute not in the f-tree");
  }
  for (const AggSpec& s : specs) {
    if (s.fn == AggFn::kCount) continue;
    FDB_CHECK_MSG(in.tree().FindAttr(s.attr) >= 0,
                  std::string(AggFnName(s.fn)) +
                      " attribute not in the f-tree");
  }

  FRep cur{FTree{}};
  {
    QueryTrace::Scope span(trace, "restructure");
    EdgeCoverSolver local_solver;
    size_t swaps = 0;
    cur = RestructureForGrouping(in, group_attrs,
                                 solver != nullptr ? *solver : local_solver,
                                 plan_out, &swaps);
    span.SetRows(swaps);
    span.SetBytes(cur.MemoryBytes());
  }
  QueryTrace::Scope collapse_span(trace, "collapse");
  const FTree& t = cur.tree();
  const size_t ns = specs.size();

  std::vector<char> is_group(t.pool_size(), 0);
  for (int n : t.AliveNodes()) {
    if (t.node(n).attrs.Intersects(group_attrs)) {
      is_group[static_cast<size_t>(n)] = 1;
    }
  }

  // The group forest: copies of the grouping nodes with structure (and
  // child order) preserved. Pre-order guarantees parents come first; every
  // group node's parent is a group node after restructuring.
  std::vector<int> order = t.PreOrder();
  FTree gt;
  std::vector<int> new_node(t.pool_size(), -1);
  for (int n : order) {
    if (!is_group[static_cast<size_t>(n)]) continue;
    const FTreeNode& nd = t.node(n);
    int nn = gt.NewNode(nd.attrs, nd.visible, nd.cover_rels, nd.dep_rels);
    gt.node(nn).constant = nd.constant;
    new_node[static_cast<size_t>(n)] = nn;
    if (nd.parent == -1) {
      gt.AttachRoot(nn);
    } else {
      gt.AttachChild(new_node[static_cast<size_t>(nd.parent)], nn);
    }
  }

  // Attribute containment per subtree (reverse pre-order), used to place
  // each spec and to route MIN/MAX through the child that owns the attr.
  std::vector<AttrSet> sub_attrs(t.pool_size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const FTreeNode& nd = t.node(*it);
    AttrSet s = nd.attrs;
    for (int c : nd.children) s = s.Union(sub_attrs[static_cast<size_t>(c)]);
    sub_attrs[static_cast<size_t>(*it)] = s;
  }

  GroupedRep out;
  out.group_attrs = group_attrs;
  out.specs = std::move(specs);
  out.spec_where.assign(ns, GroupedRep::Where::kNone);
  out.spec_node.assign(ns, -1);
  out.entry_sum.assign(ns, {});
  out.entry_min.assign(ns, {});
  out.entry_max.assign(ns, {});
  out.global_sum.assign(ns, 0.0);
  out.global_min.assign(ns, std::numeric_limits<Value>::max());
  out.global_max.assign(ns, std::numeric_limits<Value>::min());

  for (size_t j = 0; j < ns; ++j) {
    if (out.specs[j].fn == AggFn::kCount) continue;
    int n = t.FindAttr(out.specs[j].attr);
    if (is_group[static_cast<size_t>(n)]) {
      out.spec_where[j] = GroupedRep::Where::kGroup;
      out.spec_node[j] = new_node[static_cast<size_t>(n)];
      continue;
    }
    // Climb to the top of the non-group region containing n.
    int p = n;
    while (t.node(p).parent != -1 &&
           !is_group[static_cast<size_t>(t.node(p).parent)]) {
      p = t.node(p).parent;
    }
    if (t.node(p).parent == -1) {
      out.spec_where[j] = GroupedRep::Where::kGlobal;
    } else {
      out.spec_where[j] = GroupedRep::Where::kBelow;
      out.spec_node[j] =
          new_node[static_cast<size_t>(t.node(p).parent)];
    }
  }

  if (cur.empty()) {
    out.rep = FRep{std::move(gt)};
    FDB_VALIDATE_GROUPED(out);
    collapse_span.SetBytes(out.rep.MemoryBytes());
    return out;
  }

  // Collapse context (per-node spec routing plus the memoised DP).
  CollapseCtx ctx(cur, out.specs);
  for (int n : t.AliveNodes()) {
    const FTreeNode& nd = t.node(n);
    for (size_t j = 0; j < ns; ++j) {
      if (out.specs[j].fn == AggFn::kCount) continue;
      AttrId a = out.specs[j].attr;
      if (nd.attrs.Contains(a)) {
        ctx.spec_slot[static_cast<size_t>(n)][j] = -1;
      } else {
        for (size_t c = 0; c < nd.children.size(); ++c) {
          if (sub_attrs[static_cast<size_t>(nd.children[c])].Contains(a)) {
            ctx.spec_slot[static_cast<size_t>(n)][j] = static_cast<int>(c);
            break;
          }
        }
      }
    }
  }
  const size_t nu = cur.NumUnions();

  // Rebuild the group forest's unions, collapsing every removed child
  // slot into the owning entry's payload. The collapse loop reaches a
  // group union after all of its children, so its group children are
  // already rebuilt (shared subtrees of a DAG input — the restructuring
  // swaps share T_A copies; hand-built and deserialised reps may share
  // too — stay shared in the grouped rep) and its removed children
  // already solved.
  FRep grep{std::move(gt)};
  grep.MarkNonEmpty();
  // Per-node slot split, aligned with the new tree's child order.
  std::vector<std::vector<size_t>> group_slots(t.pool_size());
  std::vector<std::vector<size_t>> removed_slots(t.pool_size());
  for (int n : t.AliveNodes()) {
    if (!is_group[static_cast<size_t>(n)]) continue;
    const auto& ch = t.node(n).children;
    for (size_t c = 0; c < ch.size(); ++c) {
      if (is_group[static_cast<size_t>(ch[c])]) {
        group_slots[static_cast<size_t>(n)].push_back(c);
      } else {
        removed_slots[static_cast<size_t>(n)].push_back(c);
      }
    }
  }

  std::vector<uint32_t> rebuilt(nu);  // [union of cur] -> group forest id
  std::vector<double> esum(ns);
  Collapse(ctx, is_group, [&](uint32_t id) {
    UnionRef un = cur.u(id);
    const int n = un.node();
    const size_t k = t.node(n).children.size();
    const auto& gslots = group_slots[static_cast<size_t>(n)];
    const auto& rslots = removed_slots[static_cast<size_t>(n)];

    UnionBuilder nb = grep.StartUnion(new_node[static_cast<size_t>(n)]);
    nb.CopyValues(un);
    const size_t len = un.size();
    std::vector<uint64_t> pcount(len, 1);
    std::vector<double> psum(ns * len, 0.0);
    std::vector<Value> pmin(ns * len, std::numeric_limits<Value>::max());
    std::vector<Value> pmax(ns * len, std::numeric_limits<Value>::min());
    for (size_t e = 0; e < len; ++e) {
      for (size_t j : gslots) nb.AddChild(rebuilt[un.Child(e, j, k)]);
      uint64_t cnt = 1;
      std::fill(esum.begin(), esum.end(), 0.0);
      for (size_t j : rslots) {
        uint32_t ch = un.Child(e, j, k);
        for (size_t s = 0; s < ns; ++s) {
          esum[s] = esum[s] * static_cast<double>(ctx.count[ch]) +
                    ctx.sum[s * nu + ch] * static_cast<double>(cnt);
          if (out.specs[s].fn != AggFn::kCount &&
              sub_attrs[static_cast<size_t>(t.node(n).children[j])].Contains(
                  out.specs[s].attr)) {
            pmin[s * len + e] = ctx.mn[s * nu + ch];
            pmax[s * len + e] = ctx.mx[s * nu + ch];
          }
        }
        cnt = MulCount(cnt, ctx.count[ch]);
      }
      pcount[e] = cnt;
      for (size_t s = 0; s < ns; ++s) psum[s * len + e] = esum[s];
    }
    uint32_t nid = nb.Finish();
    const size_t off = grep.u(nid).arena_offset();
    // Commit order equals arena order, so the payload arrays grow exactly
    // in step with the value arena.
    FDB_CHECK(off == out.entry_count.size());
    out.entry_count.insert(out.entry_count.end(), pcount.begin(),
                           pcount.end());
    for (size_t s = 0; s < ns; ++s) {
      out.entry_sum[s].insert(out.entry_sum[s].end(), &psum[s * len],
                              &psum[s * len] + len);
      out.entry_min[s].insert(out.entry_min[s].end(), &pmin[s * len],
                              &pmin[s * len] + len);
      out.entry_max[s].insert(out.entry_max[s].end(), &pmax[s * len],
                              &pmax[s * len] + len);
    }
    rebuilt[id] = nid;
  });

  // Global root trees (no grouping class anywhere) pair-combine into the
  // global multipliers; group root trees are the group forest's roots.
  for (size_t i = 0; i < cur.roots().size(); ++i) {
    const int rn = t.roots()[i];
    const uint32_t rid = cur.roots()[i];
    if (is_group[static_cast<size_t>(rn)]) {
      grep.roots().push_back(rebuilt[rid]);
      continue;
    }
    for (size_t s = 0; s < ns; ++s) {
      out.global_sum[s] =
          out.global_sum[s] * static_cast<double>(ctx.count[rid]) +
          ctx.sum[s * nu + rid] * static_cast<double>(out.global_count);
      if (out.specs[s].fn != AggFn::kCount &&
          sub_attrs[static_cast<size_t>(rn)].Contains(out.specs[s].attr)) {
        out.global_min[s] = ctx.mn[s * nu + rid];
        out.global_max[s] = ctx.mx[s * nu + rid];
      }
    }
    out.global_count = MulCount(out.global_count, ctx.count[rid]);
  }
  out.rep = std::move(grep);
  FDB_VALIDATE_GROUPED(out);
  collapse_span.SetBytes(out.rep.MemoryBytes());
  return out;
}

}  // namespace fdb
