#include "core/ground.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/exec_context.h"
#include "common/fault.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

using ops_internal::kNoUnion;

FRep GroundQuery(const FTree& tree, const std::vector<const Relation*>& rels,
                 const std::vector<ConstPred>& preds, QueryTrace* trace) {
  QueryTrace::Scope span(trace, "ground");
  tree.Validate();
  FDB_CHECK_MSG(tree.SatisfiesPathConstraint(),
                "grounding requires an f-tree satisfying the path constraint");

  const size_t nrels = rels.size();

  // Which tree nodes each relation covers, ancestor-first.
  std::vector<std::vector<int>> rel_nodes(nrels);
  for (int n : tree.AliveNodes()) {
    const FTreeNode& nd = tree.node(n);
    FDB_CHECK_MSG(nd.constant || !nd.cover_rels.Empty(),
                  "f-tree node with no covering relation");
    for (AttrId r : nd.cover_rels) {
      FDB_CHECK_MSG(r < nrels, "f-tree references a missing relation");
      rel_nodes[r].push_back(n);
    }
  }
  for (auto& nodes : rel_nodes) {
    std::sort(nodes.begin(), nodes.end(),
              [&](int x, int y) { return tree.Depth(x) < tree.Depth(y); });
  }

  // Governance: grounding dominates pathological queries, so it probes the
  // ambient ExecContext (common/exec_context.h) at two granularities — per
  // relation prepared (each sort+filter is one uninterruptible block) and
  // per leapfrog iteration inside build (a relaxed atomic load; the clock
  // is strided inside CheckCancelled).
  ExecContext* const ctx = ExecContext::Current();

  // Per relation: the rows grounding reads, sorted by its classes in
  // ancestor-first order, and the column of each f-tree node it covers
  // (SIZE_MAX if none). The sorted rows come from the relation's cache
  // (Relation::SortedBy); a relation with predicates on it is filtered,
  // order-preserving, into a private copy, any other is read in place.
  std::vector<std::shared_ptr<const Relation>> rows(nrels);
  std::vector<std::vector<size_t>> node_col(nrels);
  uint64_t relations_sorted = 0;
  for (size_t r = 0; r < nrels; ++r) {
    if (rel_nodes[r].empty()) continue;  // covers no node: never read
    if (ctx != nullptr) ctx->CheckCancelled();
    FDB_FAULT_POINT("ground_prepare_relation");
    const Relation& rel = *rels[r];
    node_col[r].assign(tree.pool_size(), SIZE_MAX);
    // Intra-relation equalities: several attributes of this relation in one
    // class must agree; the first becomes the representative column.
    std::vector<size_t> sort_cols;
    std::vector<std::vector<size_t>> equal_cols;
    for (int n : rel_nodes[r]) {
      std::vector<size_t> cols;
      for (AttrId a : tree.node(n).attrs) {
        if (rel.HasAttr(a)) cols.push_back(rel.ColumnOf(a));
      }
      FDB_CHECK(!cols.empty());
      node_col[r][static_cast<size_t>(n)] = cols[0];
      sort_cols.push_back(cols[0]);
      if (cols.size() > 1) equal_cols.push_back(std::move(cols));
    }
    bool did_sort = false;
    rows[r] = rel.SortedBy(sort_cols, &did_sort);
    relations_sorted += did_sort ? 1 : 0;

    // Constant predicates on this relation's attributes.
    std::vector<std::pair<size_t, const ConstPred*>> col_preds;
    for (const ConstPred& p : preds) {
      if (rel.HasAttr(p.attr)) col_preds.push_back({rel.ColumnOf(p.attr), &p});
    }
    if (col_preds.empty() && equal_cols.empty()) continue;
    auto f = std::make_shared<Relation>(*rows[r]);
    f->Filter([&](size_t row) {
      for (const auto& [col, p] : col_preds) {
        if (!EvalCmp(f->At(row, col), p->op, p->value)) return false;
      }
      for (const std::vector<size_t>& cols : equal_cols) {
        for (size_t i = 1; i < cols.size(); ++i) {
          if (f->At(row, cols[i]) != f->At(row, cols[0])) return false;
        }
      }
      return true;
    });
    rows[r] = std::move(f);
  }
  span.SetRows(relations_sorted);

  FRep out{FTree(tree)};

  // Current row range per relation, narrowed as we bind values down a path.
  std::vector<std::pair<size_t, size_t>> range(nrels);
  for (size_t r = 0; r < nrels; ++r) {
    range[r] = {0, rows[r] != nullptr ? rows[r]->size() : 0};
  }

  // Builds the union for tree node n under the current ranges; kNoUnion if
  // no value survives.
  auto build = [&](auto&& self, int n) -> uint32_t {
    const FTreeNode& nd = tree.node(n);
    std::vector<AttrId> here = nd.cover_rels.ToVector();
    FDB_CHECK(!here.empty());
    FDB_FAULT_POINT("ground_build_union");
    UnionBuilder nu = out.StartUnion(n);

    // Leapfrog over the covering relations' sorted columns.
    std::vector<size_t> cursor(here.size());
    for (size_t i = 0; i < here.size(); ++i) {
      cursor[i] = range[here[i]].first;
    }
    for (;;) {
      if (ctx != nullptr) ctx->CheckCancelled();
      // Propose the max of the current heads; stop if any range is done.
      bool exhausted = false;
      Value v = std::numeric_limits<Value>::min();
      for (size_t i = 0; i < here.size(); ++i) {
        size_t r = here[i];
        if (cursor[i] >= range[r].second) {
          exhausted = true;
          break;
        }
        v = std::max(
            v, rows[r]->At(cursor[i], node_col[r][static_cast<size_t>(n)]));
      }
      if (exhausted) break;
      // Advance every head to >= v; if any overshoots, retry with larger v.
      bool agree = true;
      for (size_t i = 0; i < here.size(); ++i) {
        size_t r = here[i];
        const size_t col = node_col[r][static_cast<size_t>(n)];
        cursor[i] = rows[r]->LowerBound(cursor[i], range[r].second, col, v);
        if (cursor[i] >= range[r].second) {
          agree = false;
          exhausted = true;
          break;
        }
        if (rows[r]->At(cursor[i], col) != v) agree = false;
      }
      if (exhausted) break;
      if (!agree) continue;

      // All covering relations contain v: narrow and recurse.
      std::vector<std::pair<size_t, size_t>> saved(here.size());
      for (size_t i = 0; i < here.size(); ++i) {
        size_t r = here[i];
        const size_t col = node_col[r][static_cast<size_t>(n)];
        saved[i] = range[r];
        const size_t end =
            rows[r]->LowerBound(cursor[i], range[r].second, col, v + 1);
        range[r] = {cursor[i], end};
      }
      std::vector<uint32_t> kids;
      bool dead = false;
      for (int c : nd.children) {
        uint32_t cid = self(self, c);
        if (cid == kNoUnion) {
          dead = true;
          break;
        }
        kids.push_back(cid);
      }
      // Restore: continue after v's block.
      for (size_t i = 0; i < here.size(); ++i) {
        size_t r = here[i];
        cursor[i] = range[r].second;
        range[r] = saved[i];
      }
      if (!dead) {
        nu.AddValue(v);
        for (uint32_t kid : kids) nu.AddChild(kid);
      }
    }
    if (nu.empty()) {
      nu.Abandon();
      return kNoUnion;
    }
    return nu.Finish();
  };

  out.MarkNonEmpty();
  for (int root : tree.roots()) {
    uint32_t rid = build(build, root);
    if (rid == kNoUnion) {
      out.MarkEmpty();
      span.SetBytes(out.MemoryBytes());
      return out;
    }
    out.roots().push_back(rid);
  }
  FDB_VALIDATE_REP(out);
  span.SetBytes(out.MemoryBytes());
  return out;
}

FRep GroundRelation(const Relation& rel, int rel_index, QueryTrace* trace) {
  FDB_CHECK_MSG(rel.arity() > 0, "cannot factorise a nullary relation");
  FTree tree = PathFTree(rel.schema(), rel_index);
  std::vector<const Relation*> rels(static_cast<size_t>(rel_index) + 1,
                                    nullptr);
  // Only the slot at rel_index is used; earlier slots are placeholders for
  // queries where this relation is not the first.
  Relation empty({});
  for (auto& p : rels) p = &empty;
  rels[static_cast<size_t>(rel_index)] = &rel;
  return GroundQuery(tree, rels, {}, trace);
}

}  // namespace fdb
