#include <algorithm>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

using ops_internal::CopyTree;
using ops_internal::RebuildForest;

namespace {

// Removes a fully projected *leaf* node: its unions disappear and the
// parent's dependency set inherits the leaf's (§3.4). Dropping a leaf union
// never empties anything and never duplicates tuples — which is exactly why
// projection sinks marked nodes to the leaves first.
FRep RemoveInvisibleLeaf(const FRep& in, int n) {
  const FTree& t = in.tree();
  const int p = t.node(n).parent;

  FTree new_tree = t;
  new_tree.RemoveLeaf(n);

  FRep out(std::move(new_tree));
  if (in.empty()) return out;

  if (p == -1) {
    out.MarkNonEmpty();
    for (uint32_t r : in.roots()) {
      if (in.u(r).node() == n) continue;
      out.roots().push_back(CopyTree(in, r, &out));
    }
    return out;
  }

  const auto& p_children = t.node(p).children;
  const size_t kp = p_children.size();
  const size_t slot_n = static_cast<size_t>(
      std::find(p_children.begin(), p_children.end(), n) - p_children.begin());
  RebuildForest(in, p, &out, [&](uint32_t id) {
    UnionRef un = in.u(id);
    UnionBuilder nu = out.StartUnion(p);
    nu.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < kp; ++j) {
        if (j == slot_n) continue;  // dropped slot
        nu.AddChild(CopyTree(in, un.Child(e, j, kp), &out));
      }
    }
    return nu.Finish();
  });
  FDB_VALIDATE_REP(out);
  return out;
}

}  // namespace

// pi_keep (§3.4): mark attributes, sink fully marked nodes to the leaves by
// swapping them with a child, remove them there, then normalise.
FRep Project(const FRep& in, AttrSet keep) {
  FRep cur = in;
  cur.tree().RestrictVisible(keep);
  for (int n; (n = cur.tree().NextToProject()) != -1;) {
    const FTreeNode& nd = cur.tree().node(n);
    if (nd.children.empty()) {
      cur = RemoveInvisibleLeaf(cur, n);
    } else {
      // chi_{n, first child}: the child takes n's place; n sinks.
      AttrId ca = cur.tree().node(nd.children.front()).attrs.Min();
      cur = Swap(cur, nd.attrs.Min(), ca);
    }
  }
  return Normalize(cur);
}

}  // namespace fdb
