#include "core/ops.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

namespace {

// Appends t2's nodes to t1 (ids shifted); returns the id offset.
int AppendForest(FTree* t1, const FTree& t2) {
  int offset = static_cast<int>(t1->pool_size());
  for (size_t i = 0; i < t2.pool_size(); ++i) {
    const FTreeNode& n = t2.node(static_cast<int>(i));
    int id = t1->NewNode(n.attrs, n.visible, n.cover_rels, n.dep_rels);
    FTreeNode& nn = t1->node(id);
    nn.constant = n.constant;
    nn.alive = n.alive;
    nn.parent = n.parent == -1 ? -1 : n.parent + offset;
    nn.children.reserve(n.children.size());
    for (int c : n.children) nn.children.push_back(c + offset);
  }
  for (int r : t2.roots()) t1->AttachRoot(r + offset);
  return offset;
}

}  // namespace

FRep Product(const FRep& e1, const FRep& e2) {
  const FTree& t1 = e1.tree();
  const FTree& t2 = e2.tree();
  FDB_CHECK_MSG(!t1.AllAttrs().Intersects(t2.AllAttrs()),
                "product inputs must have disjoint attributes");
  // Relation indices must be disjoint too: dependency sets would otherwise
  // incorrectly link the two forests.
  RelSet r1, r2;
  for (int n : t1.AliveNodes()) r1 = r1.Union(t1.node(n).dep_rels);
  for (int n : t2.AliveNodes()) r2 = r2.Union(t2.node(n).dep_rels);
  FDB_CHECK_MSG(!r1.Intersects(r2),
                "product inputs must use disjoint relation indices");

  FTree tree = t1;
  const int node_offset = AppendForest(&tree, t2);
  FRep out(std::move(tree));
  if (e1.empty() || e2.empty()) return out;  // empty x E = empty

  out.MarkNonEmpty();
  // Copy e1's unions as-is, then e2's with shifted tree-node ids.
  for (uint32_t r : e1.roots()) {
    out.roots().push_back(ops_internal::CopyTree(e1, r, &out));
  }
  for (uint32_t r : e2.roots()) {
    out.roots().push_back(ops_internal::CopyTree(e2, r, &out, node_offset));
  }
  FDB_VALIDATE_REP(out);
  return out;
}

namespace ops_internal {

uint32_t CopyTree(const FRep& src, uint32_t id, FRep* dst, int node_offset) {
  UnionRef un = src.u(id);
  UnionBuilder b = dst->StartUnion(un.node() + node_offset);
  b.CopyValues(un);
  for (size_t i = 0; i < un.num_children(); ++i) {
    b.AddChild(CopyTree(src, un.child(i), dst, node_offset));
  }
  return b.Finish();
}

std::vector<char> SubtreeContains(const FTree& tree, int target) {
  std::vector<char> out(tree.pool_size(), 0);
  out[static_cast<size_t>(target)] = 1;
  // Mark ancestors of target: a subtree contains target iff its root is an
  // ancestor of target (or target itself).
  for (int x = tree.node(target).parent; x != -1; x = tree.node(x).parent) {
    out[static_cast<size_t>(x)] = 1;
  }
  return out;
}

}  // namespace ops_internal

}  // namespace fdb
