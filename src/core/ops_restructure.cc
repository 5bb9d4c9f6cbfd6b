#include <algorithm>
#include <queue>
#include <tuple>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/validate.h"

namespace fdb {

// Both operators run the shared walk of ops_common.h (RebuildForest) and
// keep only their step at one node. PushUp's output is tree-shaped
// (CopyTree is unmemoised). Swap shares instead of duplicating: each
// A-entry's independent T_A subtrees are copied once and referenced from
// every B-value the entry pairs with, so its output is a d-representation
// (a DAG) whose physical size stays linear in the input, while the tree it
// expands to grows as the paper's size bounds account for.
using ops_internal::CopyTree;
using ops_internal::kNoUnion;
using ops_internal::RebuildForest;

FRep PushUp(const FRep& in, AttrId b_attr) {
  const FTree& t = in.tree();
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(b >= 0, "push-up attribute not in the f-tree");
  const int a = t.node(b).parent;
  FDB_CHECK_MSG(a != -1, "cannot push up a root node");
  FDB_CHECK_MSG(!t.DependentOnSubtree(a, b),
                "push-up would violate the path constraint: parent depends "
                "on the lifted subtree");

  const auto& a_children = t.node(a).children;
  const size_t slot_b = static_cast<size_t>(
      std::find(a_children.begin(), a_children.end(), b) - a_children.begin());
  const size_t ka = a_children.size();
  const int g = t.node(a).parent;

  FTree new_tree = t;
  new_tree.PushUpTree(b);

  FRep out(std::move(new_tree));
  if (in.empty()) return out;

  // Rebuilds one occurrence of A's union without its B slot; the hoisted
  // B-union is taken from the first entry (all copies are equal because
  // neither B nor its subtree depends on A).
  auto rebuild_a = [&](uint32_t id, uint32_t* hoisted_b) {
    UnionRef un = in.u(id);
    FDB_CHECK(un.node() == a);
    *hoisted_b = CopyTree(in, un.Child(0, slot_b, ka), &out);
    UnionBuilder na = out.StartUnion(a);
    na.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < ka; ++j) {
        if (j == slot_b) continue;
        na.AddChild(CopyTree(in, un.Child(e, j, ka), &out));
      }
    }
    return na.Finish();
  };

  if (g == -1) {
    // A is a root: the hoisted B becomes a new root right after A.
    out.MarkNonEmpty();
    for (size_t i = 0; i < in.roots().size(); ++i) {
      uint32_t r = in.roots()[i];
      if (in.u(r).node() == a) {
        uint32_t hb = kNoUnion;
        uint32_t na = rebuild_a(r, &hb);
        out.roots().push_back(na);
        out.roots().push_back(hb);
      } else {
        out.roots().push_back(CopyTree(in, r, &out));
      }
    }
    return out;
  }

  // Otherwise rebuild along the path to G; each G-entry gains a new last
  // slot holding the B-union extracted from that entry's A-union.
  const size_t kg = t.node(g).children.size();
  const auto& g_children = t.node(g).children;
  const size_t slot_a = static_cast<size_t>(
      std::find(g_children.begin(), g_children.end(), a) - g_children.begin());
  RebuildForest(in, g, &out, [&](uint32_t id) {
    UnionRef un = in.u(id);
    UnionBuilder ng = out.StartUnion(g);
    ng.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      uint32_t hb = kNoUnion;
      for (size_t j = 0; j < kg; ++j) {
        uint32_t c = un.Child(e, j, kg);
        ng.AddChild(j == slot_a ? rebuild_a(c, &hb) : CopyTree(in, c, &out));
      }
      ng.AddChild(hb);  // new last slot for B
    }
    return ng.Finish();
  });
  FDB_VALIDATE_REP(out);
  return out;
}

FRep Normalize(const FRep& in) {
  FRep cur = in;
  for (int n; (n = cur.tree().NextPushUp()) != -1;) {
    cur = PushUp(cur, cur.tree().node(n).attrs.Min());
  }
  FDB_VALIDATE_REP(cur);
  return cur;
}

FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "swap attribute not in the f-tree");
  FDB_CHECK_MSG(t.node(b).parent == a,
                "swap requires the second node to be a child of the first");

  const auto& a_children = t.node(a).children;
  const size_t ka = a_children.size();
  const size_t slot_b = static_cast<size_t>(
      std::find(a_children.begin(), a_children.end(), b) - a_children.begin());
  // T_A: A's other children, in order.
  std::vector<size_t> ta_slots;
  for (size_t j = 0; j < ka; ++j) {
    if (j != slot_b) ta_slots.push_back(j);
  }
  // Partition B's children exactly as SwapTree does (on the old tree).
  const auto& b_children = t.node(b).children;
  const size_t kb = b_children.size();
  std::vector<size_t> tb_slots, tab_slots;
  for (size_t j = 0; j < kb; ++j) {
    if (t.DependentOnSubtree(a, b_children[j])) {
      tab_slots.push_back(j);
    } else {
      tb_slots.push_back(j);
    }
  }

  FTree new_tree = t;
  new_tree.SwapTree(a, b);

  FRep out(std::move(new_tree));
  if (in.empty()) return out;

  // Fig. 4: regroups one occurrence of A's union by B-values using a
  // min-priority queue of (b value, A-entry index, position).
  auto swap_union = [&](uint32_t id) -> uint32_t {
    UnionRef un = in.u(id);
    FDB_CHECK(un.node() == a);
    using Key = std::tuple<Value, size_t, size_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> pq;
    for (size_t e = 0; e < un.size(); ++e) {
      pq.push({in.u(un.Child(e, slot_b, ka)).value(0), e, 0});
    }
    // T_A copies, one per (A-entry, T_A slot), made on first use and
    // referenced by every new A-entry of that entry, whatever B-value it
    // pairs with: neither A's value nor T_A depends on B, so the copies
    // are equal. The key is positional, so a shared input subtree is still
    // copied once per position and the output does not depend on how the
    // input is shared.
    std::vector<uint32_t> ta_copy(un.size() * ta_slots.size(), kNoUnion);
    UnionBuilder nb = out.StartUnion(b);
    while (!pq.empty()) {
      const Value bmin = std::get<0>(pq.top());
      UnionBuilder va = out.StartUnion(a);  // the union V_bmin of paired A's
      std::vector<uint32_t> fb;             // T_B children of bmin, once
      bool captured = false;
      while (!pq.empty() && std::get<0>(pq.top()) == bmin) {
        auto [bv, e, pos] = pq.top();
        pq.pop();
        UnionRef ub = in.u(un.Child(e, slot_b, ka));
        if (!captured) {
          for (size_t j : tb_slots) {
            fb.push_back(CopyTree(in, ub.Child(pos, j, kb), &out));
          }
          captured = true;
        }
        // New A entry: value a_e with children T_A then T_AB.
        va.AddValue(un.value(e));
        for (size_t i = 0; i < ta_slots.size(); ++i) {
          uint32_t& c = ta_copy[e * ta_slots.size() + i];
          if (c == kNoUnion) {
            c = CopyTree(in, un.Child(e, ta_slots[i], ka), &out);
          }
          va.AddChild(c);
        }
        for (size_t j : tab_slots) {
          va.AddChild(CopyTree(in, ub.Child(pos, j, kb), &out));
        }
        if (pos + 1 < ub.size()) {
          pq.push({ub.value(pos + 1), e, pos + 1});
        }
      }
      uint32_t va_id = va.Finish();
      nb.AddValue(bmin);
      for (uint32_t f : fb) nb.AddChild(f);
      nb.AddChild(va_id);  // A is B's last child
    }
    return nb.Finish();
  };

  RebuildForest(in, a, &out, swap_union);
  FDB_VALIDATE_REP(out);
  return out;
}

}  // namespace fdb
