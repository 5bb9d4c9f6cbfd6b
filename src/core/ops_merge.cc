#include <algorithm>
#include <utility>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/simd.h"
#include "core/validate.h"

namespace fdb {

using ops_internal::CopyTree;
using ops_internal::kNoUnion;
using ops_internal::RebuildEntries;
using ops_internal::RebuildForest;
using ops_internal::RebuildPath;
using ops_internal::SubtreeContains;

// mu_{A,B} (§3.3, Fig. 3(c)): sort-merge join of two sibling unions. The
// merged node keeps A's id; its child slots are A's followed by B's.
FRep Merge(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  const int a = t.FindAttr(a_attr);
  const int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "merge attribute not in the f-tree");
  if (a == b) return in;  // the condition already holds (same class)
  FDB_CHECK_MSG(t.node(a).parent == t.node(b).parent,
                "merge requires sibling nodes (or two roots)");

  const int p = t.node(a).parent;
  const size_t ka = t.node(a).children.size();
  const size_t kb = t.node(b).children.size();

  FTree new_tree = t;
  new_tree.MergeTree(a, b);

  FRep out(std::move(new_tree));
  if (in.empty()) return out;

  // Sort-merge two unions; kNoUnion when the intersection is empty. The
  // value intersection runs first over the two contiguous arena windows
  // (branch-free / galloping, core/simd.h) — the child-copying pass then
  // only touches matching entries.
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  auto merge_unions = [&](uint32_t ida, uint32_t idb) -> uint32_t {
    UnionRef ua = in.u(ida);
    UnionRef ub = in.u(idb);
    matches.clear();
    simd::IntersectSorted(ua.values(), ua.size(), ub.values(), ub.size(),
                          &matches);
    if (matches.empty()) return kNoUnion;
    UnionBuilder m = out.StartUnion(a);
    for (const auto& [i, j] : matches) {
      m.AddValue(ua.value(i));
      for (size_t s = 0; s < ka; ++s) {
        m.AddChild(CopyTree(in, ua.Child(i, s, ka), &out));
      }
      for (size_t s = 0; s < kb; ++s) {
        m.AddChild(CopyTree(in, ub.Child(j, s, kb), &out));
      }
    }
    return m.Finish();
  };

  if (p == -1) {
    // Two root unions join at the top level.
    out.MarkNonEmpty();
    uint32_t ida = kNoUnion, idb = kNoUnion;
    for (size_t i = 0; i < in.roots().size(); ++i) {
      int n = in.u(in.roots()[i]).node();
      if (n == a) ida = in.roots()[i];
      if (n == b) idb = in.roots()[i];
    }
    FDB_CHECK(ida != kNoUnion && idb != kNoUnion);
    uint32_t merged = merge_unions(ida, idb);
    if (merged == kNoUnion) {
      out.MarkEmpty();
      return out;
    }
    for (uint32_t r : in.roots()) {
      int n = in.u(r).node();
      if (n == a) {
        out.roots().push_back(merged);
      } else if (n == b) {
        continue;  // removed root
      } else {
        out.roots().push_back(CopyTree(in, r, &out));
      }
    }
    return out;
  }

  // Interior case: rebuild along the path to P; P-entries whose sibling
  // unions have an empty intersection are dropped, cascading upwards.
  const size_t kp = t.node(p).children.size();
  const auto& p_children = t.node(p).children;
  const size_t slot_a = static_cast<size_t>(
      std::find(p_children.begin(), p_children.end(), a) - p_children.begin());
  const size_t slot_b = static_cast<size_t>(
      std::find(p_children.begin(), p_children.end(), b) - p_children.begin());
  RebuildForest(in, p, &out, [&](uint32_t id) -> uint32_t {
    UnionRef un = in.u(id);
    UnionBuilder nu = out.StartUnion(p);
    for (size_t e = 0; e < un.size(); ++e) {
      uint32_t merged =
          merge_unions(un.Child(e, slot_a, kp), un.Child(e, slot_b, kp));
      if (merged == kNoUnion) continue;
      // New slot layout: old slots with B removed; merged union replaces A.
      nu.AddValue(un.value(e));
      for (size_t j = 0; j < kp; ++j) {
        if (j == slot_b) continue;
        nu.AddChild(j == slot_a ? merged
                                : CopyTree(in, un.Child(e, j, kp), &out));
      }
    }
    if (nu.empty()) {
      nu.Abandon();
      return kNoUnion;
    }
    return nu.Finish();
  });
  FDB_VALIDATE_REP(out);
  return out;
}

// alpha_{A,B} (§3.3, Fig. 3(d)): restrict each B-union to the value of its
// A-ancestor, splice the now-degenerate B node out, then normalise.
FRep Absorb(const FRep& in, AttrId a_attr, AttrId b_attr) {
  const FTree& t = in.tree();
  int a = t.FindAttr(a_attr);
  int b = t.FindAttr(b_attr);
  FDB_CHECK_MSG(a >= 0 && b >= 0, "absorb attribute not in the f-tree");
  if (a == b) return in;  // same class: condition already holds
  if (t.IsAncestor(b, a)) std::swap(a, b);  // orient: a above b
  FDB_CHECK_MSG(t.IsAncestor(a, b),
                "absorb requires ancestor/descendant classes");

  // ---- Phase 1: restrict (tree unchanged). Each A-entry rebuilds its
  // paths down to B, keeping only the B-entry with the A-entry's value. ----
  const size_t ka = t.node(a).children.size();
  const size_t kb = t.node(b).children.size();
  const std::vector<char> to_b = SubtreeContains(t, b);
  FRep mid(t);
  if (!in.empty()) {
    RebuildForest(in, a, &mid, [&](uint32_t id) {
      const UnionRef ua = in.u(id);
      return RebuildEntries(ua, ka, &mid, [&](size_t e, size_t j) {
        const Value av = ua.value(e);
        auto restrict_b = [&](uint32_t bid) -> uint32_t {
          const UnionRef ub = in.u(bid);
          // Branchless point lookup in the contiguous value window.
          const size_t i = simd::FindValue(ub.values(), ub.size(), av);
          if (i == ub.size()) return kNoUnion;
          UnionBuilder nu = mid.StartUnion(b);
          nu.AddValue(av);
          for (size_t s = 0; s < kb; ++s) {
            nu.AddChild(CopyTree(in, ub.Child(i, s, kb), &mid));
          }
          return nu.Finish();
        };
        return RebuildPath(in, ua.Child(e, j, ka), to_b, b, &mid, restrict_b);
      });
    });
  }

  // ---- Phase 2: fuse B into A; B's children take B's slot under its
  // parent. Every surviving B-union has exactly one entry. ----
  const int p = t.node(b).parent;
  const size_t kp = t.node(p).children.size();
  const auto& p_children = t.node(p).children;
  const size_t slot_b = static_cast<size_t>(
      std::find(p_children.begin(), p_children.end(), b) - p_children.begin());

  FTree fused_tree = t;
  fused_tree.FuseTree(a, b);
  FRep out(std::move(fused_tree));
  if (mid.empty()) return Normalize(out);
  RebuildForest(mid, p, &out, [&](uint32_t id) {
    UnionRef un = mid.u(id);
    UnionBuilder nu = out.StartUnion(p);
    nu.CopyValues(un);
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < kp; ++j) {
        uint32_t c = un.Child(e, j, kp);
        if (j != slot_b) {
          nu.AddChild(CopyTree(mid, c, &out));
          continue;
        }
        // Splice the single B entry's children into this slot.
        UnionRef ub = mid.u(c);
        FDB_CHECK(ub.size() == 1);
        for (size_t s = 0; s < kb; ++s) {
          nu.AddChild(CopyTree(mid, ub.Child(0, s, kb), &out));
        }
      }
    }
    return nu.Finish();
  });

  // ---- Phase 3: normalise (push up what the fuse made independent). ----
  return Normalize(out);
}

}  // namespace fdb
