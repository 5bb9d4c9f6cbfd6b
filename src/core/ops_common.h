// Internal helpers shared by the operator implementations.
#ifndef FDB_CORE_OPS_COMMON_H_
#define FDB_CORE_OPS_COMMON_H_

#include <cstdint>
#include <vector>

#include "core/frep.h"

namespace fdb {
namespace ops_internal {

/// Sentinel for "this union became empty".
inline constexpr uint32_t kNoUnion = 0xFFFFFFFFu;

/// Deep-copies the union `id` of `src` (with everything below) into `dst`,
/// adding `node_offset` to every f-tree node id (Product shifts the second
/// forest's ids). Unmemoised: the copy is tree-shaped (every union has
/// exactly one parent reference) even when the input shares subtrees.
uint32_t CopyTree(const FRep& src, uint32_t id, FRep* dst,
                  int node_offset = 0);

/// True for every tree node whose subtree contains `target` (including
/// target itself). Indexed by tree node id.
std::vector<char> SubtreeContains(const FTree& tree, int target);

/// Rebuilds `un` into `out` as a union of the same node, entry by entry:
/// child slot j of entry e becomes `child(e, j)` (one of `k` slots). An
/// entry with a kNoUnion child is dropped; kNoUnion when none survives.
template <typename ChildFn>
uint32_t RebuildEntries(const UnionRef& un, size_t k, FRep* out,
                        ChildFn&& child) {
  UnionBuilder nu = out->StartUnion(un.node());
  for (size_t e = 0; e < un.size(); ++e) {
    size_t j = 0;
    for (; j < k; ++j) {
      const uint32_t nc = child(e, j);
      if (nc == kNoUnion) break;
      nu.AddChild(nc);
    }
    if (j < k) {
      nu.DropChildren(j);
      continue;
    }
    nu.AddValue(un.value(e));
  }
  if (nu.empty()) {
    nu.Abandon();
    return kNoUnion;
  }
  return nu.Finish();
}

/// The walk every f-plan operator shares (§3): it changes the unions of
/// one f-tree node, `target`, and carries the rest of `in` over into
/// `out`. Union `id` is rebuilt as follows:
///   * a union of `target` goes to `at_target(id)`, which returns its
///     replacement or kNoUnion;
///   * a union of a node on a root-to-target path (`on_path`, from
///     SubtreeContains) is rebuilt with RebuildEntries, so an entry whose
///     rebuilt child emptied is dropped and the emptiness cascades up;
///   * any other subtree is copied verbatim (CopyTree).
template <typename AtTarget>
uint32_t RebuildPath(const FRep& in, uint32_t id,
                     const std::vector<char>& on_path, int target, FRep* out,
                     AtTarget& at_target) {
  const UnionRef un = in.u(id);
  const int n = un.node();
  if (n == target) return at_target(id);
  if (!on_path[static_cast<size_t>(n)]) return CopyTree(in, id, out);
  const size_t k = in.tree().node(n).children.size();
  return RebuildEntries(un, k, out, [&](size_t e, size_t j) {
    return RebuildPath(in, un.Child(e, j, k), on_path, target, out,
                       at_target);
  });
}

/// RebuildPath over every root of a non-empty `in`: fills `out`'s roots,
/// and marks `out` empty when a root union empties.
template <typename AtTarget>
void RebuildForest(const FRep& in, int target, FRep* out,
                   AtTarget&& at_target) {
  const std::vector<char> on_path = SubtreeContains(in.tree(), target);
  out->MarkNonEmpty();
  for (uint32_t r : in.roots()) {
    const uint32_t nr = RebuildPath(in, r, on_path, target, out, at_target);
    if (nr == kNoUnion) {
      out->MarkEmpty();
      return;
    }
    out->roots().push_back(nr);
  }
}

}  // namespace ops_internal
}  // namespace fdb

#endif  // FDB_CORE_OPS_COMMON_H_
