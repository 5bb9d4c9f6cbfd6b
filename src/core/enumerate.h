// The frame order of tuple enumeration from f-representations.
//
// F-representations allow constant-delay enumeration: O(|E|) preparation and
// O(|S|) delay between successive tuples (§2), by an odometer over the
// f-tree's frames: advancing to the next tuple touches each of the |T|
// frames at most once. The library's one implementation of that odometer
// is the compiled EnumKernel (core/kernel.h); this header fixes the frames
// it walks, which the morsel planner (core/parallel_enumerate.h) splits
// and the structural validators (core/validate.h) re-derive.
//
// Frame order. The odometer is correct for any parent-first order of the
// frames, and it streams tuples in lexicographic order of the frame values
// (every union is sorted). BuildPreOrderFrames fixes one such order for
// every walker (EnumKernel for tuple streams and the group forest of
// GroupedRep::Materialize, the morsel planner): ready nodes are taken by
// their smallest visible attribute id, invisible nodes last. When every
// root-to-leaf path of the tree increases in that key (PlanOutputOrder in
// core/fplan.h restructures any tree into this shape), the stream is
// therefore sorted by the visible attributes in id order — the contract of
// the MaterializeVisible sink (core/parallel_enumerate.h), met without
// sorting.
#ifndef FDB_CORE_ENUMERATE_H_
#define FDB_CORE_ENUMERATE_H_

#include <vector>

#include "core/frep.h"

namespace fdb {

/// One frame of an f-tree walk: the node, the index of its parent's frame
/// in the frame list (-1 for roots; parents always precede children), and
/// the child slot within the parent (for roots: the slot in the root list).
struct PreOrderFrame {
  int node;
  int parent_pos;
  size_t slot;
};

/// Sort key of a node in the frame order: the smallest visible attribute
/// id of its class, or kMaxAttrs for an invisible node.
AttrId FrameOrderKey(const FTree& t, int n);

/// The frames of every alive node in key order, parents first: among the
/// nodes whose parent already has a frame, the one with the smallest
/// FrameOrderKey comes next (invisible nodes in pre-order among
/// themselves). When `keep` is given (indexed by node id, and closed under
/// parents: a kept node's parent is kept), skipped nodes get no frame.
std::vector<PreOrderFrame> BuildPreOrderFrames(const FTree& t,
                                               const std::vector<char>* keep =
                                                   nullptr);

/// The node mask of visible_only enumeration: a node is kept iff its
/// subtree contains a visible attribute (closed under parents, so it is a
/// valid `keep` argument for BuildPreOrderFrames).
std::vector<char> VisibleKeepMask(const FTree& t);

/// Half-open entry range [begin, end) restricting one frame of an
/// enumeration; a chain of them restricts a kernel run to one morsel (the
/// contract is in core/kernel.h). Produced by the morsel planner in
/// core/parallel_enumerate.h.
struct EntryBound {
  uint32_t begin = 0;
  uint32_t end = 0;
};

}  // namespace fdb

#endif  // FDB_CORE_ENUMERATE_H_
