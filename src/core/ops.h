// F-plan operators (§3): the algorithms that evaluate SPJ queries directly
// on factorised representations.
//
// Every operator consumes an f-representation and produces a fresh one over
// a transformed f-tree; the represented relation changes exactly as the
// relational semantics of the operator prescribes (restructuring operators
// preserve it). All operators preserve the representation invariants (value
// order, no empty unions, path constraint) and f-tree normalisation, and run
// in time (quasi)linear in input + output size (Prop. 2).
//
// Nodes are addressed by any attribute of their class, which is stable
// across restructuring (classes only ever grow, by merge/absorb).
//
// Shared rebuild contract (core/ops_common.h). Every operator except
// Product changes the unions of one f-tree node and carries the rest over
// through one walk, RebuildForest: unions on the paths from the roots to
// that node are rebuilt entry by entry, every other subtree is copied
// verbatim, an entry whose rebuilt child came back empty is dropped (the
// emptiness cascade), and the result is empty when a root union empties.
// Copies are unmemoised (CopyTree, which Product uses too), so the output
// of every operator but Swap is tree-shaped (every union has exactly one
// parent reference) even when the input shares subtrees. Swap copies each
// A-entry's independent subtrees (T_A) once and references the copy from
// every B-value the entry pairs with, so its output is a d-representation
// (a DAG); every consumer (Validate, the counting DPs, the collapse, the
// kernel, Serialize) takes shared unions as legal.
#ifndef FDB_CORE_OPS_H_
#define FDB_CORE_OPS_H_

#include "core/frep.h"
#include "storage/query.h"

namespace fdb {

/// Cartesian product: concatenates the two forests (§3.2). The attribute
/// and relation-index universes of the inputs must be disjoint.
FRep Product(const FRep& e1, const FRep& e2);

/// psi_B: lifts the node of `b_attr` one level up (§3.1, Fig. 3(a)).
/// Requires CanPushUp on the node: its parent must not depend on the
/// node's subtree.
FRep PushUp(const FRep& in, AttrId b_attr);

/// eta: repeated push-ups until the f-tree is normalised (Def. 3).
FRep Normalize(const FRep& in);

/// chi_{A,B}: swaps the node of `b_attr` with its parent, the node of
/// `a_attr` (§3.1, Fig. 3(b) and Fig. 4). Regroups the representation by B
/// before A.
FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr);

/// mu_{A,B}: merge selection a_attr = b_attr for sibling classes (§3.3,
/// Fig. 3(c)); sort-merge join of the sibling unions.
FRep Merge(const FRep& in, AttrId a_attr, AttrId b_attr);

/// alpha_{A,B}: absorb selection a_attr = b_attr where A's class is a
/// proper ancestor of B's (§3.3, Fig. 3(d)); restricts each B-union to the
/// current A-value, splices B out, and normalises.
FRep Absorb(const FRep& in, AttrId a_attr, AttrId b_attr);

/// sigma_{A theta c}: selection with a constant (§3.3). For equality the
/// node becomes constant and floats up during the final normalisation.
FRep SelectConst(const FRep& in, AttrId attr, CmpOp op, Value c);

/// pi: keeps only the attributes in `keep` (§3.4). Fully projected nodes
/// are swapped down to leaves and removed; their dependency sets are
/// inherited by the parent (transitive dependence).
FRep Project(const FRep& in, AttrSet keep);

}  // namespace fdb

#endif  // FDB_CORE_OPS_H_
