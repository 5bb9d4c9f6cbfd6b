// F-plans: sequential compositions of f-plan operators (§3, §4).
//
// A plan step addresses f-tree nodes through representative attributes,
// which stay valid across restructuring (classes only grow). The optimiser
// reasons about plans on f-trees alone (SimulateStepOnTree) and the engine
// executes them on f-representations (ExecuteStep); both sides apply the
// identical tree transformation, so predicted and actual f-trees match
// exactly.
#ifndef FDB_CORE_FPLAN_H_
#define FDB_CORE_FPLAN_H_

#include <string>
#include <vector>

#include "core/frep.h"
#include "core/ops.h"

namespace fdb {

/// One f-plan operator application.
struct PlanStep {
  enum class Kind {
    kSwap,         ///< chi_{A,B}: b's node swaps above a's node
    kPushUp,       ///< psi_B
    kMerge,        ///< mu_{A,B}
    kAbsorb,       ///< alpha_{A,B}
    kNormalize,    ///< eta
    kSelectConst,  ///< sigma_{A theta c}
    kProject       ///< pi_keep
  };

  Kind kind;
  AttrId a = 0;
  AttrId b = 0;
  CmpOp op = CmpOp::kEq;
  Value value = 0;
  AttrSet keep;

  static PlanStep MakeSwap(AttrId parent, AttrId child) {
    return {Kind::kSwap, parent, child, CmpOp::kEq, 0, {}};
  }
  static PlanStep MakePushUp(AttrId node) {
    return {Kind::kPushUp, 0, node, CmpOp::kEq, 0, {}};
  }
  static PlanStep MakeMerge(AttrId a, AttrId b) {
    return {Kind::kMerge, a, b, CmpOp::kEq, 0, {}};
  }
  static PlanStep MakeAbsorb(AttrId a, AttrId b) {
    return {Kind::kAbsorb, a, b, CmpOp::kEq, 0, {}};
  }
  static PlanStep MakeNormalize() {
    return {Kind::kNormalize, 0, 0, CmpOp::kEq, 0, {}};
  }
  static PlanStep MakeSelectConst(AttrId attr, CmpOp op, Value v) {
    return {Kind::kSelectConst, attr, 0, op, v, {}};
  }
  static PlanStep MakeProject(AttrSet keep) {
    return {Kind::kProject, 0, 0, CmpOp::kEq, 0, keep};
  }

  std::string ToString(const Catalog* cat = nullptr) const;
};

/// A full plan plus bookkeeping filled in by the optimiser.
struct FPlan {
  std::vector<PlanStep> steps;

  /// max over intermediate f-trees of s(T_i), including input and output
  /// (the asymptotic cost measure s(f), §4.1). Filled by the optimiser.
  double cost_max_s = 0.0;
  /// s(T) of the final f-tree.
  double result_s = 0.0;

  std::string ToString(const Catalog* cat = nullptr) const;
};

/// Applies one step to an f-representation.
FRep ExecuteStep(const FRep& in, const PlanStep& step);

/// Applies a whole plan.
FRep ExecutePlan(const FRep& in, const FPlan& plan);

/// Tree-level twin of ExecuteStep; the returned tree is identical to
/// ExecuteStep(rep, step).tree() for any rep over `t`.
FTree SimulateStepOnTree(const FTree& t, const PlanStep& step);

/// The swaps (§3.1) that restructure `t` into output order: afterwards
/// every node lies above all nodes with a larger FrameOrderKey on its
/// root-to-leaf path (core/enumerate.h). Visible keys then increase along
/// every path, and invisible nodes (key kMaxAttrs) have only invisible
/// descendants, so visible-only enumeration over the result is sorted by
/// the visible attributes in id order and duplicate-free. Planned top-down:
/// the smallest key of each subtree is lifted to the subtree's root by
/// repeated swaps with its parent, then each child subtree is planned the
/// same way. A tree already in output order needs no step. `ordered`, when
/// given, receives the tree after the steps.
std::vector<PlanStep> PlanOutputOrder(const FTree& t,
                                      FTree* ordered = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_FPLAN_H_
