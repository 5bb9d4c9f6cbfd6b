#include <cstdint>
#include <vector>

#include "core/ops.h"
#include "core/ops_common.h"
#include "core/simd.h"
#include "core/validate.h"

namespace fdb {

using ops_internal::CopyTree;
using ops_internal::kNoUnion;
using ops_internal::RebuildForest;

// sigma_{A theta c} (§3.3): one pass over the representation. Unions of A's
// node drop the entries failing the comparison; an emptied union removes the
// enclosing entry, cascading upwards. For theta = '=' the node afterwards
// holds the single value c everywhere, so it is flagged constant and the
// final normalisation floats it towards the root.
FRep SelectConst(const FRep& in, AttrId attr, CmpOp op, Value c) {
  const FTree& t = in.tree();
  int x = t.FindAttr(attr);
  FDB_CHECK_MSG(x >= 0, "selection attribute not in the f-tree");

  FTree new_tree = t;
  if (op == CmpOp::kEq) new_tree.node(x).constant = true;

  FRep out(new_tree);
  // Batched predicate evaluation over the contiguous value window (one
  // vectorised pass) instead of per-entry EvalCmp dispatch. The mask
  // scratch is reused across X-unions: X's subtree is copied, so no
  // second X-union is reached while one is being filtered.
  const size_t k = t.node(x).children.size();
  std::vector<uint8_t> mask;
  auto filter = [&](uint32_t id) -> uint32_t {
    UnionRef un = in.u(id);
    mask.resize(un.size());
    simd::CmpMask(un.values(), un.size(), op, c, mask.data());
    UnionBuilder nu = out.StartUnion(x);
    for (size_t e = 0; e < un.size(); ++e) {
      if (mask[e] == 0) continue;
      nu.AddValue(un.value(e));
      for (size_t j = 0; j < k; ++j) {
        nu.AddChild(CopyTree(in, un.Child(e, j, k), &out));
      }
    }
    if (nu.empty()) {
      nu.Abandon();
      return kNoUnion;
    }
    return nu.Finish();
  };
  if (!in.empty()) RebuildForest(in, x, &out, filter);
  if (op == CmpOp::kEq) return Normalize(out);
  FDB_VALIDATE_REP(out);
  return out;
}

}  // namespace fdb
