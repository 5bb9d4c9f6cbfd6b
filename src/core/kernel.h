// Per-plan compiled enumeration kernels.
//
// The interpreted TupleEnumerator re-reads the f-tree shape on every frame
// advance: union headers are resolved per step, child-slot arithmetic uses
// the tree's child lists, and extracting a tuple re-indexes the sparse
// current_[] array once per attribute.
//
// EnumKernel specialises the enumeration loop for one shape. Compile()
// lowers the frame list (BuildPreOrderFrames, so the kernel streams
// exactly the TupleEnumerator order) into a flat Step program: per frame
// the parent frame index, the child slot and stride, and the output
// columns its value feeds, resolved once. Running the program walks raw
// arena windows (UnionRef::values()/children() pointers — stable while the
// representation is frozen, which enumeration guarantees) with a
// fixed-size frame stack, and fuses visible-attribute extraction into row
// emission: each advance writes only the columns that changed and appends
// the assembled row directly.
//
// Morsel bounds (EntryBound, same contract as the TupleEnumerator bounds
// constructor: a pinned chain plus one ranged frame) restrict the run, so
// ParallelEnumerator executes one kernel run per morsel.
//
// The kernel is the only emission engine of the MaterializeVisible sink
// (core/parallel_enumerate.h). Compiling one costs a few microseconds, so
// the sink compiles on demand for every tree it has no matching kernel
// for; a kernel is only valid for representations whose f-tree matches
// the compiled shape (Matches(): one frame rebuild + signature compare).
// The serve path caches one kernel per plan-cache entry, compiled against
// the output-order tree the sink emits from (serve/plan_cache.h). Over a
// tree in output order (PlanOutputOrder, core/fplan.h) a visible-mode run
// emits rows strictly increasing in schema order: sorted and
// duplicate-free by construction.
#ifndef FDB_CORE_KERNEL_H_
#define FDB_CORE_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/frep.h"

namespace fdb {

/// A shape-specialised enumeration program. Immutable after Compile();
/// safe to share between threads (runs carry all mutable state on the
/// stack), which is how ParallelEnumerator executes it per morsel.
class EnumKernel {
 public:
  /// Lowers the (optionally visible-restricted) frame program of
  /// `tree` into a kernel. `visible_only` matches the TupleEnumerator mode:
  /// subtrees without visible attributes are skipped and the output schema
  /// is the visible attributes in increasing id order; otherwise every
  /// alive node gets a frame and the schema is all attributes. A non-null
  /// `trace` records a "kernel-compile" span.
  static EnumKernel Compile(const FTree& tree, bool visible_only,
                            QueryTrace* trace = nullptr);

  bool visible_only() const { return visible_only_; }

  /// Output schema: one column per attribute, increasing id order.
  const std::vector<AttrId>& schema() const { return schema_; }

  /// True iff `tree` lowers to the same step program — the kernel then
  /// enumerates any representation over `tree` correctly. Callers must
  /// check this before running a kernel against a representation it was
  /// not compiled from (plan-cache entries outlive result trees).
  bool Matches(const FTree& tree) const;

  /// Runs the program restricted to `bounds` (same contract as the
  /// TupleEnumerator bounds constructor; empty = the whole stream) and
  /// appends each tuple's values to `out` in schema() order, rows
  /// concatenated flat (Relation::AppendRows format). Returns the number
  /// of rows emitted. The nullary stream appends nothing and returns 1.
  /// `rep.tree()` must satisfy Matches().
  uint64_t Emit(const FRep& rep, std::span<const EntryBound> bounds,
                std::vector<Value>* out) const;

  /// Emit into caller-owned storage: writes the same values Emit appends
  /// to `dst`, which must hold CountRows(rep, bounds) * schema().size()
  /// values. Lets morsels emit straight into their slice of one shared
  /// output buffer.
  uint64_t EmitTo(const FRep& rep, std::span<const EntryBound> bounds,
                  Value* dst) const;

  /// Row count of the restricted stream without materialising it; the
  /// innermost frame is counted by run length, not walked.
  uint64_t CountRows(const FRep& rep,
                     std::span<const EntryBound> bounds) const;

 private:
  /// One lowered frame. `out_cols_[out_begin, out_end)` are the
  /// output columns fed by this frame's value (every schema attribute of
  /// the frame's class).
  struct Step {
    int32_t node = -1;      ///< f-tree node (diagnostics only at run time)
    int32_t parent = -1;    ///< parent step index; -1 for roots
    uint32_t slot = 0;      ///< child slot under the parent / root slot
    uint32_t nslots = 0;    ///< parent's child count (child-array stride)
    uint32_t out_begin = 0;
    uint32_t out_end = 0;
  };

  /// Emission appends to `out` when it is non-null and writes through
  /// `dst_cursor` otherwise; counting uses neither.
  template <bool kEmit>
  uint64_t Run(const FRep& rep, std::span<const EntryBound> bounds,
               std::vector<Value>* out, Value* dst_cursor) const;

  std::vector<Step> steps_;        ///< frame order, one per kept frame
  std::vector<uint32_t> out_cols_; ///< flat per-step column lists
  std::vector<AttrId> schema_;     ///< output attributes, ascending
  std::vector<uint64_t> signature_;  ///< shape key compared by Matches()
  bool visible_only_ = false;
};

}  // namespace fdb

#endif  // FDB_CORE_KERNEL_H_
