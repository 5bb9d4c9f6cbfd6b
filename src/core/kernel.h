// Per-plan compiled enumeration kernels: the library's one enumeration
// engine.
//
// Constant-delay enumeration (§2) is a lexicographic odometer over the
// f-tree's frames (core/enumerate.h). EnumKernel specialises that
// odometer for one shape. Compile() lowers the frame list
// (BuildPreOrderFrames) into a flat Step program: per frame the parent
// frame index, the child slot and stride, and the output columns its value
// feeds, resolved once. Running the program walks raw arena windows
// (UnionRef::values()/children() pointers — stable while the
// representation is frozen, which enumeration guarantees) with a
// fixed-size frame stack, and fuses visible-attribute extraction into row
// emission: each advance writes only the columns that changed and appends
// the assembled row directly.
//
// Bounds. Every run takes a chain of EntryBounds restricting the first
// frames (empty = the whole stream): bounds[i] restricts the entries of
// frame i to [begin, end), and every bound but the last must pin exactly
// one entry (begin + 1 == end), so the restricted frames form a chain
// whose unions never change during the run — the shape the morsel planner
// emits (core/parallel_enumerate.h). The restricted stream is a
// contiguous slice of the unrestricted stream, in the same order; a bound
// that misses its union entirely yields the empty stream. ParallelEnumerator
// executes one kernel run per morsel.
//
// Consumers: the MaterializeVisible sink emits values (Emit/EmitTo,
// presized by CountRows); GroupedRep::Materialize (core/aggregate.h) asks
// for the rep-wide entry index of every step instead (EmitEntries) and
// folds its per-entry payloads along each row. Compiling a kernel costs a
// few microseconds, so both compile on demand for every tree they hold no
// matching kernel for; a kernel is only valid for representations whose
// f-tree matches the compiled shape (Matches(): one frame rebuild +
// signature compare). The serve path caches one kernel per plan-cache
// entry, compiled against the output-order tree the sink emits from
// (serve/plan_cache.h). Over a tree in output order (PlanOutputOrder,
// core/fplan.h) a visible-mode run emits rows strictly increasing in
// schema order: sorted and duplicate-free by construction.
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
  /// `tree` into a kernel. With `visible_only`, subtrees without visible
  /// attributes get no frame (VisibleKeepMask: odometer positions that
  /// differ only inside them collapse into one) and the output schema is
  /// the visible attributes in increasing id order; otherwise every alive
  /// node gets a frame, each distinct tuple over all attributes is
  /// streamed once, and the schema is all attributes. Visible mode can
  /// still repeat a visible tuple when an invisible node has visible
  /// descendants (two of its values may lead to equal visible sub-tuples);
  /// MaterializeVisible first sinks such nodes into skipped subtrees
  /// (PlanOutputOrder, core/fplan.h). A non-null `trace` records a
  /// "kernel-compile" span.
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

  /// Runs the program restricted to `bounds` (see the header comment;
  /// empty = the whole stream; a malformed chain throws FdbError) and
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

  /// Runs the same restricted stream but appends, per row, the rep-wide
  /// entry index (UnionRef::arena_offset() + entry) of every step, in
  /// step order: num_steps() indices per row. These are the keys of
  /// per-entry side arrays (GroupedRep's payloads) and of
  /// FRep::ValueAt. Returns the number of rows, like Emit.
  uint64_t EmitEntries(const FRep& rep, std::span<const EntryBound> bounds,
                       std::vector<size_t>* entries) const;

  /// Number of steps (frames) of the program, and the f-tree node each
  /// one walks, in the order EmitEntries reports them.
  size_t num_steps() const { return steps_.size(); }
  int step_node(size_t i) const { return steps_[i].node; }

 private:
  /// One lowered frame. `out_cols_[out_begin, out_end)` are the
  /// output columns fed by this frame's value (every schema attribute of
  /// the frame's class).
  struct Step {
    int32_t node = -1;      ///< f-tree node (not read at run time)
    int32_t parent = -1;    ///< parent step index; -1 for roots
    uint32_t slot = 0;      ///< child slot under the parent / root slot
    uint32_t nslots = 0;    ///< parent's child count (child-array stride)
    uint32_t out_begin = 0;
    uint32_t out_end = 0;
  };

  enum class Mode { kCount, kEmit, kEntries };

  /// kEmit appends to `out` when it is non-null and writes through
  /// `dst_cursor` otherwise; kEntries appends to `entries`; kCount uses
  /// none of them.
  template <Mode kMode>
  uint64_t Run(const FRep& rep, std::span<const EntryBound> bounds,
               std::vector<Value>* out, Value* dst_cursor,
               std::vector<size_t>* entries) const;

  std::vector<Step> steps_;        ///< frame order, one per kept frame
  std::vector<uint32_t> out_cols_; ///< flat per-step column lists
  std::vector<AttrId> schema_;     ///< output attributes, ascending
  std::vector<uint64_t> signature_;  ///< shape key compared by Matches()
  bool visible_only_ = false;
};

}  // namespace fdb

#endif  // FDB_CORE_KERNEL_H_
