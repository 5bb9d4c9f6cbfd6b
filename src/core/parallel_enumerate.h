// Parallel chunked enumeration: morsel-driven multi-core tuple streaming
// from f-representations.
//
// Constant-delay enumeration (core/kernel.h) is a lexicographic odometer
// over the parent-first frames of the f-tree, which makes it
// embarrassingly partitionable over the *top* frames: restricting the
// first frame's union to an entry range [b, e) — and, when one entry
// dominates, pinning it and recursing one level down — carves the tuple
// stream into contiguous, disjoint slices. The planner (PlanMorsels)
// builds such slices ("morsels", after Leis et al., Morsel-Driven
// Parallelism, SIGMOD'14 — see PAPERS.md) of bounded estimated output
// using the per-subtree tuple counts of the CountTuples DP
// (FRep::SubtreeTupleCounts), and ParallelEnumerator dispatches one
// chunk per morsel on the shared thread pool (common/thread_pool.h); each
// chunk is one range-restricted EnumKernel run.
//
// Determinism: morsels partition the stream in lexicographic odometer
// order, so concatenating per-chunk results by chunk index reproduces the
// sequential enumeration byte for byte, regardless of thread count or
// scheduling (tests/parallel_enumerate_test.cc asserts this tuple for
// tuple; the TSan CI job runs it under ThreadSanitizer). Its consumers —
// the sink below and GroupedRep::Materialize — share ForEachChunk.
//
// The MaterializeVisible sink builds on that: it restructures the result
// into output order (core/fplan.h PlanOutputOrder), after which the
// sequential stream is already sorted and duplicate-free, so the
// concatenated morsel output is the final relation — no sort, no dedup.
#ifndef FDB_CORE_PARALLEL_ENUMERATE_H_
#define FDB_CORE_PARALLEL_ENUMERATE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/trace.h"
#include "core/enumerate.h"
#include "core/frep.h"
#include "storage/relation.h"

namespace fdb {

class EnumKernel;  // core/kernel.h

/// Morsels per thread the planner aims for; more morsels = better load
/// balance, more per-chunk overhead.
inline constexpr int kMorselsPerThread = 8;

/// Knobs of one (possibly parallel) enumeration.
struct EnumerateOptions {
  /// Maximum threads enumerating concurrently (including the caller).
  /// 0 = size of the shared pool + 1; 1 = sequential on the caller.
  int threads = 0;

  /// Estimated output (tuples) below which enumeration stays on the
  /// calling thread — morsel planning and thread handoff are not worth it
  /// for small results.
  double parallel_cutoff = 32768;

  /// Override of the target tuples per morsel (0 = derived from the total
  /// estimate, threads and kMorselsPerThread). Mainly for tests.
  double target_morsel_tuples = 0;
};

/// One work slice: a restriction chain on the top frames (the bounds
/// contract of core/kernel.h) plus its estimated output.
/// An empty bounds vector denotes the whole stream.
struct Morsel {
  std::vector<EntryBound> bounds;
  double est_tuples = 0;
};

/// A partition of the enumeration stream. Morsels are in lexicographic
/// odometer order: concatenating their streams by index reproduces the
/// sequential enumeration exactly.
struct MorselPlan {
  std::vector<Morsel> morsels;
  double est_total = 0;  ///< estimated stream length (restricted count)
};

/// Splits the enumeration stream of `rep` (frames as per `visible_only`)
/// into morsels of roughly `target_tuples` estimated output each. Entries
/// of the first frame's union are packed greedily; an entry whose subtree
/// alone exceeds the target is pinned and the next frame is split
/// recursively. Always returns at least one morsel for a non-empty rep;
/// the empty rep yields an empty plan.
MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples);

/// Schedules a morsel plan, one chunk per morsel, on the shared thread
/// pool.
class ParallelEnumerator {
 public:
  /// Plans the enumeration. Falls back to one whole-stream chunk when the
  /// resolved thread count is 1, the estimate is below
  /// opts.parallel_cutoff, or the rep has no splittable frames (nullary).
  ParallelEnumerator(const FRep& rep, EnumerateOptions opts = {},
                     bool visible_only = false);

  /// Number of chunks ForEachChunk() will deliver (0 for the empty rep).
  size_t num_chunks() const { return plan_.morsels.size(); }

  /// Resolved maximum concurrency (including the caller thread).
  int threads() const { return threads_; }

  const MorselPlan& plan() const { return plan_; }

  /// Calls fn(chunk) for every chunk in [0, num_chunks()), concurrently
  /// on up to threads() threads; a chunk typically runs a kernel over
  /// plan().morsels[chunk].bounds. `fn` must be safe to run concurrently
  /// for distinct chunks; chunk index order equals sequential stream
  /// order, so writing chunk results into per-index slots and
  /// concatenating reproduces sequential output exactly. Every chunk runs
  /// under the caller's ExecContext (re-bound on pool threads) after a
  /// cancellation probe and the "enumerate_morsel" fault site. Rethrows
  /// the first exception a chunk throws.
  void ForEachChunk(const std::function<void(size_t)>& fn) const;

 private:
  int threads_;
  MorselPlan plan_;
};

/// Materialises the visible part of `rep` as a relation whose schema is
/// the visible attributes in increasing id order, rows strictly
/// increasing in lexicographic order (sorted, no duplicates) — without
/// sorting or deduplicating. The sink runs:
///   1. order restructuring: the swaps of PlanOutputOrder (core/fplan.h),
///      executed on `rep` — none when its tree is already in output
///      order. Their arena growth is charged to the ambient ExecContext
///      budget like any operator's;
///   2. a visible-mode EnumKernel for the restructured tree: `kernel` when
///      it matches that tree (EnumKernel::Matches), otherwise one compiled
///      on the spot (a few microseconds), so null is always fine;
///   3. morsel planning and one kernel run per morsel on up to
///      opts.threads cores (the default argument runs sequentially on the
///      caller), each writing its slice of one output buffer in morsel
///      order.
/// The result is identical for every thread count and every kernel
/// argument. A non-null `trace` records "order-restructure" (rows = swaps
/// applied, bytes = restructured rep), "kernel-compile" (when compiled
/// here), "morsel-plan" (rows = morsels) and "emit" (rows = rows out)
/// spans, all opened on the calling thread around the whole fan-out —
/// per-morsel work is aggregated, never one span per morsel
/// (common/trace.h).
Relation MaterializeVisible(const FRep& rep,
                            const EnumerateOptions& opts = {.threads = 1},
                            const EnumKernel* kernel = nullptr,
                            QueryTrace* trace = nullptr);

}  // namespace fdb

#endif  // FDB_CORE_PARALLEL_ENUMERATE_H_
