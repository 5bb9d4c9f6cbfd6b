#include "core/parallel_enumerate.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/exec_context.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/fplan.h"
#include "core/kernel.h"
#include "core/validate.h"

namespace fdb {

namespace {

// Deep chains of dominating single entries stop splitting here; a morsel
// can always fall back to "one pinned entry, whole range below".
constexpr size_t kMaxChainDepth = 16;

struct PlanCtx {
  const FRep& rep;
  const FTree& tree;
  const std::vector<PreOrderFrame>& frames;
  const std::vector<double>& counts;   // per-union restricted subtree counts
  const std::vector<char>* keep;       // node mask; null = all kept
  double target;                       // tuples per morsel aimed for
  std::vector<Morsel>* out;
  std::vector<EntryBound> prefix;      // pinned chain above the split frame
  std::vector<uint32_t> chain_unions;  // union id per chain frame
};

bool Kept(const PlanCtx& c, int node) {
  return c.keep == nullptr || (*c.keep)[static_cast<size_t>(node)];
}

// Stream tuples below entry `e` of union `u`: the product of the restricted
// counts of its kept children (1 for a leaf entry).
double ExtCount(const PlanCtx& c, const UnionRef& u, size_t e) {
  const std::vector<int>& ch = c.tree.node(u.node()).children;
  const size_t k = ch.size();
  double p = 1.0;
  for (size_t j = 0; j < k; ++j) {
    if (!Kept(c, ch[j])) continue;
    p *= c.counts[u.Child(e, j, k)];
  }
  return p;
}

// Union of frame `f` under the pinned prefix (every earlier chain frame is
// pinned to a single entry, so the resolution is unambiguous).
uint32_t ResolveUnion(const PlanCtx& c, size_t f) {
  const PreOrderFrame& pf = c.frames[f];
  if (pf.parent_pos < 0) return c.rep.roots()[pf.slot];
  const size_t p = static_cast<size_t>(pf.parent_pos);
  UnionRef pu = c.rep.u(c.chain_unions[p]);
  const size_t k = c.tree.node(c.frames[p].node).children.size();
  return pu.Child(c.prefix[p].begin, pf.slot, k);
}

// Splits the entries of `union_id` (the union of frame `frame` under the
// pinned prefix) into ranges of ~target estimated output. `mult` is the
// stream weight of one subtree tuple of this union — the product of every
// count outside the subtree under the pinned prefix — so entry `e` covers
// mult * ExtCount(e) stream tuples. Entries are packed greedily in order;
// an entry that alone exceeds the target is pinned and the next
// frame is split recursively, keeping the emitted morsels in lexicographic
// odometer order throughout.
void SplitFrame(PlanCtx& c, size_t frame, uint32_t union_id, double mult) {
  UnionRef u = c.rep.u(union_id);
  c.chain_unions.push_back(union_id);
  uint32_t begin = 0;
  double acc = 0.0;
  auto flush = [&](uint32_t end) {
    if (end > begin) {
      Morsel m;
      m.bounds = c.prefix;
      m.bounds.emplace_back(begin, end);
      m.est_tuples = acc;
      c.out->push_back(std::move(m));
    }
    begin = end;
    acc = 0.0;
  };
  const uint32_t len = static_cast<uint32_t>(u.size());
  for (uint32_t e = 0; e < len; ++e) {
    const double w = mult * ExtCount(c, u, e);
    // !(w <= target) rather than w > target: a non-finite estimate (counts
    // past double range) must also split rather than pack everything.
    const bool oversized = !(w <= c.target);
    if (oversized && frame + 1 < c.frames.size() &&
        c.prefix.size() + 1 < kMaxChainDepth) {
      flush(e);
      c.prefix.emplace_back(e, e + 1);
      const uint32_t nu = ResolveUnion(c, frame + 1);
      const double cn = c.counts[nu];
      SplitFrame(c, frame + 1, nu, cn > 0 ? w / cn : w);
      c.prefix.pop_back();
      begin = e + 1;
    } else {
      if (acc > 0.0 && !(acc + w <= c.target)) flush(e);
      acc += w;
    }
  }
  flush(len);
  c.chain_unions.pop_back();
}

// Length of the (possibly visible-restricted) enumeration stream: the
// product over kept root trees of their restricted subtree counts.
double RestrictedTotal(const FRep& rep, const std::vector<char>* keep,
                       const std::vector<double>& counts) {
  double total = 1.0;
  const std::vector<int>& roots = rep.tree().roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (keep == nullptr || (*keep)[static_cast<size_t>(roots[i])]) {
      total *= counts[rep.roots()[i]];
    }
  }
  return total;
}

// Sizes the stream of `rep` (frames as per `visible_only`) with one DP
// pass and splits it into morsels of target_of(total) estimated tuples;
// a target that is not positive leaves the plan unsplit (no morsels).
template <typename TargetOf>
MorselPlan PlanStream(const FRep& rep, bool visible_only, TargetOf target_of) {
  std::vector<char> keep;
  const std::vector<char>* keep_ptr = nullptr;
  if (visible_only) {
    keep = VisibleKeepMask(rep.tree());
    keep_ptr = &keep;
  }
  const std::vector<double> counts = rep.SubtreeTupleCounts(keep_ptr);
  MorselPlan plan;
  plan.est_total = RestrictedTotal(rep, keep_ptr, counts);
  double target_tuples = target_of(plan.est_total);
  if (!(target_tuples > 0)) return plan;
  std::vector<PreOrderFrame> frames = BuildPreOrderFrames(rep.tree(), keep_ptr);
  if (frames.empty()) {
    // Nullary stream (one empty tuple): nothing to split over.
    plan.morsels.push_back(Morsel{{}, plan.est_total});
    return plan;
  }
  if (!(target_tuples >= 1.0)) target_tuples = 1.0;
  PlanCtx ctx{rep,           rep.tree(),    frames, counts, keep_ptr,
              target_tuples, &plan.morsels, {},     {}};
  const uint32_t u0 = rep.roots()[frames[0].slot];
  const double c0 = counts[u0];
  SplitFrame(ctx, 0, u0, c0 > 0 ? plan.est_total / c0 : plan.est_total);
  return plan;
}

}  // namespace

MorselPlan PlanMorsels(const FRep& rep, bool visible_only,
                       double target_tuples) {
  if (rep.empty()) return {};
  // Any target below one tuple plans one-tuple morsels.
  MorselPlan plan = PlanStream(rep, visible_only, [=](double) {
    return target_tuples > 0 ? target_tuples : 1.0;
  });
  FDB_VALIDATE_MORSELS(rep, visible_only, plan);
  return plan;
}

ParallelEnumerator::ParallelEnumerator(const FRep& rep, EnumerateOptions opts,
                                       bool visible_only) {
  // Resolve against the hardware, not ThreadPool::Shared(): the shared
  // pool must not be spun up for enumerations that stay sequential.
  threads_ = opts.threads > 0
                 ? opts.threads
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));
  if (rep.empty()) return;  // zero chunks, ForEachChunk is a no-op
  if (threads_ > 1) {
    // One linear pass sizes the stream; below the cutoff the planning and
    // thread handoff are not worth it and the result stays on the caller.
    plan_ = PlanStream(rep, visible_only, [&](double est) {
      if (!(est >= opts.parallel_cutoff)) return 0.0;
      return opts.target_morsel_tuples > 0
                 ? opts.target_morsel_tuples
                 : std::max(1.0, est / (static_cast<double>(threads_) *
                                        kMorselsPerThread));
    });
  }
  if (plan_.morsels.empty()) {
    // Sequential fallback: one whole-stream chunk on the caller thread.
    plan_.morsels.push_back(Morsel{{}, plan_.est_total});
    threads_ = 1;
  }
  FDB_VALIDATE_MORSELS(rep, visible_only, plan_);
}

void ParallelEnumerator::ForEachChunk(
    const std::function<void(size_t)>& fn) const {
  const size_t n = plan_.morsels.size();
  if (n == 0) return;
  // Morsel tasks may run on pool threads, where the caller's governance
  // context is not ambient: capture it here and re-bind it inside every
  // chunk, so each worker observes the same cancellation flag and charges
  // the same budget. ParallelFor propagates the first exception back to
  // this caller; sibling morsels see the flagged context and stop at their
  // next probe, bounding reclaim time.
  ExecContext* const ctx = ExecContext::Current();
  auto governed = [&fn, ctx](size_t i) {
    ExecContext::Scope scope(ctx);
    if (ctx != nullptr) ctx->CheckCancelled();
    FDB_FAULT_POINT("enumerate_morsel");
    fn(i);
  };
  if (threads_ <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) governed(i);
    return;
  }
  ThreadPool::Shared().ParallelFor(n, governed, threads_);
}

Relation MaterializeVisible(const FRep& rep, const EnumerateOptions& opts,
                            const EnumKernel* kernel, QueryTrace* trace) {
  // Order restructuring: after these swaps the kernel stream is the sorted,
  // duplicate-free answer (see PlanOutputOrder).
  std::optional<FRep> restructured;
  {
    QueryTrace::Scope span(trace, "order-restructure");
    const std::vector<PlanStep> swaps = PlanOutputOrder(rep.tree());
    for (const PlanStep& step : swaps) {
      restructured = ExecuteStep(restructured ? *restructured : rep, step);
    }
    span.SetRows(swaps.size());
    span.SetBytes((restructured ? *restructured : rep).MemoryBytes());
  }
  const FRep& ordered = restructured ? *restructured : rep;

  std::optional<EnumKernel> compiled;
  if (kernel == nullptr || !kernel->visible_only() ||
      !kernel->Matches(ordered.tree())) {
    compiled.emplace(EnumKernel::Compile(ordered.tree(), /*visible_only=*/true,
                                         trace));
    kernel = &*compiled;
  }
  std::optional<ParallelEnumerator> pe;
  {
    QueryTrace::Scope span(trace, "morsel-plan");
    pe.emplace(ordered, opts, /*visible_only=*/true);
    span.SetRows(pe->num_chunks());
  }

  QueryTrace::Scope span(trace, "emit");
  Relation out(kernel->schema());
  const size_t arity = out.arity();
  if (arity == 0) {
    // Nullary or fully invisible: the kernel reports the single empty row
    // (none for the empty rep) without appending values.
    std::vector<Value> none;
    if (kernel->Emit(ordered, {}, &none) > 0) out.AddTuple({});
    span.SetRows(out.size());
    return out;
  }
  const std::vector<Morsel>& morsels = pe->plan().morsels;
  if (morsels.size() == 1) {
    // Sequential: append straight into the relation's storage, presized
    // exactly by the kernel's count mode (a fraction of a percent of the
    // emit) so the emit never reallocates.
    std::vector<Value> buf;
    pe->ForEachChunk([&](size_t) {
      buf.reserve(kernel->CountRows(ordered, morsels[0].bounds) * arity);
      kernel->Emit(ordered, morsels[0].bounds, &buf);
    });
    out.AdoptRows(std::move(buf));
  } else if (morsels.size() > 1) {
    // One kernel run per morsel, each written into its own slice of one
    // shared buffer: morsels partition the stream in order, so the slices
    // concatenate to the sequential stream with no copy.
    std::vector<size_t> offset(morsels.size() + 1, 0);
    for (size_t c = 0; c < morsels.size(); ++c) {
      offset[c + 1] =
          offset[c] + kernel->CountRows(ordered, morsels[c].bounds) * arity;
    }
    std::vector<Value> buf(offset.back());
    pe->ForEachChunk([&](size_t c) {
      kernel->EmitTo(ordered, morsels[c].bounds, buf.data() + offset[c]);
    });
    out.AdoptRows(std::move(buf));
  }
  span.SetRows(out.size());
  FDB_VALIDATE_INCREASING(out);
  return out;
}

}  // namespace fdb
