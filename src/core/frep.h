// Factorised representations (f-representations, §2 Def. 1–2).
//
// An f-representation over an f-tree T is stored *columnar*: instead of one
// heap-allocated node per union, FRep owns three contiguous arenas and every
// union is a (offset, length) window into them:
//
//   values_    [ v v v | v v | v v v v | ... ]   one Value per union entry
//   children_  [ c c c c c c | c c | ... ]       child union ids, row-major:
//                                                entry-major, slot-minor
//   headers_   [ {node, len, val_off, child_off, num_children} ... ]
//              one small header per union; the union id is its index here
//
// A union's id is assigned when it is committed, so ids follow commit
// order: header i's windows follow header i-1's in both arenas, and every
// child id is smaller than its parent's. A pass over the union DAG is
// therefore one loop over the ids — forward visits children before their
// parents (the counting and aggregation DPs), backward visits parents
// before their children (reachability from the roots).
//
// One UnionRef (a non-owning view: FRep pointer + union id) materialises one
// occurrence of an f-tree node: the sorted distinct values of the grouping
// class in that context, and for every value one child union per child of
// the f-tree node. Views stay valid across arena growth because they
// re-resolve offsets through the FRep on every access; raw `values()` /
// `children()` pointers are only valid until the next arena append.
//
// Construction goes through UnionBuilder (FRep::StartUnion): entries are
// staged in a small scratch buffer (recycled LIFO across unions, so steady-
// state construction performs no per-union allocation) and committed to the
// arena tail in one append on Finish(), which also assigns the id. Builders
// nest like the operator recursion that drives them: a child's id is only
// known once the child is committed, so it precedes its parent's. Abandon()
// discards a union that turned out empty and commits nothing. Unions an
// operator committed and then dropped (the children of an abandoned entry)
// stay in the arenas unreachable; passes skip them by reachability.
//
// Invariants (checked by Validate(), preserved by every operator):
//   * values within a union are strictly increasing (the paper's order
//     constraint, required by the swap/merge algorithms);
//   * no union stored in a non-empty representation is empty — emptiness
//     propagates to the whole representation (`empty()`);
//   * the child count of every entry equals the f-tree node's child count,
//     and child unions belong to the corresponding child f-tree nodes;
//   * every child id is smaller than its parent's id.
//
// The empty relation over any tree is representable (empty() == true); the
// nullary relation <> is the non-empty representation over the empty forest.
#ifndef FDB_CORE_FREP_H_
#define FDB_CORE_FREP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/asan.h"
#include "common/exec_context.h"
#include "common/fault.h"
#include "common/types.h"
#include "core/ftree.h"

namespace fdb {

class FRep;

/// Per-union arena header: where this union's window lives.
struct UnionHeader {
  int32_t node = -1;         ///< owning f-tree node id
  uint32_t len = 0;          ///< number of entries (values)
  size_t val_off = 0;        ///< first value in the value arena
  size_t child_off = 0;      ///< first child id in the child arena
  size_t num_children = 0;   ///< committed child ids (len * #tree children)
};

/// Non-owning view of one union. Cheap to copy; stable across arena growth
/// (offsets are re-resolved through the FRep on every access).
class UnionRef {
 public:
  UnionRef() = default;

  int node() const;
  /// Number of entries (values) in the union.
  size_t size() const;
  bool empty() const { return size() == 0; }
  Value value(size_t entry) const;
  /// Contiguous value window, `size()` entries. Valid until the arena grows.
  const Value* values() const;

  size_t num_children() const;
  uint32_t child(size_t i) const;
  /// Contiguous child-id window, `num_children()` entries (entry-major,
  /// slot-minor). Valid until the arena grows.
  const uint32_t* children() const;
  /// Child union of `entry` in child slot `slot` of `nslots`.
  uint32_t Child(size_t entry, size_t slot, size_t nslots) const {
    return children()[entry * nslots + slot];
  }

  /// Offset of this union's window in the value arena: entry `e` has the
  /// rep-wide entry index arena_offset() + e. Stable once the union is
  /// committed (windows never move), which makes it usable as a key for
  /// per-entry side arrays (see GroupedRep in core/aggregate.h).
  size_t arena_offset() const;

  uint32_t id() const { return id_; }

 private:
  friend class FRep;
  UnionRef(const FRep* rep, uint32_t id) : rep_(rep), id_(id) {}

  const FRep* rep_ = nullptr;
  uint32_t id_ = 0;
};

/// Append-only staging handle for one union under construction. Move-only;
/// exactly one of Finish() / Abandon() ends the build (the destructor
/// abandons an open builder). Values and child ids may be appended in any
/// interleaving; Finish() commits both windows to the arena atomically.
/// The union has no id until Finish() returns it.
class UnionBuilder {
 public:
  UnionBuilder(const UnionBuilder&) = delete;
  UnionBuilder& operator=(const UnionBuilder&) = delete;
  UnionBuilder(UnionBuilder&& other) noexcept;
  UnionBuilder& operator=(UnionBuilder&& other) noexcept;
  ~UnionBuilder();

  /// Entries staged so far.
  size_t size() const;
  bool empty() const { return size() == 0; }

  void AddValue(Value v);
  void AddChild(uint32_t child);
  void AddValues(const Value* v, size_t n);
  /// Bulk-appends every value of `u` (typically a union of another FRep).
  void CopyValues(const UnionRef& u);
  /// Unstages the last `n` child ids (an entry dropped mid-build).
  void DropChildren(size_t n);

  /// Commits the staged entries to the arena tail; returns the union id,
  /// which is NumUnions() before the call (ids are in commit order).
  uint32_t Finish();
  /// Discards the staged entries; nothing is committed and no id is used.
  void Abandon();

 private:
  friend class FRep;
  struct Scratch {
    std::vector<Value> vals;
    std::vector<uint32_t> kids;
  };
  UnionBuilder(FRep* rep, int node, Scratch* s)
      : rep_(rep), s_(s), node_(node) {}

  FRep* rep_ = nullptr;
  Scratch* s_ = nullptr;  ///< null once finished/abandoned/moved-from
  int node_ = -1;
};

/// A factorised representation bound to an f-tree.
class FRep {
 public:
  /// The empty relation over `tree`.
  explicit FRep(FTree tree) : tree_(std::move(tree)) {}

  // Copies duplicate the arenas (three buffer memcpys); builder scratch is
  // never copied and no builder may be open on the source.
  FRep(const FRep& o)
      : tree_(o.tree_),
        values_(o.values_),
        children_(o.children_),
        headers_(o.headers_),
        roots_(o.roots_),
        empty_(o.empty_) {
    FDB_CHECK_MSG(o.scratch_top_ == 0, "cannot copy an FRep with open builders");
    // The freshly copied buffers carry no poison; re-arm their slack.
    asan::PoisonTail(values_);
    asan::PoisonTail(children_);
    asan::PoisonTail(headers_);
  }
  FRep& operator=(const FRep& o) {
    if (this != &o) *this = FRep(o);
    return *this;
  }
  // Moves relocate the arenas a live UnionBuilder points into, so they are
  // guarded like copies. Deliberately not noexcept: misuse must surface as
  // an FdbError, and containers fall back to the (equally guarded) copy.
  FRep(FRep&& o)
      : tree_(std::move(o.tree_)),
        values_(std::move(o.values_)),
        children_(std::move(o.children_)),
        headers_(std::move(o.headers_)),
        roots_(std::move(o.roots_)),
        empty_(o.empty_),
        scratch_(std::move(o.scratch_)) {
    FDB_CHECK_MSG(o.scratch_top_ == 0, "cannot move an FRep with open builders");
  }
  FRep& operator=(FRep&& o) {
    if (this != &o) {
      FDB_CHECK_MSG(scratch_top_ == 0 && o.scratch_top_ == 0,
                    "cannot move an FRep with open builders");
      tree_ = std::move(o.tree_);
      values_ = std::move(o.values_);
      children_ = std::move(o.children_);
      headers_ = std::move(o.headers_);
      roots_ = std::move(o.roots_);
      empty_ = o.empty_;
      scratch_ = std::move(o.scratch_);
    }
    return *this;
  }

  const FTree& tree() const { return tree_; }
  FTree& tree() { return tree_; }

  /// True for the empty relation (no tuples).
  bool empty() const { return empty_; }
  void MarkNonEmpty() { empty_ = false; }
  /// Empties the representation and *releases* arena capacity
  /// (shrink_to_fit semantics), so emptied intermediates inside f-plan
  /// execution do not pin peak memory.
  void MarkEmpty();

  /// Opens a builder for a new union of f-tree node `node`. Nothing is
  /// committed, and no id assigned, until the builder's Finish().
  UnionBuilder StartUnion(int node);

  /// View of union `id`.
  UnionRef u(uint32_t id) const { return UnionRef(this, id); }

  /// Root unions, aligned with tree().roots() order.
  std::vector<uint32_t>& roots() { return roots_; }
  const std::vector<uint32_t>& roots() const { return roots_; }

  size_t NumUnions() const { return headers_.size(); }

  /// Reachability mask over the union ids: out[id] = 1 iff union id is
  /// reachable from the roots. When `keep` is given (indexed by f-tree node
  /// id), child slots whose node is masked out are not followed, and
  /// neither are masked root slots. One backward loop over the ids.
  std::vector<char> ReachableUnions(
      const std::vector<char>* keep = nullptr) const;

  /// Value of the entry with rep-wide entry index `i`
  /// (UnionRef::arena_offset() + entry, as EnumKernel::EmitEntries
  /// reports it).
  Value ValueAt(size_t i) const { return values_[i]; }

  // Read-only arena geometry, for the deep structural checker
  // (core/validate.h): it must bounds-check every header window against the
  // arenas *before* dereferencing values/children through UnionRef.
  const UnionHeader& HeaderOf(uint32_t id) const { return headers_[id]; }
  size_t ValueArenaSize() const { return values_.size(); }
  size_t ChildArenaSize() const { return children_.size(); }
  /// Allocated (not just live) value-arena entries. The slack
  /// [ValueArenaSize(), ValueArenaCapacity()) is ASan-poisoned between
  /// mutations (common/asan.h); tests/asan_poison_test.cc probes it.
  size_t ValueArenaCapacity() const { return values_.capacity(); }
  /// Builders currently open (non-zero means arenas may still move).
  size_t OpenBuilders() const { return scratch_top_; }

  /// Number of singletons (the paper's |E|): every value of a union counts
  /// once per *visible* attribute of its class. Counts the stored rep: a
  /// union referenced from several entries (a shared subtree) counts once.
  size_t NumSingletons() const;

  /// Number of physically stored values (one per union entry).
  size_t NumValues() const;

  /// Heap bytes held by this representation: value arena + child arena +
  /// union headers + roots + recycled builder scratch, capacity-based (what
  /// the allocator actually handed out, not just live data).
  size_t MemoryBytes() const;

  /// Number of represented tuples (over all attributes, visible or not),
  /// by dynamic programming over the union DAG. The DP accumulates in
  /// uint64_t, so the count is computed exactly whenever it fits 64 bits;
  /// past that it falls back to double accumulation. When `exact` is given
  /// it is set to true iff the returned double equals the true count.
  double CountTuples(bool* exact = nullptr) const;

  /// Exact tuple count; throws FdbError when the count overflows uint64_t
  /// (product-heavy representations can exceed 2^64 tuples).
  uint64_t CountTuplesExact() const;

  /// The per-union memo of the CountTuples DP: out[id] = number of tuples
  /// represented by the subtree rooted at union id, accumulated in double
  /// (exact below 2^53). When `keep` is given (indexed by f-tree node id,
  /// closed under parents), child slots whose node is masked out
  /// contribute factor 1 — the count of the enumeration stream restricted
  /// to kept frames (a visible_only EnumKernel's stream). Unions that
  /// ReachableUnions(keep) does not mark stay 0. Feeds the morsel planner
  /// and its parallel cutoff in core/parallel_enumerate.h.
  std::vector<double> SubtreeTupleCounts(
      const std::vector<char>* keep = nullptr) const;

  /// Checks all representation invariants; throws FdbError on violation.
  void Validate() const;

 private:
  friend class UnionRef;
  friend class UnionBuilder;
  using Scratch = UnionBuilder::Scratch;

  const UnionHeader& header(uint32_t id) const { return headers_[id]; }

  Scratch* AcquireScratch();
  void ReleaseScratch(Scratch* s);
  uint32_t CommitUnion(int node, const Scratch& s);

  FTree tree_;
  std::vector<Value> values_;        ///< value arena
  std::vector<uint32_t> children_;   ///< child-id arena
  std::vector<UnionHeader> headers_; ///< union id -> window
  std::vector<uint32_t> roots_;
  bool empty_ = true;
  // LIFO pool of staging buffers for open builders; entries keep their
  // capacity across unions so steady-state building does not allocate.
  std::vector<std::unique_ptr<Scratch>> scratch_;
  size_t scratch_top_ = 0;  ///< scratch_[0, scratch_top_) are in use
};

// ---- UnionRef inline accessors (need FRep complete) ----

inline int UnionRef::node() const { return rep_->header(id_).node; }
inline size_t UnionRef::size() const { return rep_->header(id_).len; }
inline Value UnionRef::value(size_t entry) const {
  return rep_->values_[rep_->header(id_).val_off + entry];
}
inline const Value* UnionRef::values() const {
  return rep_->values_.data() + rep_->header(id_).val_off;
}
inline size_t UnionRef::num_children() const {
  return rep_->header(id_).num_children;
}
inline uint32_t UnionRef::child(size_t i) const {
  return rep_->children_[rep_->header(id_).child_off + i];
}
inline const uint32_t* UnionRef::children() const {
  return rep_->children_.data() + rep_->header(id_).child_off;
}
inline size_t UnionRef::arena_offset() const {
  return rep_->header(id_).val_off;
}

// ---- UnionBuilder inline members ----

inline size_t UnionBuilder::size() const { return s_->vals.size(); }
inline void UnionBuilder::AddValue(Value v) { s_->vals.push_back(v); }
inline void UnionBuilder::AddChild(uint32_t child) {
  s_->kids.push_back(child);
}
inline void UnionBuilder::AddValues(const Value* v, size_t n) {
  s_->vals.insert(s_->vals.end(), v, v + n);
}
inline void UnionBuilder::CopyValues(const UnionRef& u) {
  AddValues(u.values(), u.size());
}
inline void UnionBuilder::DropChildren(size_t n) {
  s_->kids.resize(s_->kids.size() - n);
}

inline UnionBuilder::UnionBuilder(UnionBuilder&& other) noexcept
    : rep_(other.rep_), s_(other.s_), node_(other.node_) {
  other.s_ = nullptr;
}
inline UnionBuilder& UnionBuilder::operator=(UnionBuilder&& other) noexcept {
  if (this != &other) {
    if (s_ != nullptr) Abandon();
    rep_ = other.rep_;
    s_ = other.s_;
    node_ = other.node_;
    other.s_ = nullptr;
  }
  return *this;
}
inline UnionBuilder::~UnionBuilder() {
  if (s_ != nullptr) Abandon();
}

inline uint32_t UnionBuilder::Finish() {
  FDB_CHECK_MSG(s_ != nullptr, "Finish() on a closed UnionBuilder");
  const uint32_t id = rep_->CommitUnion(node_, *s_);
  rep_->ReleaseScratch(s_);
  s_ = nullptr;
  return id;
}

inline void UnionBuilder::Abandon() {
  FDB_CHECK_MSG(s_ != nullptr, "Abandon() on a closed UnionBuilder");
  rep_->ReleaseScratch(s_);
  s_ = nullptr;
}

// ---- FRep inline builder plumbing ----

inline UnionBuilder FRep::StartUnion(int node) {
  return UnionBuilder(this, node, AcquireScratch());
}

inline FRep::Scratch* FRep::AcquireScratch() {
  if (scratch_top_ == scratch_.size()) {
    scratch_.push_back(std::make_unique<Scratch>());
  }
  Scratch* s = scratch_[scratch_top_++].get();
  // Recycled buffers are poisoned while parked (ReleaseScratch); re-admit
  // them before the builder starts staging into them.
  asan::UnpoisonBuffer(s->vals);
  asan::UnpoisonBuffer(s->kids);
  return s;
}

inline void FRep::ReleaseScratch(Scratch* s) {
  // Builders nest with the operator recursion, so the released buffer is
  // almost always top-of-stack; out-of-order release (e.g. builders stored
  // in a container) is tolerated by swapping the slot to the top. Never
  // throws: this runs inside UnionBuilder's destructor.
  s->vals.clear();
  s->kids.clear();
  // Parked scratch is logically dead until the next AcquireScratch; poison
  // the whole buffers so a stale builder reference faults instead of
  // reading recycled bytes.
  asan::PoisonBuffer(s->vals);
  asan::PoisonBuffer(s->kids);
  for (size_t i = scratch_top_; i > 0; --i) {
    if (scratch_[i - 1].get() == s) {
      std::swap(scratch_[i - 1], scratch_[scratch_top_ - 1]);
      --scratch_top_;
      return;
    }
  }
}

inline uint32_t FRep::CommitUnion(int node, const Scratch& s) {
  // Governance probe at arena-growth granularity: check for cancellation
  // and charge the appended bytes *before* mutating the arenas, so an
  // unwinding commit leaves the rep discardable rather than half-written
  // (the caller's UnionBuilder still owns the scratch and Abandons it).
  if (ExecContext* ctx = ExecContext::Current()) {
    ctx->CheckCancelled();
    ctx->ChargeMemory(sizeof(UnionHeader) + s.vals.size() * sizeof(Value) +
                      s.kids.size() * sizeof(uint32_t));
  }
  FDB_FAULT_POINT("frep_arena_commit");
  UnionHeader h;
  h.node = node;
  h.val_off = values_.size();
  h.child_off = children_.size();
  h.len = static_cast<uint32_t>(s.vals.size());
  h.num_children = s.kids.size();
  // The appends construct elements inside the (poisoned) slack when
  // capacity suffices; open the slack for the writes, then re-arm it. A
  // reallocating append frees the old buffer (ASan unpoisons on free) and
  // the fresh one starts clean, so PoisonTail is correct either way.
  asan::UnpoisonTail(values_);
  values_.insert(values_.end(), s.vals.begin(), s.vals.end());
  asan::PoisonTail(values_);
  asan::UnpoisonTail(children_);
  children_.insert(children_.end(), s.kids.begin(), s.kids.end());
  asan::PoisonTail(children_);
  // The header goes in last: a union exists once its windows do.
  asan::UnpoisonTail(headers_);
  headers_.push_back(h);
  asan::PoisonTail(headers_);
  return static_cast<uint32_t>(headers_.size()) - 1;
}

}  // namespace fdb

#endif  // FDB_CORE_FREP_H_
