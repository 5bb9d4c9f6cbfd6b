#include "core/frep.h"

namespace fdb {

void FRep::MarkEmpty() {
  FDB_CHECK_MSG(scratch_top_ == 0, "MarkEmpty with open builders");
  empty_ = true;
  // Swap-with-empty releases capacity: an intermediate that became empty
  // mid-f-plan must not keep its peak arena allocation alive.
  std::vector<uint32_t>().swap(roots_);
  std::vector<Value>().swap(values_);
  std::vector<uint32_t>().swap(children_);
  std::vector<UnionHeader>().swap(headers_);
  std::vector<std::unique_ptr<Scratch>>().swap(scratch_);
}

std::vector<char> FRep::ReachableUnions(
    const std::vector<char>* keep) const {
  std::vector<char> reach(headers_.size(), 0);
  if (empty_) return reach;
  const auto kept = [keep](int node) {
    return keep == nullptr || (*keep)[static_cast<size_t>(node)];
  };
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (kept(tree_.roots()[i])) reach[roots_[i]] = 1;
  }
  // Children precede their parents, so a union is final before the loop
  // reaches it.
  for (size_t id = headers_.size(); id-- > 0;) {
    if (!reach[id]) continue;
    const UnionHeader& h = headers_[id];
    const uint32_t* kids = children_.data() + h.child_off;
    const std::vector<int>& ch = tree_.node(h.node).children;
    const size_t k = ch.size();
    for (size_t j = 0; j < k; ++j) {
      if (!kept(ch[j])) continue;
      for (size_t e = 0; e < h.len; ++e) reach[kids[e * k + j]] = 1;
    }
  }
  return reach;
}

// Shared unions count once; unreachable (dropped-entry) unions not at all.
size_t FRep::NumSingletons() const {
  const std::vector<char> reach = ReachableUnions();
  size_t total = 0;
  for (size_t id = 0; id < headers_.size(); ++id) {
    if (!reach[id]) continue;
    total += headers_[id].len *
             static_cast<size_t>(tree_.node(headers_[id].node).visible.Size());
  }
  return total;
}

size_t FRep::NumValues() const {
  const std::vector<char> reach = ReachableUnions();
  size_t total = 0;
  for (size_t id = 0; id < headers_.size(); ++id) {
    if (reach[id]) total += headers_[id].len;
  }
  return total;
}

size_t FRep::MemoryBytes() const {
  size_t total = values_.capacity() * sizeof(Value) +
                 children_.capacity() * sizeof(uint32_t) +
                 headers_.capacity() * sizeof(UnionHeader) +
                 roots_.capacity() * sizeof(uint32_t) +
                 scratch_.capacity() * sizeof(scratch_[0]);
  for (const auto& s : scratch_) {
    total += sizeof(Scratch) + s->vals.capacity() * sizeof(Value) +
             s->kids.capacity() * sizeof(uint32_t);
  }
  return total;
}

namespace {

// The counting DP over the union DAG (Swap output and hand-built or
// deserialised reps share subtrees): one forward loop over the ids, so every
// child's count is final before its parents read it. Only the unions
// ReachableUnions(keep) marks are counted, so dropped-entry leftovers can
// neither saturate the pass nor cost time; masked child slots contribute
// factor 1. `Num` is the accumulator type; `mul`/`add` fold two values and
// return false on saturation, which aborts the whole pass. memo[id] is the
// count of the subtree rooted at union id (0 for unmarked unions).
template <typename Num, typename Mul, typename Add>
bool CountDp(const FRep& rep, const std::vector<char>* keep, Num one, Mul mul,
             Add add, std::vector<Num>* memo) {
  const std::vector<char> reach = rep.ReachableUnions(keep);
  memo->assign(rep.NumUnions(), Num{});
  // Governance probe: the DP touches every reachable union, so large reps
  // make it a cancellation window in its own right.
  ExecContext* const ctx = ExecContext::Current();
  uint32_t tick = 0;
  for (uint32_t id = 0; id < rep.NumUnions(); ++id) {
    if (!reach[id]) continue;
    if (ctx != nullptr && (++tick & 255u) == 0) ctx->CheckCancelled();
    UnionRef un = rep.u(id);
    const std::vector<int>& ch = rep.tree().node(un.node()).children;
    const size_t k = ch.size();
    Num total{};
    for (size_t e = 0; e < un.size(); ++e) {
      Num prod = one;
      for (size_t j = 0; j < k; ++j) {
        if (keep != nullptr && !(*keep)[static_cast<size_t>(ch[j])]) continue;
        if (!mul(prod, (*memo)[un.Child(e, j, k)], &prod)) return false;
      }
      if (!add(total, prod, &total)) return false;
    }
    (*memo)[id] = total;
  }
  return true;
}

// The whole rep's count: the DP, then the product over the root trees.
template <typename Num, typename Mul, typename Add>
bool CountAll(const FRep& rep, Num one, Mul mul, Add add, Num* out) {
  std::vector<Num> memo;
  if (!CountDp(rep, nullptr, one, mul, add, &memo)) return false;
  Num result = one;
  for (uint32_t r : rep.roots()) {
    if (!mul(result, memo[r], &result)) return false;
  }
  *out = result;
  return true;
}

bool MulDouble(double a, double b, double* o) {
  *o = a * b;
  return true;
}

bool AddDouble(double a, double b, double* o) {
  *o = a + b;
  return true;
}

bool TryCountU64(const FRep& rep, uint64_t* out) {
  auto mul = [](uint64_t a, uint64_t b, uint64_t* o) {
    return !U64MulOverflow(a, b, o);
  };
  auto add = [](uint64_t a, uint64_t b, uint64_t* o) {
    return !U64AddOverflow(a, b, o);
  };
  return CountAll<uint64_t>(rep, 1, mul, add, out);
}

}  // namespace

double FRep::CountTuples(bool* exact) const {
  if (exact != nullptr) *exact = true;
  if (empty_) return 0.0;
  if (roots_.empty()) return 1.0;  // the nullary tuple <>
  uint64_t exact_count = 0;
  if (TryCountU64(*this, &exact_count)) {
    double d = static_cast<double>(exact_count);
    if (exact != nullptr) {
      // Equal to the true count iff the uint64 -> double round trip is
      // lossless (always below 2^53, and for round values above).
      *exact = d < 18446744073709551616.0 &&
               static_cast<uint64_t>(d) == exact_count;
    }
    return d;
  }
  // Saturated uint64: fall back to (approximate) double accumulation.
  if (exact != nullptr) *exact = false;
  double approx = 0.0;
  CountAll(*this, 1.0, MulDouble, AddDouble, &approx);
  return approx;
}

std::vector<double> FRep::SubtreeTupleCounts(
    const std::vector<char>* keep) const {
  std::vector<double> memo;
  CountDp(*this, keep, 1.0, MulDouble, AddDouble, &memo);
  return memo;
}

uint64_t FRep::CountTuplesExact() const {
  if (empty_) return 0;
  if (roots_.empty()) return 1;  // the nullary tuple <>
  uint64_t count = 0;
  FDB_CHECK_MSG(TryCountU64(*this, &count),
                "tuple count overflows uint64 — the representation encodes "
                "more than 2^64 tuples");
  return count;
}

void FRep::Validate() const {
  tree_.Validate();
  FDB_CHECK_MSG(scratch_top_ == 0, "Validate with open builders");
  if (empty_) {
    FDB_CHECK_MSG(roots_.empty() && headers_.empty(),
                  "empty representation must have no unions");
    return;
  }
  FDB_CHECK_MSG(roots_.size() == tree_.roots().size(),
                "root unions must align with tree roots");
  size_t val_end = 0, child_end = 0;
  for (const UnionHeader& h : headers_) {
    FDB_CHECK_MSG(h.val_off >= val_end && h.child_off >= child_end,
                  "union windows not in id order");
    val_end = h.val_off + h.len;
    child_end = h.child_off + h.num_children;
  }
  std::vector<char> reach(headers_.size(), 0);
  for (size_t i = 0; i < roots_.size(); ++i) {
    FDB_CHECK(roots_[i] < headers_.size());
    FDB_CHECK_MSG(headers_[roots_[i]].node == tree_.roots()[i],
                  "root union bound to wrong tree node");
    reach[roots_[i]] = 1;
  }
  // Children must precede their parents; then one backward loop visits
  // every reachable union once (sharing is legal, e.g. Swap output).
  for (uint32_t id = static_cast<uint32_t>(headers_.size()); id-- > 0;) {
    if (!reach[id]) continue;
    UnionRef un = u(id);
    const FTreeNode& nd = tree_.node(un.node());
    FDB_CHECK_MSG(nd.alive, "union bound to dead tree node");
    FDB_CHECK_MSG(!un.empty(), "empty union inside non-empty rep");
    FDB_CHECK_MSG(un.num_children() == un.size() * nd.children.size(),
                  "child slot count mismatch");
    for (size_t e = 1; e < un.size(); ++e) {
      FDB_CHECK_MSG(un.value(e - 1) < un.value(e),
                    "union values not strictly increasing");
    }
    const size_t k = nd.children.size();
    for (size_t e = 0; e < un.size(); ++e) {
      for (size_t j = 0; j < k; ++j) {
        uint32_t c = un.Child(e, j, k);
        FDB_CHECK_MSG(c < id, "child union does not precede its parent");
        FDB_CHECK_MSG(headers_[c].node == nd.children[j],
                      "child union bound to wrong tree node");
        reach[c] = 1;
      }
    }
  }
}

}  // namespace fdb
