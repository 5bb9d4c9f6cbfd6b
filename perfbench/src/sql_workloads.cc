// star_m2m: SQL text in, flat Relation or GroupedTable out, plus new
// selections on in-memory f-reps (f-rep out); one closed-loop client on an
// Engine.
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <set>

#include "api/engine.h"
#include "common/rng.h"
#include "core/kernel.h"
#include "rdb/rdb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fdb;

struct SqlOp {
  std::string type;  ///< "select", "groupby" or "compose"
  /// The statement; for "compose", the query whose f-rep is composed on.
  std::string sql;
  uint64_t ref_fp = 0;     ///< flat-baseline answer
  uint64_t engine_fp = 0;  ///< engine answer in the reference pass
  /// "compose": new equalities, constant selections and a projection,
  /// applied to the in-memory f-rep of `sql` by Engine::EvaluateOnFRep.
  std::vector<std::pair<AttrId, AttrId>> eqs;
  std::vector<ConstPred> preds;
  AttrSet projection;
};

const char* StepName(PlanStep::Kind k) {
  switch (k) {
    case PlanStep::Kind::kSwap: return "core.fplan.swap";
    case PlanStep::Kind::kPushUp: return "core.fplan.pushup";
    case PlanStep::Kind::kMerge: return "core.fplan.merge";
    case PlanStep::Kind::kAbsorb: return "core.fplan.absorb";
    case PlanStep::Kind::kNormalize: return "core.fplan.normalize";
    case PlanStep::Kind::kSelectConst: return "core.fplan.select";
    case PlanStep::Kind::kProject: return "core.fplan.project";
  }
  return "core.fplan.other";
}

struct Answer {
  uint64_t fp = 0;
  double frep_bytes = 0;
  double flat_bytes = 0;
};

class SqlWorkload : public Workload {
 public:
  void Setup(const RunConfig& cfg) override {
    cfg_ = cfg;
    engine_.reset();
    db_ = std::make_unique<Database>();
    ops_.clear();
    bases_.clear();
    Rng rng(cfg.seed);
    Build(rng);
    engine_ = std::make_unique<Engine>(db_.get());
    // The f-reps composed operations start from, held in memory.
    for (const SqlOp& op : ops_) {
      if (op.type == "compose" && bases_.count(op.sql) == 0) {
        bases_.emplace(op.sql,
                       engine_->EvaluateFlat(engine_->Parse(op.sql)).rep);
      }
    }
    // Warm-up: the first operation Build made of each type (the same
    // statement shape for every seed), so lazily built state such as the
    // shared thread pool and the LP memo exists before anything is timed.
    std::set<std::string> seen;
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (seen.insert(ops_[i].type).second) Run(i, false);
    }
    rng.Shuffle(ops_);
  }

  void Prepare(Outcome* out) override {
    for (size_t i = 0; i < ops_.size(); ++i) {
      SqlOp& op = ops_[i];
      Query q = engine_->Parse(op.sql);
      if (op.type == "compose") {
        // The flat filter of the base result: the base query plus the new
        // equalities, selections and projection.
        q.equalities.insert(q.equalities.end(), op.eqs.begin(), op.eqs.end());
        q.const_preds.insert(q.const_preds.end(), op.preds.begin(),
                             op.preds.end());
        q.projection = op.projection;
      }
      Clock::time_point t0 = Clock::now();
      if (op.type != "groupby") {
        RdbResult flat = engine_->ExecuteRdb(q);
        out->rdb_join_s.push_back(SecondsSince(t0));
        op.ref_fp = Fingerprint(Canonical(flat.relation));
      } else {
        RdbResult flat = engine_->ExecuteRdb(q.SpjCore());
        out->rdb_join_s.push_back(SecondsSince(t0));
        GroupedTable ref = HashGroupBy(flat.relation, q.group_by, q.aggregates);
        ref.SortByKey();
        op.ref_fp = Fingerprint(ref);
      }
      Answer a;
      Run(i, false, &a);
      op.engine_fp = a.fp;
      out->frep_bytes += a.frep_bytes;
      out->flat_bytes += a.flat_bytes;
      if (op.engine_fp != op.ref_fp) {
        std::cerr << "perfbench: engine answer differs from the flat "
                     "baseline: "
                  << op.sql << "\n";
      }
    }
  }

  void Measure(double seconds, Outcome* out) override {
    CpuRotation cpus;
    Clock::time_point start = Clock::now();
    for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
      const size_t k = i % ops_.size();
      if (k == 0) cpus.Next();
      Answer a;
      const double s = Run(k, true, &a);
      OpSamples& o = out->ops[ops_[k].type];
      o.Add(static_cast<uint32_t>(k), s);
      ++o.attempted;
      if (a.fp != ops_[k].ref_fp) ++o.failed;
    }
    out->measured_seconds = SecondsSince(start);
  }

  void Trace(double seconds, SpanLog* log, Outcome* out) override {
    // Every fourth pass over the operations, from the second on, makes
    // the same split calls with only the root span timed: the overhead
    // ratio's baseline. The first pass, still warming, is fully traced.
    SpanLog roots(/*roots_only=*/true);
    OverheadPairs overhead;
    const uint64_t solves0 = engine_->solver().solve_count();
    const uint64_t hits0 = engine_->solver().hit_count();
    Clock::time_point start = Clock::now();
    // Whole passes only, so both logs hold the same mix of operations.
    for (uint64_t i = 0; i % ops_.size() != 0 || SecondsSince(start) < seconds;
         ++i) {
      const size_t k = i % ops_.size();
      SpanLog* into = (i / ops_.size()) % 4 == 1 ? &roots : log;
      const bool ok = Guarded([&] {
        const std::string& type = ops_[k].type;
        return type == "select"    ? TracedSelect(k, i + 1, into)
               : type == "groupby" ? TracedGroupBy(k, i + 1, into)
                                   : TracedCompose(k, i + 1, into);
      });
      overhead.Add(k, into == log, into->LastOpSeconds());
      OpSamples& o = out->ops[ops_[k].type];
      ++o.attempted;
      if (!ok) ++o.failed;
    }
    const double solves =
        static_cast<double>(engine_->solver().solve_count() - solves0);
    const double hits =
        static_cast<double>(engine_->solver().hit_count() - hits0);
    out->layer["lp.edge_cover_hit_ratio"] =
        solves + hits > 0 ? hits / (solves + hits) : 0.0;
    out->layer["trace.overhead_ratio"] = overhead.Ratio();
    out->measured_seconds = SecondsSince(start);
  }

 protected:
  /// Fills db_ and ops_ from the seeded generator.
  virtual void Build(Rng& rng) = 0;

  void AddOp(const std::string& type, const std::string& sql) {
    ops_.push_back(SqlOp{type, sql, 0, 0, {}, {}, {}});
  }

  /// A composed operation on the in-memory f-rep of `sql`.
  void AddCompose(const std::string& sql,
                  std::vector<std::pair<AttrId, AttrId>> eqs,
                  std::vector<ConstPred> preds, AttrSet projection) {
    ops_.push_back(SqlOp{"compose", sql, 0, 0, std::move(eqs),
                         std::move(preds), projection});
  }

  AttrId Attr(const std::string& name) const {
    return static_cast<AttrId>(db_->catalog().FindAttribute(name));
  }

  std::unique_ptr<Database> db_;

  const RunConfig& cfg() const { return cfg_; }

 private:
  /// One operation the way a user runs it; returns its latency. The
  /// answer's fingerprint and sizes are taken after the clock stops. An
  /// engine error is a failed operation: its time so far stays a sample
  /// and its fingerprint (0) matches no reference.
  double Run(size_t k, bool may_corrupt, Answer* a = nullptr) {
    const SqlOp& op = ops_[k];
    const bool corrupt = may_corrupt && static_cast<int>(k) == cfg_.corrupt_op;
    Answer local;
    Answer& ans = a != nullptr ? *a : local;
    ans = Answer{};
    Clock::time_point t0 = Clock::now();
    try {
      if (op.type == "compose") {
        FdbResult res = engine_->EvaluateOnFRep(bases_.at(op.sql), op.eqs,
                                                op.preds, op.projection);
        const double s = SecondsSince(t0);
        EnumerateOptions seq;
        seq.threads = 1;
        Relation flat = MaterializeVisible(res.rep, seq);
        ans.fp = Fingerprint(flat, corrupt);
        ans.frep_bytes = static_cast<double>(res.rep.MemoryBytes());
        ans.flat_bytes = 8.0 * static_cast<double>(flat.size() * flat.arity());
        return s;
      }
      FdbResult res = engine_->Execute(op.sql);
      if (op.type == "select") {
        Relation rel = engine_->MaterializeResult(res);
        const double s = SecondsSince(t0);
        ans.fp = Fingerprint(rel, corrupt);
        ans.frep_bytes = static_cast<double>(res.rep.MemoryBytes());
        ans.flat_bytes = 8.0 * static_cast<double>(rel.size() * rel.arity());
        return s;
      }
      const double s = SecondsSince(t0);
      const GroupedTable& t = *res.aggregate;
      ans.fp = Fingerprint(t, corrupt);
      ans.frep_bytes = static_cast<double>(res.rep.MemoryBytes());
      ans.flat_bytes = 8.0 * static_cast<double>(
                                 t.num_rows *
                                 (t.group_schema.size() + t.specs.size()));
      return s;
    } catch (const std::exception& e) {
      const double s = SecondsSince(t0);
      ReportEngineError(op.sql, e);
      return s;
    }
  }

  /// Parse → OptimizeFlat → ground/project → Compile → PlanMorsels →
  /// CountRows → Emit → SortLex, each call its own span; then the
  /// engine's own MaterializeVisible on the same rep as a separate root,
  /// which must give the identical relation.
  bool TracedSelect(size_t k, uint64_t id, SpanLog* log) {
    const SqlOp& op = ops_[k];
    Relation rows(std::vector<AttrId>{});
    FRep rep{FTree{}};
    uint64_t emitted = 0;
    {
      SpanLog::Scope root(log, "api.select", id);
      Query q;
      {
        SpanLog::Scope s(log, "sql.parse", id);
        q = engine_->Parse(op.sql);
      }
      FTreeSearchResult t;
      {
        SpanLog::Scope s(log, "opt.ftree_search", id);
        t = engine_->OptimizeFlat(q);
      }
      QueryInfo info;
      {
        SpanLog::Scope s(log, "storage.analyze_query", id);
        info = AnalyzeQuery(db_->catalog(), q);
      }
      {
        SpanLog::Scope s(log, "core.ground", id);
        rep = GroundQuery(t.tree, db_->RelationPtrs(q.rels), q.const_preds);
        if (info.projection != info.all_attrs) rep = Project(rep, info.projection);
      }
      log->Count(id, "opt.ftree_s", t.cost);
      log->Count(id, "core.ground_singletons",
                 static_cast<double>(rep.NumSingletons()));
      log->Count(id, "core.ground_bytes",
                 static_cast<double>(rep.MemoryBytes()));
      std::optional<EnumKernel> kernel;
      {
        SpanLog::Scope s(log, "core.enumerate.compile", id);
        kernel.emplace(EnumKernel::Compile(rep.tree(), /*visible_only=*/true));
      }
      {
        SpanLog::Scope s(log, "core.enumerate.plan_morsels", id);
        ParallelEnumerator pe(rep, EnumerateOptions{}, /*visible_only=*/true);
        log->Count(id, "core.enumerate.morsels",
                   static_cast<double>(pe.num_chunks()));
      }
      const size_t arity = kernel->schema().size();
      uint64_t n = 0;
      {
        SpanLog::Scope s(log, "core.enumerate.count", id);
        if (!rep.empty()) n = kernel->CountRows(rep, {});
      }
      {
        SpanLog::Scope s(log, "core.enumerate.emit", id);
        std::vector<Value> buf;
        buf.reserve(static_cast<size_t>(n) * arity);
        if (!rep.empty()) emitted = kernel->Emit(rep, {}, &buf);
        rows = Relation(kernel->schema());
        if (arity > 0) {
          rows.AdoptRows(std::move(buf));
        } else {
          for (uint64_t r = 0; r < emitted; ++r) rows.AddTuple({});
        }
      }
      {
        SpanLog::Scope s(log, "storage.sort", id);
        rows.SortLex();
      }
    }
    log->Count(id, "core.enumerate.rows", static_cast<double>(emitted));
    log->Count(id, "core.enumerate.dedup_removed",
               static_cast<double>(emitted - rows.size()));
    Relation engine_rows(std::vector<AttrId>{});
    {
      SpanLog::Scope s(log, "core.enumerate.materialize", id);
      engine_rows = MaterializeVisible(rep, EnumerateOptions{});
    }
    const bool corrupt = static_cast<int>(k) == cfg_.corrupt_op;
    const uint64_t fp = Fingerprint(rows, corrupt);
    return engine_rows == rows && fp == op.engine_fp && fp == op.ref_fp;
  }

  /// Parse → OptimizeFlat → ground → GroupByAggregate (restructure +
  /// collapse) → GroupedRep::Materialize + SortByKey.
  bool TracedGroupBy(size_t k, uint64_t id, SpanLog* log) {
    const SqlOp& op = ops_[k];
    GroupedTable table;
    {
      SpanLog::Scope root(log, "api.groupby", id);
      Query q;
      {
        SpanLog::Scope s(log, "sql.parse", id);
        q = engine_->Parse(op.sql);
      }
      FTreeSearchResult t;
      {
        SpanLog::Scope s(log, "opt.ftree_search", id);
        t = engine_->OptimizeFlat(q);
      }
      FRep rep{FTree{}};
      {
        SpanLog::Scope s(log, "core.ground", id);
        rep = GroundQuery(t.tree, db_->RelationPtrs(q.rels), q.const_preds);
      }
      log->Count(id, "opt.ftree_s", t.cost);
      log->Count(id, "core.ground_singletons",
                 static_cast<double>(rep.NumSingletons()));
      log->Count(id, "core.ground_bytes",
                 static_cast<double>(rep.MemoryBytes()));
      FPlan plan;
      GroupedRep grouped;
      {
        SpanLog::Scope s(log, "core.aggregate.group", id);
        grouped = GroupByAggregate(rep, q.group_by, q.aggregates,
                                   &engine_->solver(), &plan);
      }
      double swaps = 0;
      for (const PlanStep& st : plan.steps) {
        swaps += st.kind == PlanStep::Kind::kSwap ? 1 : 0;
      }
      log->Count(id, "core.aggregate.swaps", swaps);
      {
        SpanLog::Scope s(log, "core.aggregate.materialize", id);
        table = grouped.Materialize(EnumerateOptions{});
        table.SortByKey();
      }
    }
    const bool corrupt = static_cast<int>(k) == cfg_.corrupt_op;
    const uint64_t fp = Fingerprint(table, corrupt);
    return fp == op.engine_fp && fp == op.ref_fp;
  }

  /// OptimizeOnTree → one ExecuteStep span per plan step, constant
  /// selections first and projection last, as EvaluateOnFRep orders them.
  bool TracedCompose(size_t k, uint64_t id, SpanLog* log) {
    const SqlOp& op = ops_[k];
    const FRep& base = bases_.at(op.sql);
    FRep cur{FTree{}};
    {
      SpanLog::Scope root(log, "api.compose", id);
      FPlanSearchResult search;
      {
        SpanLog::Scope s(log, "opt.fplan_search", id);
        search = engine_->OptimizeOnTree(base.tree(), op.eqs);
      }
      std::vector<PlanStep> steps;
      for (const ConstPred& p : op.preds) {
        steps.push_back(PlanStep::MakeSelectConst(p.attr, p.op, p.value));
      }
      steps.insert(steps.end(), search.plan.steps.begin(),
                   search.plan.steps.end());
      if (!op.projection.Empty()) {
        steps.push_back(PlanStep::MakeProject(op.projection));
      }
      log->Count(id, "opt.fplan_cost_s", search.plan.cost_max_s);
      log->Count(id, "core.fplan.steps", static_cast<double>(steps.size()));
      const FRep* in = &base;
      for (const PlanStep& step : steps) {
        SpanLog::Scope s(log, StepName(step.kind), id);
        cur = ExecuteStep(*in, step);
        in = &cur;
      }
      if (steps.empty()) cur = base;
    }
    EnumerateOptions seq;
    seq.threads = 1;
    const uint64_t fp = Fingerprint(MaterializeVisible(cur, seq),
                                    static_cast<int>(k) == cfg_.corrupt_op);
    return fp == op.engine_fp && fp == op.ref_fp;
  }

  RunConfig cfg_;
  std::unique_ptr<Engine> engine_;
  std::vector<SqlOp> ops_;
  /// In-memory f-reps of the composed operations' base queries, by SQL.
  std::map<std::string, FRep> bases_;
};

/// Many-to-many star S(sa,sb) ⋈ T(tb,tc) on a 32-value join domain, on
/// an Engine with default EngineOptions: the parallel sort/dedup sink is
/// what this workload measures.
class StarM2M : public SqlWorkload {
 public:
  std::string Why() const override {
    return "many-to-many star: time goes to enumeration and the sort/dedup "
           "sink, and to the f-plan operators on in-memory f-reps; "
           "grounding and optimisation are negligible";
  }

 protected:
  void Build(Rng& rng) override {
    const int64_t n = cfg().tiny ? 300 : 4000;
    const int64_t domain = 32;
    const RelId s = db_->CreateRelation("S", {"sa", "sb"});
    const RelId t = db_->CreateRelation("T", {"tb", "tc"});
    for (int64_t i = 1; i <= n; ++i) {
      db_->relation(s).AddTuple({i, rng.Uniform(1, domain)});
      db_->relation(t).AddTuple({rng.Uniform(1, domain), i});
    }
    // Range bounds near a fixed fraction of the key range, jittered by the
    // seed: result sizes vary within a run but their spread is the same
    // for every seed.
    auto sa_le = [&](double f) {
      const int64_t j = std::max<int64_t>(1, n / 200);
      return " AND sa <= " + std::to_string(std::llround(f * n) +
                                            rng.Uniform(-j, j));
    };
    auto tc_ge = [&](double f) {
      const int64_t j = std::max<int64_t>(1, n / 200);
      return " AND tc >= " + std::to_string(n - std::llround(f * n) + 1 +
                                            rng.Uniform(-j, j));
    };
    const std::string join = " FROM S, T WHERE sb = tb";
    const std::pair<double, double> fractions[] = {
        {1, 1},     {1, 1},    {1, .75},   {.75, 1},  {.75, .75}, {1, .5},
        {.5, 1},    {.5, .75}, {.75, .5},  {.5, .5},  {1, .25},   {.25, 1}};
    for (const auto& [a, b] : fractions) {
      std::string sql = "SELECT *" + join;
      if (a < 1) sql += sa_le(a);
      if (b < 1) sql += tc_ge(b);
      AddOp("select", sql);
    }
    // Grouping on the join key (32 groups) is two thirds of the GROUP BY
    // mix and on sa (one group per S tuple) one third, so the groupby p50
    // sits inside the first mode and the p90 inside the second.
    auto group = [&](const char* key, const std::string& preds) {
      AddOp("groupby", std::string("SELECT ") + key + ", COUNT(*), SUM(tc)" +
                           join + preds + " GROUP BY " + key);
    };
    group("sb", "");
    group("sb", sa_le(.5));
    group("sb", tc_ge(.5));
    group("sb", sa_le(.75));
    group("sa", "");
    group("sa", tc_ge(.5));
    // New equalities (L = 1, 2) and range selections on in-memory f-reps:
    // the f-plan search and the swap/merge/absorb/select/project operators
    // on large representations. On the join's f-rep the results have about
    // n/32 tuples; on the product S x T the new equality sb = tb is the
    // join itself (the paper's join of two f-reps), which restructures
    // both trees first. The answer is the result f-rep, not its rows.
    const AttrId sa = Attr("sa"), sb = Attr("sb"), tc = Attr("tc");
    // With --eq-selections each selection is attr = constant instead.
    const bool eq = cfg().eq_selections;
    auto le = [&](AttrId a, double f) {
      const int64_t j = std::max<int64_t>(1, n / 200);
      return ConstPred{a, eq ? CmpOp::kEq : CmpOp::kLe,
                       std::llround(f * n) + rng.Uniform(-j, j)};
    };
    auto ge = [&](AttrId a, double f) {
      const int64_t j = std::max<int64_t>(1, n / 200);
      return ConstPred{a, eq ? CmpOp::kEq : CmpOp::kGe,
                       n - std::llround(f * n) + 1 + rng.Uniform(-j, j)};
    };
    const std::string all = "SELECT *" + join;
    AddCompose(all, {{sa, tc}}, {}, {});
    AddCompose(all, {{sa, tc}}, {le(sa, .5)}, AttrSet::FromVector({sa, sb}));
    AddCompose(all, {{sa, tc}}, {ge(tc, .75)}, AttrSet::FromVector({sb, tc}));
    AddCompose(all, {{sa, sb}}, {}, {});
    AddCompose(all, {{sb, tc}}, {le(sa, .75)}, AttrSet::FromVector({sa, tc}));
    AddCompose(all, {{sa, sb}, {sb, tc}}, {}, {});
    const std::string product = "SELECT * FROM S, T";
    const AttrId tb = Attr("tb");
    AddCompose(product, {{sb, tb}}, {le(sa, .25), ge(tc, .25)}, {});
    AddCompose(product, {{sb, tb}}, {le(sa, .5)},
               AttrSet::FromVector({sa, tb}));
    AddCompose(product, {{sb, tb}, {sa, tc}}, {}, {});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeStarM2M() { return std::make_unique<StarM2M>(); }

}  // namespace perfbench
