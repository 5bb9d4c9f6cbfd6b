// serve_mix: a QueryServer with default options, two closed-loop clients.
// About 19 in 20 requests repeat one of 8 statements (warm plan-cache
// hits, which may coalesce); about 1 in 20 carries a unique always-true
// constant (cold: parse, f-tree search and kernel compile every time, and
// the LRU wraps).
#include <atomic>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "api/engine.h"
#include "common/rng.h"
#include "core/kernel.h"
#include "rdb/rdb.h"
#include "serve/plan_cache.h"
#include "serve/query_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fdb;

constexpr int kLadderRels = 9;
constexpr int kClients = 2;
constexpr double kColdShare = 0.05;
/// Cold tags start far above every generated value, so the predicate
/// `a0 <= tag` is always true and only the statement text changes.
constexpr int64_t kColdTagBase = 1'000'000'000;

struct Statement {
  std::string sql;
  uint64_t ref_fp = 0;
};

/// Pulls one sample out of the Prometheus text exposition of STATS.
double ExpoValue(const std::string& expo, const std::string& name) {
  std::istringstream is(expo);
  std::string line;
  const std::string needle = name + " ";
  while (std::getline(is, line)) {
    if (line.rfind(needle, 0) == 0) return std::stod(line.substr(needle.size()));
  }
  return 0.0;
}

class ServeMix : public Workload {
 public:
  std::string Why() const override {
    return "serve path: normalising, the plan cache, f-tree search, queueing "
           "and rendering dominate; grounding and enumeration are small";
  }

  void Setup(const RunConfig& cfg) override {
    // One CPU per client. Unpinned, the two clients and the server's
    // workers spread over every CPU and each request's two thread
    // wake-ups cross CPUs; on a shared 4-CPU host that moved the p50 by
    // about 10% from run to run, against about 4% on two CPUs. The pool
    // threads the server starts inherit the mask.
    PinToFirstCpus(kClients);
    cfg_ = cfg;
    server_.reset();
    db_ = std::make_unique<Database>();
    warm_.clear();
    Rng rng(cfg.seed);
    BuildLadder(rng);
    BuildSmallStar(rng);
    server_ = std::make_unique<QueryServer>(db_.get(), ServeOptions{});
    for (const Statement& s : warm_) server_->Query(s.sql);  // warm-up
  }

  void Prepare(Outcome* out) override {
    // References come from a single-threaded Engine + RenderResult; SPJ
    // references are in turn checked against the flat baseline.
    EngineOptions opts;
    opts.enumerate.threads = 1;
    Engine ref(db_.get(), opts);
    auto reference = [&](const std::string& sql) {
      FdbResult res = ref.Execute(sql);
      Query q = ref.Parse(sql);
      Clock::time_point t0 = Clock::now();
      RdbResult flat = ref.ExecuteRdb(q.IsAggregate() ? q.SpjCore() : q);
      out->rdb_join_s.push_back(SecondsSince(t0));
      bool agrees;
      if (q.IsAggregate()) {
        GroupedTable t = HashGroupBy(flat.relation, q.group_by, q.aggregates);
        t.SortByKey();
        agrees = Fingerprint(t) == Fingerprint(*res.aggregate);
        out->flat_bytes += 8.0 * static_cast<double>(
                                     t.num_rows *
                                     (t.group_schema.size() + t.specs.size()));
      } else {
        Relation rows = MaterializeVisible(res.rep);
        agrees = Fingerprint(rows) == Fingerprint(Canonical(flat.relation));
        out->flat_bytes += 8.0 * static_cast<double>(rows.size() * rows.arity());
      }
      out->frep_bytes += static_cast<double>(res.rep.MemoryBytes());
      if (!agrees) {
        std::cerr << "perfbench: engine answer differs from the flat "
                     "baseline: "
                  << sql << "\n";
        return uint64_t{0};  // no served body can match this reference
      }
      return Fingerprint(RenderResult(*db_, res));
    };
    for (Statement& s : warm_) s.ref_fp = reference(s.sql);
    cold_ref_fp_ = reference(ColdSql(kColdTagBase - 1));
  }

  void Measure(double seconds, Outcome* out) override {
    out->measured_seconds = Load(seconds, &out->ops["serve"]);
  }

  void Trace(double seconds, SpanLog* log, Outcome* out) override {
    // Phase 1: the same closed-loop load; the server's own STATS
    // exposition and counters give the serve-layer metrics.
    OpSamples& o = out->ops["serve"];
    OpSamples load;
    Load(0.5 * seconds, &load);
    o.attempted += load.attempted;
    o.failed += load.failed;
    const ServerStats st = server_->stats();
    const std::string expo = server_->MetricsExposition();
    const double lookups =
        static_cast<double>(st.plan_cache.hits + st.plan_cache.misses);
    out->layer["serve.plan_cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(st.plan_cache.hits) / lookups : 0;
    out->layer["serve.coalesced_ratio"] =
        st.received > 0 ? static_cast<double>(st.coalesced) /
                              static_cast<double>(st.received)
                        : 0;
    out->layer["serve.kernels_built"] = static_cast<double>(st.kernels_built);
    out->layer["serve.evictions"] = static_cast<double>(st.plan_cache.evictions);
    out->layer["serve.queue_wait_p99_ms"] =
        1e3 * ExpoValue(expo, "fdb_serve_queue_wait_seconds_p99");
    out->layer["serve.execute_p50_ms"] =
        1e3 * ExpoValue(expo, "fdb_serve_execute_seconds_p50");
    out->layer["serve.execute_p99_ms"] =
        1e3 * ExpoValue(expo, "fdb_serve_execute_seconds_p99");

    // Phase 2: the same request stream replayed on one thread, each
    // request split into the public calls the server makes for it. Every
    // fourth request times only its root span: the overhead baseline.
    SpanLog roots(/*roots_only=*/true);
    OverheadPairs overhead;
    Engine engine(db_.get());
    PlanCache cache(ServeOptions{}.plan_cache_capacity);
    const uint64_t solves0 = engine.solver().solve_count();
    const uint64_t hits0 = engine.solver().hit_count();
    Rng rng(cfg_.seed * 7919 + 17);
    Clock::time_point start = Clock::now();
    for (uint64_t id = 1; SecondsSince(start) < 0.5 * seconds; ++id) {
      uint64_t ref_fp = 0;
      const std::string sql = Draw(rng, &ref_fp);
      SpanLog* into = id % 4 == 0 ? &roots : log;
      ++o.attempted;
      if (!Guarded([&] {
            return TracedRequest(engine, cache, sql, ref_fp, id, into);
          })) {
        ++o.failed;
      }
      // Requests pair up by answer: each warm statement, and all the cold
      // ones together.
      overhead.Add(ref_fp, into == log, into->LastOpSeconds());
    }
    const double s = static_cast<double>(engine.solver().solve_count() - solves0);
    const double h = static_cast<double>(engine.solver().hit_count() - hits0);
    out->layer["lp.edge_cover_hit_ratio"] = s + h > 0 ? h / (s + h) : 0.0;
    out->layer["trace.overhead_ratio"] = overhead.Ratio();
    out->measured_seconds = seconds;
  }

 private:
  /// The exp7 ladder: 9 ternary relations, b_i = a_{i+1}, c_i = a_{i+2};
  /// values are a seeded relabelling of the exp7 pattern, so every seed
  /// has the same join structure.
  void BuildLadder(Rng& rng) {
    const int64_t rows = cfg_.tiny ? 20 : 60;
    std::vector<Value> relabel(20);
    for (size_t v = 0; v < relabel.size(); ++v) relabel[v] = static_cast<Value>(v);
    rng.Shuffle(relabel);
    for (int i = 0; i < kLadderRels; ++i) {
      const std::string n = std::to_string(i);
      Relation& rel = db_->relation(
          db_->CreateRelation("r" + n, {"a" + n, "b" + n, "c" + n}));
      for (int64_t v = 0; v < rows; ++v) {
        rel.AddTuple({relabel[static_cast<size_t>((v * 7 + i) % 20)],
                      relabel[static_cast<size_t>((v * 8 + i) % 20)],
                      relabel[static_cast<size_t>((v * 9 + i) % 20)]});
      }
    }
    ladder_sql_ = "SELECT * FROM r0";
    for (int i = 1; i < kLadderRels; ++i) ladder_sql_ += ", r" + std::to_string(i);
    ladder_sql_ += " WHERE b0 = a1";
    for (int i = 1; i + 1 < kLadderRels; ++i) {
      ladder_sql_ += " AND b" + std::to_string(i) + " = a" + std::to_string(i + 1);
    }
    for (int i = 0; i + 2 < kLadderRels; ++i) {
      ladder_sql_ += " AND c" + std::to_string(i) + " = a" + std::to_string(i + 2);
    }
    for (int tag = 0; tag < 3; ++tag) warm_.push_back({ColdSql(tag), 0});
  }

  /// A small many-to-many star P(pa,pb) ⋈ Q(qb,qc) for SELECT and GROUP BY.
  /// At 1000 rows a side its statements take a few tenths of a millisecond,
  /// so the two thread wake-ups of every request (client to worker and
  /// back) no longer dominate the median: with 200 rows the serve p50
  /// moved by more than a quarter with the host's scheduling load.
  void BuildSmallStar(Rng& rng) {
    const int64_t n = cfg_.tiny ? 50 : 1000;
    const RelId p = db_->CreateRelation("P", {"pa", "pb"});
    const RelId q = db_->CreateRelation("Q", {"qb", "qc"});
    for (int64_t i = 1; i <= n; ++i) {
      db_->relation(p).AddTuple({i, rng.Uniform(1, 8)});
      db_->relation(q).AddTuple({rng.Uniform(1, 8), i});
    }
    const std::string join = " FROM P, Q WHERE pb = qb";
    const std::string half = std::to_string(n / 2 + rng.Uniform(0, n / 10));
    warm_.push_back({"SELECT *" + join, 0});
    warm_.push_back({"SELECT *" + join + " AND pa <= " + half, 0});
    warm_.push_back({"SELECT pb, COUNT(*), SUM(qc)" + join + " GROUP BY pb", 0});
    warm_.push_back({"SELECT pa, COUNT(*), SUM(qc)" + join + " GROUP BY pa", 0});
    warm_.push_back({"SELECT pb, COUNT(*), SUM(qc)" + join + " AND qc >= " +
                         half + " GROUP BY pb",
                     0});
  }

  std::string ColdSql(int64_t tag) const {
    return ladder_sql_ + " AND a0 <= " + std::to_string(kColdTagBase + tag);
  }

  /// Next request of a client: a warm statement, or with probability
  /// kColdShare a ladder statement with a never-seen tag.
  /// `key` names the statement: its index among the warm ones, or
  /// warm_.size() for every cold one.
  std::string Draw(Rng& rng, uint64_t* ref_fp, uint32_t* key = nullptr) {
    if (rng.NextDouble() < kColdShare) {
      *ref_fp = cold_ref_fp_;
      if (key != nullptr) *key = static_cast<uint32_t>(warm_.size());
      return ColdSql(kColdTagBase + next_cold_.fetch_add(1));
    }
    const size_t i = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(warm_.size()) - 1));
    *ref_fp = warm_[i].ref_fp;
    if (key != nullptr) *key = static_cast<uint32_t>(i);
    return warm_[i].sql;
  }

  /// kClients closed-loop clients for `seconds`: Submit → response in hand
  /// is one sample; a non-OK or wrong response is a failure and counts as
  /// missing every latency limit (+inf).
  /// Returns the wall time from start until both clients stopped.
  double Load(double seconds, OpSamples* out) {
    std::vector<OpSamples> per(kClients);
    std::vector<std::thread> clients;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(cfg_.seed * 1000003 + static_cast<uint64_t>(c));
        OpSamples& o = per[static_cast<size_t>(c)];
        while (SecondsSince(start) < seconds) {
          uint64_t ref_fp = 0;
          uint32_t key = 0;
          const std::string sql = Draw(rng, &ref_fp, &key);
          const bool corrupt = cfg_.corrupt_op >= 0 && sql == warm_[0].sql;
          Clock::time_point t0 = Clock::now();
          ServeResponse r;
          try {
            r = server_->Query(sql);
          } catch (const std::exception& e) {
            r = ServeResponse{ServeStatus::kError, e.what(), false, false};
          }
          double s = SecondsSince(t0);
          ++o.attempted;
          if (r.status != ServeStatus::kOk ||
              Fingerprint(r.body, corrupt) != ref_fp) {
            ++o.failed;
            s = std::numeric_limits<double>::infinity();
          }
          o.Add(key, s);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = SecondsSince(start);
    for (const OpSamples& o : per) {
      out->seconds.insert(out->seconds.end(), o.seconds.begin(), o.seconds.end());
      out->keys.insert(out->keys.end(), o.keys.begin(), o.keys.end());
      out->attempted += o.attempted;
      out->failed += o.failed;
    }
    return wall;
  }

  /// One request as the server handles it, each public call a span:
  /// NormalizeSql → PlanCache::Lookup → [Parse → OptimizeFlat] → ground →
  /// [GroupByAggregate → Materialize] → [EnumKernel::Compile on a miss] →
  /// RenderResult.
  bool TracedRequest(Engine& engine, PlanCache& cache, const std::string& sql,
                     uint64_t ref_fp, uint64_t id, SpanLog* log) {
    std::string body;
    {
      SpanLog::Scope root(log, "api.serve", id);
      std::string sig;
      {
        SpanLog::Scope s(log, "serve.normalize", id);
        sig = NormalizeSql(sql, db_->catalog());
      }
      std::shared_ptr<const CachedPlan> plan;
      {
        SpanLog::Scope s(log, "serve.plan_cache_lookup", id);
        plan = cache.Lookup(sig, db_->version());
      }
      std::shared_ptr<CachedPlan> fresh;
      if (plan == nullptr) {
        fresh = std::make_shared<CachedPlan>();
        {
          SpanLog::Scope s(log, "sql.parse", id);
          fresh->query = engine.Parse(sql);
        }
        {
          SpanLog::Scope s(log, "opt.ftree_search", id);
          fresh->search = engine.OptimizeFlat(fresh->query);
        }
        plan = fresh;
      }
      const Query& q = plan->query;
      FdbResult res{FRep{FTree{}}, FPlan{}, 0.0, 0.0, {}, {}};
      QueryInfo info;
      {
        SpanLog::Scope s(log, "storage.analyze_query", id);
        info = AnalyzeQuery(db_->catalog(), q);
      }
      {
        SpanLog::Scope s(log, "core.ground", id);
        res.rep = GroundQuery(plan->search.tree, db_->RelationPtrs(q.rels),
                              q.const_preds);
        if (!q.IsAggregate() && info.projection != info.all_attrs) {
          res.rep = Project(res.rep, info.projection);
        }
      }
      log->Count(id, "opt.ftree_s", plan->search.cost);
      log->Count(id, "core.ground_singletons",
                 static_cast<double>(res.rep.NumSingletons()));
      log->Count(id, "core.ground_bytes",
                 static_cast<double>(res.rep.MemoryBytes()));
      if (q.IsAggregate()) {
        FPlan steps;
        GroupedRep grouped;
        {
          SpanLog::Scope s(log, "core.aggregate.group", id);
          grouped = GroupByAggregate(res.rep, q.group_by, q.aggregates,
                                     &engine.solver(), &steps);
        }
        {
          SpanLog::Scope s(log, "core.aggregate.materialize", id);
          res.aggregate = grouped.Materialize(EnumerateOptions{});
          res.aggregate->SortByKey();
        }
        res.rep = std::move(grouped.rep);
      } else if (fresh != nullptr) {
        SpanLog::Scope s(log, "core.enumerate.compile", id);
        fresh->kernel = std::make_shared<const EnumKernel>(
            EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true));
      }
      if (fresh != nullptr) {
        SpanLog::Scope s(log, "serve.plan_cache_insert", id);
        cache.Insert(sig, db_->version(), std::move(fresh));
      }
      {
        SpanLog::Scope s(log, "serve.render", id);
        body = RenderResult(*db_, res);
      }
    }
    const bool corrupt = cfg_.corrupt_op >= 0 && sql == warm_[0].sql;
    return Fingerprint(body, corrupt) == ref_fp;
  }

  RunConfig cfg_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryServer> server_;
  std::string ladder_sql_;
  std::vector<Statement> warm_;
  uint64_t cold_ref_fp_ = 0;
  std::atomic<int64_t> next_cold_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix() { return std::make_unique<ServeMix>(); }

}  // namespace perfbench
