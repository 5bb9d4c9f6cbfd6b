// fdb_perfbench: runs one workload for a fixed time and prints one JSON
// document with every metric it measured (run.py selects the ones
// BENCHMARK.json names).
//
//   fdb_perfbench --workload star_m2m --seed 1 --seconds 10 --trace 0
//                 [--tiny] [--corrupt-op N] [--eq-selections]
//                 [--spans out.jsonl]
//
// --trace 0 measures the end-to-end metrics on the untraced closed loop;
// --trace 1 replays the same seeded operations split into public layer
// calls and reports per-layer self times and counts. --tiny, --corrupt-op
// and --eq-selections exist for the harness self-test (selftest.py).
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeStarM2M();
std::unique_ptr<Workload> MakeServeMix();

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "star_m2m") return MakeStarM2M();
  if (name == "serve_mix") return MakeServeMix();
  return nullptr;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool eq_selections = false;
  int corrupt_op = -1;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny" || k == "--eq-selections") {
      (k == "--tiny" ? a->tiny : a->eq_selections) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--corrupt-op") {
      a->corrupt_op = std::atoi(v.c_str());
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

/// One metric of the results document. `better` is its direction, which
/// compare.py reads; run.py checks it against BENCHMARK.json.
std::string Metric(double value, const std::string& unit,
                   const char* better = "lower") {
  return Json()
      .Num("value", value)
      .Str("unit", unit)
      .Str("better", better)
      .Done();
}

std::string FrepRatio(const Outcome& out) {
  return Metric(out.flat_bytes > 0 ? out.frep_bytes / out.flat_bytes : 0,
                "ratio");
}

/// End-to-end metrics of the untraced run.
std::string EndToEnd(const Outcome& out, double setup_s, Json* detail) {
  Json m;
  Json samples, tail_q;
  uint64_t attempted = 0, failed = 0;
  for (const auto& [type, o] : out.ops) {
    const double q = type == "serve" ? 0.99 : 0.90;
    const double p50 = 1e3 * Median(o.seconds);
    const Tail tail = TailPercentile(o.seconds, q);
    m.Raw(type + "_p50_ms", Metric(p50, "ms"));
    m.Raw(type + (type == "serve" ? "_p99_ms" : "_p90_ms"),
          Metric(1e3 * tail.value, "ms"));
    samples.Int(type, o.seconds.size());
    tail_q.Num(type, tail.used_q);
    attempted += o.attempted;
    failed += o.failed;
  }
  // The serve loop's two concurrent clients: OK responses over wall time.
  if (out.ops.count("serve") > 0) {
    m.Raw("serve_qps",
          Metric(static_cast<double>(attempted - failed) / out.measured_seconds,
                 "1/s", "higher"));
  }
  // The gate: every distinct operation weighs the same, whatever its
  // share of the samples, and a run's figure moves smoothly with the
  // seed instead of jumping between the modes of a mixed distribution.
  std::vector<double> per_op;
  for (const auto& [type, o] : out.ops) {
    for (const auto& [key, s] : o.PerKeyMedians()) per_op.push_back(1e3 * s);
  }
  m.Raw("op_ms", Metric(GeoMean(per_op), "ms"));
  m.Raw("setup_s", Metric(setup_s, "s"));
  m.Raw("frep_bytes_per_flat_byte", FrepRatio(out));
  m.Raw("peak_rss_mb", Metric(PeakRssMb(), "MB"));
  m.Raw("failed_ratio",
        Metric(attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0,
               "ratio"));
  detail->Raw("samples", samples.Done()).Raw("tail_quantile", tail_q.Done());
  return m.Done();
}

struct LayerSpec {
  const char* span;
  const char* metric;
  double scale;
  const char* unit;
  const char* better = "lower";
};

// Span name → per-layer metric: the median, over the operations that made
// the call, of the call's self time per operation.
constexpr LayerSpec kTimed[] = {
    {"sql.parse", "sql.parse_us", 1e6, "us"},
    {"opt.ftree_search", "opt.ftree_search_ms", 1e3, "ms"},
    {"opt.fplan_search", "opt.fplan_search_ms", 1e3, "ms"},
    {"core.ground", "core.ground_ms", 1e3, "ms"},
    {"core.fplan.swap", "core.fplan.swap_ms", 1e3, "ms"},
    {"core.fplan.pushup", "core.fplan.pushup_ms", 1e3, "ms"},
    {"core.fplan.merge", "core.fplan.merge_ms", 1e3, "ms"},
    {"core.fplan.absorb", "core.fplan.absorb_ms", 1e3, "ms"},
    {"core.fplan.normalize", "core.fplan.normalize_ms", 1e3, "ms"},
    {"core.fplan.select", "core.fplan.select_ms", 1e3, "ms"},
    {"core.fplan.project", "core.fplan.project_ms", 1e3, "ms"},
    {"core.aggregate.group", "core.aggregate.group_ms", 1e3, "ms"},
    {"core.aggregate.materialize", "core.aggregate.materialize_ms", 1e3, "ms"},
    {"core.enumerate.compile", "core.enumerate.compile_us", 1e6, "us"},
    {"core.enumerate.count", "core.enumerate.count_ms", 1e3, "ms"},
    {"core.enumerate.emit", "core.enumerate.emit_ms", 1e3, "ms"},
    {"core.enumerate.materialize", "core.enumerate.materialize_ms", 1e3, "ms"},
    {"storage.sort", "storage.sort_ms", 1e3, "ms"},
    {"serve.normalize", "serve.normalize_us", 1e6, "us"},
    {"serve.render", "serve.render_us", 1e6, "us"},
};

// Counter name → per-layer metric: the median over the operations that
// reported it.
constexpr LayerSpec kCounted[] = {
    {"opt.ftree_s", "opt.ftree_s", 1, "exponent"},
    {"opt.fplan_cost_s", "opt.fplan_cost_s", 1, "exponent"},
    {"core.ground_singletons", "core.ground_singletons", 1, "count"},
    {"core.ground_bytes", "core.ground_bytes", 1, "bytes"},
    {"core.fplan.steps", "core.fplan.steps", 1, "count"},
    {"core.aggregate.swaps", "core.aggregate.swaps", 1, "count"},
    {"core.enumerate.rows", "core.enumerate.rows", 1, "count"},
    {"core.enumerate.morsels", "core.enumerate.morsels", 1, "count"},
};

// Metrics a workload sets directly; absent ones read 0.
constexpr LayerSpec kDirect[] = {
    {"", "lp.edge_cover_hit_ratio", 1, "ratio", "higher"},
    {"", "serve.queue_wait_p99_ms", 1, "ms"},
    {"", "serve.execute_p50_ms", 1, "ms"},
    {"", "serve.execute_p99_ms", 1, "ms"},
    {"", "serve.plan_cache_hit_ratio", 1, "ratio", "higher"},
    {"", "serve.coalesced_ratio", 1, "ratio", "higher"},
    {"", "serve.kernels_built", 1, "count"},
    {"", "serve.evictions", 1, "count"},
    {"", "trace.overhead_ratio", 1, "ratio"},
};

/// Per-layer metrics of the traced run.
std::string PerLayer(const Outcome& out, const SpanLog& log, Json* detail) {
  const auto self = log.SelfTimes();
  // Operation roots are the "api.<type>" spans.
  std::map<uint64_t, std::string> type_of;
  std::map<std::string, std::vector<double>> root_s, unattributed_s;
  for (const Span& s : log.spans()) {
    if (s.parent < 0 && s.name.rfind("api.", 0) == 0) {
      const std::string type = s.name.substr(4);
      type_of[s.op] = type;
      root_s[type].push_back(s.end - s.start);
      unattributed_s[type].push_back(self.at(s.op).at(s.name));
    }
  }
  Json m;
  for (const LayerSpec& l : kTimed) {
    std::vector<double> v;
    for (const auto& [op, names] : self) {
      auto it = names.find(l.span);
      if (it != names.end()) v.push_back(it->second);
    }
    m.Raw(l.metric, Metric(l.scale * Median(v), l.unit));
  }
  std::map<std::string, std::vector<double>> counts;
  for (const auto& [op, nv] : log.counts()) counts[nv.first].push_back(nv.second);
  for (const LayerSpec& l : kCounted) {
    m.Raw(l.metric, Metric(Median(counts[l.span]), l.unit));
  }
  double removed = 0, rows = 0;
  for (double x : counts["core.enumerate.dedup_removed"]) removed += x;
  for (double x : counts["core.enumerate.rows"]) rows += x;
  m.Raw("core.enumerate.dedup_hit_ratio",
        Metric(rows > 0 ? removed / rows : 0, "ratio", "higher"));
  for (const LayerSpec& l : kDirect) {
    auto it = out.layer.find(l.metric);
    m.Raw(l.metric, Metric(it == out.layer.end() ? 0 : it->second, l.unit,
                           l.better));
  }
  m.Raw("rdb.join_ms", Metric(1e3 * Median(out.rdb_join_s), "ms"));
  m.Raw("frep_bytes_per_flat_byte", FrepRatio(out));
  m.Raw("peak_rss_mb", Metric(PeakRssMb(), "MB"));

  double worst = 0;
  Json shares;
  for (const auto& [type, v] : unattributed_s) {
    const double u = Median(v), total = Median(root_s[type]);
    worst = std::max(worst, u);
    shares.Num(type, total > 0 ? u / total : 0);
  }
  m.Raw("api.unattributed_ms", Metric(1e3 * worst, "ms"));
  detail->Raw("unattributed_share", shares.Done())
      .Int("traced_ops", type_of.size());
  return m.Done();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: fdb_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-op N] [--eq-selections] "
                 "[--spans PATH]\n";
    return 2;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(FDB_VALIDATE) || defined(FDB_FAULTS)
  // Instrumentation can only come in through compiler flags from the
  // environment (CXXFLAGS); such numbers would not be comparable.
  std::cerr << "fdb_perfbench: refusing to measure an instrumented build\n";
  return 3;
#endif
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::cerr << "fdb_perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.tiny = args.tiny;
  cfg.corrupt_op = args.corrupt_op;
  cfg.eq_selections = args.eq_selections;

  // Calibrated before set-up, which may pin the process to fewer CPUs.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const double effective = EffectiveParallelism(std::max(nproc, 1));

  // Set-up runs at least kMinSetups times and until the set-ups have
  // taken kSetupSeconds, so a short set-up (serve_mix: ~15 ms) gets a
  // median over many repetitions; the last instance is kept.
  constexpr int kMinSetups = 5, kMaxSetups = 200;
  constexpr double kSetupSeconds = 2.0;
  const size_t min_setups = args.tiny ? 2 : kMinSetups;
  const double setup_budget = args.tiny ? 0 : kSetupSeconds;
  // The set-ups go round the CPUs like the timed loops do.
  std::vector<double> setup_runs;
  {
    CpuRotation cpus;
    for (double total = 0;
         setup_runs.size() < min_setups ||
         (total < setup_budget && setup_runs.size() < kMaxSetups);) {
      cpus.Next();
      Clock::time_point t0 = Clock::now();
      wl->Setup(cfg);
      setup_runs.push_back(SecondsSince(t0));
      total += setup_runs.back();
    }
  }
  Outcome out;
  wl->Prepare(&out);
  const bool rss_reset = ResetPeakRss();

  Json detail;
  detail.Str("workload", args.workload)
      .Str("why", wl->Why())
      .Int("seed", args.seed)
      .Int("trace", args.trace ? 1 : 0)
      .Str("scale", args.tiny ? "tiny" : "full")
      .Raw("provenance", Json()
                             .Str("compiler", PERFBENCH_COMPILER)
                             .Str("build_type", PERFBENCH_BUILD_TYPE)
                             .Int("nproc", static_cast<uint64_t>(nproc))
                             .Num("effective_parallelism", effective)
                             .Int("cpus_used",
                                  static_cast<uint64_t>(CpusInUse()))
                             .Bool("peak_rss_reset", rss_reset)
                             .Done());
  std::string setups_json;
  for (double s : setup_runs) {
    setups_json += (setups_json.empty() ? "" : ",") + std::to_string(s);
  }
  detail.Raw("setup_runs_s", "[" + setups_json + "]");

  std::string metrics;
  if (args.trace) {
    SpanLog log;
    wl->Trace(args.seconds, &log, &out);
    metrics = PerLayer(out, log, &detail);
    if (!args.spans.empty() && !log.Write(args.spans)) {
      std::cerr << "fdb_perfbench: cannot write " << args.spans << "\n";
      return 1;
    }
  } else {
    wl->Measure(args.seconds, &out);
    metrics = EndToEnd(out, Median(setup_runs), &detail);
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto& [type, o] : out.ops) {
    attempted += o.attempted;
    failed += o.failed;
  }
  detail.Int("attempted", attempted)
      .Int("failed", failed)
      .Num("measured_seconds", out.measured_seconds)
      .Raw("metrics", metrics);
  std::cout << detail.Done() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fdb_perfbench: " << e.what() << "\n";
    return 1;
  }
}
