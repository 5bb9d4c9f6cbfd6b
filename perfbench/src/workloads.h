// The perfbench workloads behind one interface. Each workload makes
// its data and statements from the seed, sets itself up, computes
// reference answers with the flat baselines, and then runs either the
// untraced closed loop (end-to-end metrics) or the traced replay that
// splits every operation into calls to public layer functions.
#ifndef FDB_PERFBENCH_WORKLOADS_H_
#define FDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  bool tiny = false;     ///< self-test scale: small data, same code paths
  int corrupt_op = -1;   ///< self-test: corrupt every answer of this op
  /// star_m2m's composed operations select attr = constant instead of a
  /// range (the self-test check of a known f-plan defect).
  bool eq_selections = false;
};

/// Everything one run measured; main turns it into the result JSON.
struct Outcome {
  std::map<std::string, OpSamples> ops;  ///< by op type: select, groupby, ...
  double measured_seconds = 0;
  /// Σ FRep::MemoryBytes of the reference answers and Σ rows×arity×8 of
  /// their flat form, over the workload's distinct operations.
  double frep_bytes = 0;
  double flat_bytes = 0;
  /// Flat-baseline evaluation times of the reference pass (rdb.join_ms).
  std::vector<double> rdb_join_s;
  /// Traced run: metrics a workload sets directly (serve statistics, LP
  /// hit ratio, trace overhead).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Why this workload exists: the layers it stresses.
  virtual std::string Why() const = 0;
  /// Generates data and statements, loads them and warms up. Called
  /// several times per run (set-up time is a reported metric); each call
  /// replaces the previous instance.
  virtual void Setup(const RunConfig& cfg) = 0;
  /// Reference answers from the flat baselines; untimed. Operations whose
  /// engine answer disagrees are flagged and count as failed every time
  /// they run.
  virtual void Prepare(Outcome* out) = 0;
  /// Untraced closed loop for `seconds`.
  virtual void Measure(double seconds, Outcome* out) = 0;
  /// Traced replay for `seconds`: every operation split into its layer
  /// calls; a quarter of them time only their root span, as the overhead
  /// baseline.
  virtual void Trace(double seconds, SpanLog* log, Outcome* out) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // FDB_PERFBENCH_WORKLOADS_H_
