// Measurement plumbing shared by the perfbench workloads: latency samples
// and their percentiles, answer fingerprints, an in-memory span log for the
// traced run, resident-memory readings and a small JSON writer.
//
// Nothing here reaches into the engine: spans are opened around calls into
// the library's public functions, from the benchmark's side of the API.
#ifndef FDB_PERFBENCH_HARNESS_H_
#define FDB_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/frep.h"
#include "storage/query.h"
#include "storage/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for even counts); 0 when empty.
double Median(std::vector<double> v);

/// A tail percentile under the "at least ten samples beyond it" rule: the
/// nearest-rank `q` quantile when n*(1-q) >= 10, otherwise the highest
/// rank that still leaves ten samples above it. `used_q` reports the
/// quantile actually taken.
struct Tail {
  double value = 0;
  double used_q = 0;
};
Tail TailPercentile(std::vector<double> v, double q);

/// Latency samples of one operation type (seconds), each tagged with the
/// distinct operation (statement) it timed. Failed operations stay in the
/// samples; a refused serve request is recorded as +infinity.
struct OpSamples {
  std::vector<double> seconds;
  std::vector<uint32_t> keys;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(uint32_t key, double s) {
    keys.push_back(key);
    seconds.push_back(s);
  }
  /// Median of each distinct operation's samples, by key.
  std::map<uint32_t, double> PerKeyMedians() const;
};

/// 64-bit fingerprint of an answer, used to compare answers outside the
/// timed region without keeping them. `corrupt` perturbs the first value
/// hashed, which is how the self-test proves the oracle is not vacuous.
uint64_t Fingerprint(const fdb::Relation& r, bool corrupt = false);
uint64_t Fingerprint(const fdb::GroupedTable& t, bool corrupt = false);
uint64_t Fingerprint(std::string_view bytes, bool corrupt = false);

/// Columns permuted into ascending attribute order, rows sorted and
/// deduplicated: the form MaterializeVisible returns, so baseline and
/// engine answers compare byte for byte.
fdb::Relation Canonical(const fdb::Relation& r);

/// One traced call: name, start/end (seconds since the log was created),
/// the enclosing span and the operation it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  uint64_t op = 0;
};

/// Spans of one traced run, kept in memory and written out at the end.
/// Spans nest per operation (strict LIFO), as the RAII Scope guarantees.
/// A roots-only log times each operation's outermost span and nothing
/// inside it: the same split calls with tracing off, which is the
/// baseline of trace.overhead_ratio.
class SpanLog {
 public:
  explicit SpanLog(bool roots_only = false)
      : t0_(Clock::now()), roots_only_(roots_only) {}

  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  /// Counter sample attached to an operation (e.g. rows emitted).
  void Count(uint64_t op, const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  const std::multimap<uint64_t, std::pair<std::string, double>>& counts()
      const {
    return counts_;
  }

  /// Duration of the most recent operation root (an "api.<type>" span).
  double LastOpSeconds() const;

  /// Self time of every span (its duration minus the part its children
  /// cover), summed per (operation, span name).
  std::map<uint64_t, std::map<std::string, double>> SelfTimes() const;

  /// Writes one JSON object per span; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  bool roots_only_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::multimap<uint64_t, std::pair<std::string, double>> counts_;
};

/// trace.overhead_ratio from paired runs of the same operations: for each
/// operation key, the median time of its fully traced runs over that of
/// its root-only runs; the ratio is the median over keys with both.
class OverheadPairs {
 public:
  void Add(uint64_t key, bool traced, double seconds) {
    (traced ? traced_ : roots_)[key].push_back(seconds);
  }
  double Ratio() const;

 private:
  std::map<uint64_t, std::vector<double>> traced_, roots_;
};

/// Prints an engine error to stderr, once per distinct message, so a
/// failing operation is visible without flooding the log. Called from the
/// single measuring thread only.
void ReportEngineError(const std::string& what, const std::exception& e);

/// Runs one traced operation; an engine error makes it a failed one.
template <typename Fn>
bool Guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    ReportEngineError("traced operation", e);
    return false;
  }
}

/// Peak resident set (VmHWM) in MiB, and a reset of that peak to the
/// current resident set so the timed phase measures its own high-water
/// mark. Reset returns false where the kernel does not support it.
double PeakRssMb();
bool ResetPeakRss();

/// Minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, uint64_t v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Bool(const std::string& key, bool v);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Done() const { return "{" + body_ + "}"; }
  static std::string Quote(const std::string& s);

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Restricts the calling thread to the first `n` CPUs the process started
/// on (all of them when it had fewer). Threads it starts afterwards
/// inherit the mask.
void PinToFirstCpus(int n);
/// Number of CPUs the calling thread may run on.
int CpusInUse();

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// Next(), and gives the thread its whole mask back when destroyed. On a
/// shared host the CPUs of one machine run the same code at speeds up to
/// a third apart, steadily for minutes, so a single-threaded loop that
/// stays where the scheduler first put it measures that CPU. Stepping
/// once per pass over the operations gives every operation samples from
/// every CPU in equal shares.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int pinned_ = -1;  ///< the CPU the last Next() chose
};

/// Effective parallelism: the speed-up of `threads` copies of a fixed spin
/// loop over one copy, measured in well under a second.
double EffectiveParallelism(int threads);

}  // namespace perfbench

#endif  // FDB_PERFBENCH_HARNESS_H_
