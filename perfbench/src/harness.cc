#include "harness.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailPercentile(std::vector<double> v, double q) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  if (n - 1 - idx < 10) idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.used_q = static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

std::map<uint32_t, double> OpSamples::PerKeyMedians() const {
  std::map<uint32_t, std::vector<double>> by_key;
  for (size_t i = 0; i < seconds.size(); ++i) {
    by_key[keys[i]].push_back(seconds[i]);
  }
  std::map<uint32_t, double> out;
  for (auto& [k, s] : by_key) out[k] = Median(std::move(s));
  return out;
}

namespace {

// splitmix64 finaliser: a cheap, well-mixing step for the running hash.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Hasher {
  uint64_t h = 0x6A09E667F3BCC909ULL;
  bool corrupt;
  explicit Hasher(bool c) : corrupt(c) {}
  void Add(uint64_t v) {
    if (corrupt) {
      ++v;
      corrupt = false;
    }
    h = Mix(h ^ v);
  }
};

uint64_t Bits(double d) {
  uint64_t u;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

uint64_t Fingerprint(const fdb::Relation& r, bool corrupt) {
  Hasher h(corrupt);
  h.Add(r.size());
  for (fdb::AttrId a : r.schema()) h.Add(a);
  for (fdb::Value v : r.data()) h.Add(static_cast<uint64_t>(v));
  return h.h;
}

uint64_t Fingerprint(const fdb::GroupedTable& t, bool corrupt) {
  Hasher h(corrupt);
  h.Add(t.num_rows);
  for (fdb::AttrId a : t.group_schema) h.Add(a);
  for (const fdb::AggSpec& s : t.specs) {
    h.Add(static_cast<uint64_t>(s.fn) * 1000003ULL + s.attr);
  }
  for (fdb::Value v : t.keys) h.Add(static_cast<uint64_t>(v));
  for (double d : t.aggs) h.Add(Bits(d));
  return h.h;
}

uint64_t Fingerprint(std::string_view bytes, bool corrupt) {
  Hasher h(corrupt);
  h.Add(bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h.Add(w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h.Add(tail);
  return h.h;
}

fdb::Relation Canonical(const fdb::Relation& r) {
  std::vector<size_t> order(r.arity());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return r.schema()[a] < r.schema()[b];
  });
  std::vector<fdb::AttrId> schema;
  for (size_t c : order) schema.push_back(r.schema()[c]);
  fdb::Relation out(schema);
  if (r.arity() == 0) {
    if (!r.empty()) out.AddTuple({});
    return out;
  }
  std::vector<fdb::Value> values;
  values.reserve(r.size() * r.arity());
  for (size_t row = 0; row < r.size(); ++row) {
    for (size_t c : order) values.push_back(r.At(row, c));
  }
  out.AdoptRows(std::move(values));
  out.SortLex();
  return out;
}

SpanLog::Scope::Scope(SpanLog* log, std::string_view name, uint64_t op)
    : log_(log), index_(-1) {
  if (log->roots_only_ && !log->open_.empty()) {
    log->open_.push_back(-1);
    return;
  }
  index_ = static_cast<int>(log->spans_.size());
  Span s;
  s.name = std::string(name);
  s.parent = log->open_.empty() ? -1 : log->open_.back();
  s.op = op;
  log->open_.push_back(index_);
  s.start = SecondsSince(log->t0_);
  log->spans_.push_back(std::move(s));
}

SpanLog::Scope::~Scope() {
  if (index_ >= 0) {
    log_->spans_[static_cast<size_t>(index_)].end = SecondsSince(log_->t0_);
  }
  log_->open_.pop_back();
}

void SpanLog::Count(uint64_t op, const std::string& name, double value) {
  if (!roots_only_) counts_.emplace(op, std::make_pair(name, value));
}

double SpanLog::LastOpSeconds() const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->parent < 0 && it->name.rfind("api.", 0) == 0) {
      return it->end - it->start;
    }
  }
  return 0;
}

double OverheadPairs::Ratio() const {
  std::vector<double> ratios;
  for (const auto& [key, traced] : traced_) {
    auto it = roots_.find(key);
    if (it != roots_.end()) ratios.push_back(Median(traced) / Median(it->second));
  }
  return Median(ratios);
}

std::map<uint64_t, std::map<std::string, double>> SpanLog::SelfTimes() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<uint64_t, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.op][s.name] += (s.end - s.start) - child[i];
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "%.3f,\"end_us\":%.3f,\"parent\":%d}",
                  s.start * 1e6, s.end * 1e6, s.parent);
    os << "{\"op\":" << s.op << ",\"name\":" << Json::Quote(s.name)
       << ",\"start_us\":" << buf << "\n";
  }
  return static_cast<bool>(os);
}

void ReportEngineError(const std::string& what, const std::exception& e) {
  static std::set<std::string> seen;
  if (seen.insert(e.what()).second) {
    std::cerr << "perfbench: engine error on " << what << ": " << e.what()
              << "\n";
  }
}

namespace {

double StatusKb(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::string k = std::string(key) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(k, 0) == 0) return std::atof(line.c_str() + k.size());
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream os("/proc/self/clear_refs");
  if (!os) return false;
  os << "5";
  return static_cast<bool>(os.flush());
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += Quote(key) + ":";
}

Json& Json::Num(const std::string& key, double v) {
  Key(key);
  if (!std::isfinite(v)) v = v > 0 ? 1e12 : -1e12;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += Quote(v);
  return *this;
}

Json& Json::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string Json::Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

/// The CPUs the process started on, read before main() and so before
/// anything pinned a thread.
const cpu_set_t kStartCpus = [] {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  sched_getaffinity(0, sizeof(mask), &mask);
  return mask;
}();

}  // namespace

void PinToFirstCpus(int n) {
  cpu_set_t first;
  CPU_ZERO(&first);
  for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < n; ++cpu) {
    if (CPU_ISSET(cpu, &kStartCpus)) {
      CPU_SET(cpu, &first);
      ++kept;
    }
  }
  sched_setaffinity(0, sizeof(first), &first);
}

int CpusInUse() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 0;
  return CPU_COUNT(&mask);
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (pinned_ < 0) return;
  // Leaves the thread alone when something else has pinned it since
  // (serve_mix's set-up pins the process to the CPUs of its clients).
  cpu_set_t now;
  if (sched_getaffinity(0, sizeof(now), &now) == 0 && CPU_COUNT(&now) == 1 &&
      CPU_ISSET(pinned_, &now)) {
    sched_setaffinity(0, sizeof(mask_), &mask_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  pinned_ = cpus_[next_++ % cpus_.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pinned_, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double EffectiveParallelism(int threads) {
  constexpr uint64_t kIters = 20'000'000;
  std::atomic<uint64_t> sink{0};
  auto spin = [&] {
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  Clock::time_point t0 = Clock::now();
  spin();
  const double one = SecondsSince(t0);
  t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double many = SecondsSince(t0);
  return many > 0 ? static_cast<double>(threads) * one / many : 0.0;
}

}  // namespace perfbench
