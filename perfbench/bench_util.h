// Helpers of the benchmark program: argument parsing, sample statistics,
// the raw-result report, and the in-memory span tracer.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

inline Clock::time_point after_seconds(double s) {
  return Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(s * 1e6));
}

// ------------------------------------------------------------------ args --
/// `<workload> --key value ...`
class Args {
 public:
  Args(int argc, char** argv) {
    if (argc < 2)
      throw std::runtime_error(
          "usage: mfn_perfbench <workload> --seed N --seconds S [--key value]");
    workload_ = argv[1];
    for (int i = 2; i < argc; i += 2) {
      const std::string k = argv[i];
      if (k.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::runtime_error("expected --key value, got " + k);
      kv_[k.substr(2)] = argv[i + 1];
    }
  }
  const std::string& workload() const { return workload_; }
  bool has(const std::string& k) const { return kv_.count(k) != 0; }
  std::string str(const std::string& k) const {
    auto it = kv_.find(k);
    if (it == kv_.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  double num(const std::string& k) const { return std::stod(str(k)); }

 private:
  std::string workload_;
  std::map<std::string, std::string> kv_;
};

// ----------------------------------------------------------------- stats --
inline double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(static_cast<std::size_t>(rank) - 1, v.size() - 1)];
}

/// The highest of p99.9/p99/p98/p95/p90/p75 with at least ten samples
/// beyond it (the median when none has).
struct Tail {
  double pct = 50.0;
  double value = NAN;
};
inline Tail tail_percentile(const std::vector<double>& v) {
  static const double kCandidates[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0};
  const double n = static_cast<double>(v.size());
  for (double p : kCandidates)
    if (n - std::ceil(p / 100.0 * n) >= 10.0)
      return {p, percentile(v, p / 100.0)};
  return {50.0, percentile(v, 0.5)};
}

/// Samples split into consecutive groups of `size` (a short trailing group
/// is dropped). Medians over groups of a per-group statistic shrug off a
/// burst of CPU steal that covers less than half of a run.
inline std::vector<std::vector<double>> groups_of(const std::vector<double>& v,
                                                  std::size_t size) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i + size <= v.size(); i += size)
    out.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(i),
                     v.begin() + static_cast<std::ptrdiff_t>(i + size));
  return out;
}

/// Values of timestamped samples grouped into consecutive windows of
/// `width` seconds; windows that end after `end_s` are dropped.
inline std::vector<std::vector<double>> windows_of(
    const std::vector<std::pair<double, double>>& t_and_value, double width,
    double end_s) {
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(std::max(0.0, end_s / width)));
  for (const auto& [t, v] : t_and_value) {
    const auto i = static_cast<std::size_t>(t / width);
    if (i < out.size()) out[i].push_back(v);
  }
  return out;
}

/// Median over the non-empty groups of f(group).
inline double median_over(
    const std::vector<std::vector<double>>& groups,
    const std::function<double(const std::vector<double>&)>& f) {
  std::vector<double> v;
  for (const auto& g : groups)
    if (!g.empty()) v.push_back(f(g));
  return median(v);
}

inline double peak_rss_mib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median seconds of `repeats` runs of `setup`; the caller's captures keep
/// the products of the last run.
inline double timed_setups(int repeats, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int r = 0; r < std::max(repeats, 1); ++r) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_since(t0) * 1e-3);
  }
  return median(s);
}

/// Median milliseconds of `fn` over `reps` calls, after one warm call.
inline double time_direct(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

// ---------------------------------------------------------------- report --
/// Raw measurements of one invocation, printed as one JSON line:
/// {"attempted", "failed", "metrics", "layers", "context", "checks"}, where
/// each metric is {"value", "unit"}.
class Report {
 public:
  void metric(const std::string& k, double v, const std::string& unit) {
    metrics_.emplace_back(k, "{\"value\":" + num(v) + ",\"unit\":\"" + unit + "\"}");
  }
  void layer(const std::string& k, double v) { layers_.emplace_back(k, num(v)); }
  void context(const std::string& k, double v) { context_.emplace_back(k, num(v)); }
  void context(const std::string& k, const std::string& v) {
    context_.emplace_back(k, "\"" + v + "\"");
  }
  /// An output check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[perfbench] check failed: %s\n", name.c_str());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string json() const {
    std::ostringstream os;
    auto section = [&os](const char* name, const auto& kv) {
      os << ",\"" << name << "\":{";
      for (std::size_t i = 0; i < kv.size(); ++i)
        os << (i ? "," : "") << "\"" << kv[i].first << "\":" << kv[i].second;
      os << "}";
    };
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed;
    section("metrics", metrics_);
    section("layers", layers_);
    section("context", context_);
    std::vector<std::pair<std::string, std::string>> checks;
    for (const auto& [k, ok] : checks_) checks.emplace_back(k, ok ? "true" : "false");
    section("checks", checks);
    os << "}";
    return os.str();
  }

 private:
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }
  std::vector<std::pair<std::string, std::string>> metrics_, layers_, context_;
  std::vector<std::pair<std::string, bool>> checks_;
};

// ---------------------------------------------------------------- tracer --
/// In-memory span recorder. Each thread appends to its own buffer (the
/// registry locks only when a thread records its first span). A span's
/// parent is the innermost span open on the same thread when it started;
/// it inherits the parent's op id (training step or request) unless given
/// one. Disarmed, a span costs one relaxed atomic load.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t t0_ns, t1_ns;
    std::int64_t parent;    // index in the same buffer, -1 for a root
    std::int64_t op;        // step or request id, -1 when none
    std::int64_t child_ns;  // summed duration of direct children
  };
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;
  };
  struct Agg {
    std::vector<double> ms;  // one per span
    double total_ms = 0.0;
  };

  static bool armed() { return armed_.load(std::memory_order_relaxed); }
  static void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch())
        .count();
  }

  static Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->tid = static_cast<int>(buffers_.size());
    }
    return *buf;
  }

  /// Per-name aggregates of the closed spans. Call while no thread records.
  static std::map<std::string, Agg> aggregate() {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, Agg> out;
    for (const auto& b : buffers_)
      for (const Span& s : b->spans) {
        if (s.t1_ns < s.t0_ns) continue;
        Agg& a = out[s.name];
        const double ms = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6;
        a.ms.push_back(ms);
        a.total_ms += ms;
      }
    return out;
  }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  static void write_chrome(const std::string& path) {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& b : buffers_)
      for (const Span& s : b->spans) {
        if (s.t1_ns < s.t0_ns) continue;
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->tid
           << ",\"ts\":" << static_cast<double>(s.t0_ns) * 1e-3
           << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3
           << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
           << ",\"self_us\":"
           << static_cast<double>(s.t1_ns - s.t0_ns - s.child_ns) * 1e-3
           << "}}";
        first = false;
      }
    os << "\n]}\n";
  }

 private:
  static Clock::time_point epoch() {
    static const Clock::time_point t0 = Clock::now();
    return t0;
  }
  static inline std::atomic<bool> armed_{false};
  static inline std::mutex mu_;
  static inline std::vector<std::unique_ptr<Buffer>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t op = -1) {
    if (!Tracer::armed()) return;
    buf_ = &Tracer::local();
    const std::int64_t parent =
        buf_->open.empty() ? -1 : static_cast<std::int64_t>(buf_->open.back());
    if (op < 0 && parent >= 0)
      op = buf_->spans[static_cast<std::size_t>(parent)].op;
    idx_ = buf_->spans.size();
    buf_->spans.push_back({name, Tracer::now_ns(), -1, parent, op, 0});
    buf_->open.push_back(idx_);
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    Tracer::Span& s = buf_->spans[idx_];
    s.t1_ns = Tracer::now_ns();
    buf_->open.pop_back();
    if (s.parent >= 0)
      buf_->spans[static_cast<std::size_t>(s.parent)].child_ns +=
          s.t1_ns - s.t0_ns;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  std::size_t idx_ = 0;
};

/// Durations (ms) of every closed span called `name`.
inline std::vector<double> span_ms(
    const std::map<std::string, Tracer::Agg>& agg, const std::string& name) {
  auto it = agg.find(name);
  return it == agg.end() ? std::vector<double>{} : it->second.ms;
}

/// Summed duration of the spans called `name`, per op.
inline double ms_per_op(const std::map<std::string, Tracer::Agg>& agg,
                        const std::string& name, double ops) {
  auto it = agg.find(name);
  return it == agg.end() || ops <= 0 ? 0.0 : it->second.total_ms / ops;
}

}  // namespace perfbench
