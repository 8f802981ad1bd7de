#pragma once

// Measurement plumbing shared by every workload: the span recorder of the
// traced run, quantiles, per-layer self time, the one-line JSON result and
// the child process a repetition runs in. The arithmetic works on recorded
// samples, so self_test.cpp checks it on hand-built inputs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Per-sample minimum over repetitions of identical work: sample i of the
/// result is the fastest repetition's sample i. Throws when the
/// repetitions differ in sample count.
inline std::vector<double> fastest_of(const std::vector<std::vector<double>>& reps) {
  std::vector<double> out = reps.empty() ? std::vector<double>{} : reps.front();
  for (const std::vector<double>& r : reps) {
    if (r.size() != out.size()) throw std::runtime_error("repetitions differ in sample count");
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], r[i]);
  }
  return out;
}

/// Repetition pacing: true when one more repetition, as long as the one
/// that started at `last_start`, still ends within `seconds` of `begin`.
/// A run therefore measures for at most `seconds`, past its first
/// repetition.
inline bool another_fits(double begin, double last_start, double seconds) {
  const double now = now_s();
  return (now - begin) + (now - last_start) <= seconds;
}

/// One recorded interval. `parent` indexes the enclosing open span in the
/// same Tracer (-1 for a root).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
};

/// In-memory span recorder for the traced run. Spans nest on one thread:
/// open() makes the new span the parent of later ones until close().
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const noexcept { return enabled_; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, current_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end = now_s();
    current_ = spans_[std::size_t(id)].parent;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Total duration of the spans called `name`.
inline double total_s(const std::vector<Span>& spans, std::string_view name) {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (name == sp.name) s += sp.end - sp.start;
  }
  return s;
}

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

/// Self time per layer: each span's duration minus the part of it that
/// its direct children cover (children are clipped to the parent and do
/// not overlap each other, since spans nest on one thread), summed by
/// layer.
inline std::map<std::string, double> layer_self_s(
    const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& sp : spans) {
    if (sp.parent < 0) continue;
    const Span& p = spans[std::size_t(sp.parent)];
    const double lo = std::max(sp.start, p.start);
    const double hi = std::min(sp.end, p.end);
    if (hi > lo) covered[std::size_t(sp.parent)] += hi - lo;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end - spans[i].start - covered[i];
    self[layer_of(spans[i].name)] += std::max(0.0, d);
  }
  return self;
}

/// One metric the benchmark reports and its unit. The two tables below are the benchmark's whole vocabulary;
/// BENCHMARK.json lists the same names (selftest.py checks that).
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// What one run measured, keyed by metric name.
using Values = std::map<std::string, double>;

/// Adds "<layer>.self_s" for every layer the spans touch.
inline void add_self_times(Values& v, const std::vector<Span>& spans) {
  for (const auto& [layer, self] : layer_self_s(spans)) v[layer + ".self_s"] = self;
}

/// The result line: operations attempted/failed plus named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values values;
  std::vector<std::string> errors;
  std::vector<Span> spans;  ///< traced run only; written at exit

  bool correct() const { return failed == 0 && errors.empty(); }

  /// The JSON object, one line: every metric of `defs` in table order.
  /// A per-layer metric that does not apply to the workload reads 0; a
  /// missing or non-finite end-to-end value is an error.
  std::string json(const std::vector<MetricDef>& defs, bool zero_missing);
};

/// Peak resident set of this process (VmHWM), MB; 0 when unavailable.
double peak_rss_mb();

/// Runs `body` in a forked child process and returns the bytes it
/// returned. The child exits right after `body` without running any
/// destructor, so a repetition's teardown is not paid and its peak RSS is
/// its own. Throws if `body` throws (with its message) or the child dies.
/// The caller must be single-threaded.
std::string run_in_child(const std::function<std::string()>& body);

/// Byte packing of the trivially copyable records children send back.
template <class T>
void put(std::string& out, const T& x) {
  out.append(reinterpret_cast<const char*>(&x), sizeof x);
}
template <class T>
T get(const std::string& in, std::size_t& at) {
  T x{};
  if (at + sizeof x > in.size()) throw std::runtime_error("short child reply");
  std::memcpy(&x, in.data() + at, sizeof x);
  at += sizeof x;
  return x;
}

}  // namespace perfbench
