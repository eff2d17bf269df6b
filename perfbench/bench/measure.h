// Measurement primitives for the benchmark: host clocks and resource
// readers, order statistics, an in-memory span recorder, and a minimal
// JSON writer. Nothing here touches the simulator; the self-tests in
// perfbench/tests/selftest.cc cover every function.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds (steady_clock; arbitrary origin).
double WallSeconds();

/// CPU time of the whole process, user + system, all threads
/// (getrusage(RUSAGE_SELF)).
double CpuSeconds();

/// Peak resident set size of the process in bytes (ru_maxrss).
int64_t PeakRssBytes();

/// Current resident set size in bytes, from /proc/self/statm; -1 when the
/// file cannot be read.
int64_t CurrentRssBytes();

/// Linear-interpolated quantile, q in [0, 1] (the "inclusive" method:
/// rank q * (n - 1)). 0 on an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The highest percentile from the ladder 50, 75, 90, 95, 99, 99.9 that
/// still has at least ten of `n` samples beyond it, or 0 when even the
/// median has fewer than ten samples beyond it (n < 20).
double TailPercentile(size_t n);

/// Keeps `value` alive and opaque to the optimizer.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// One timed interval of the traced run.
struct Span {
  std::string name;
  int parent = -1;  ///< index into SpanRecorder::spans(), -1 for a root
  double start = 0.0;
  double end = 0.0;
};

/// Records nested spans in memory. Begin() opens a span under the
/// innermost open one; End() closes it. Spans are never written while the
/// run is measured; the caller serializes spans() when the run ends.
/// A disabled recorder ignores every call (the untraced run).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const std::string& name);
  void End(int id);
  /// Appends a finished span; returns its id.
  int Add(Span span);
  /// Adds an already-measured child of the innermost open span at
  /// [start, start + seconds]; self times clip it to its parent. Used for
  /// phase timings a library call reports itself.
  void AddChild(const std::string& name, double start, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the union of the intervals its direct children
  /// cover, clipped to the span.
  double SelfSeconds(int id) const;
  /// Self time summed per span name, over spans()[first:].
  std::map<std::string, double> SelfSecondsByName(size_t first = 0) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec->enabled() ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Appends JSON to a string. Numbers keep every digit (%.17g); a
/// non-finite number is written as null.
class Json {
 public:
  Json& BeginObject();
  Json& EndObject();
  Json& BeginArray();
  Json& EndArray();
  Json& Key(const std::string& key);
  Json& Str(const std::string& value);
  Json& Num(double value);
  Json& Int(int64_t value);
  Json& Bool(bool value);
  const std::string& str() const { return out_; }

 private:
  void Separate();
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
