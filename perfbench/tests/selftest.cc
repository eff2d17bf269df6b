// Self-tests of the benchmark's measurement primitives (bench/measure.h):
// percentile selection, span self time with nested spans, the getrusage
// CPU and RSS readers, and the JSON writer. Prints one line per failed check
// and exits nonzero when any fails; perfbench/selftest.py runs it.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b, double eps = 1e-12) {
  return std::abs(a - b) <= eps;
}

void TestPercentiles() {
  using perfbench::Quantile;
  using perfbench::TailPercentile;
  // The highest percentile with at least ten samples beyond it.
  Expect(TailPercentile(0) == 0.0, "n=0 has no tail percentile");
  Expect(TailPercentile(19) == 0.0, "n=19: median has 9.5 beyond");
  Expect(TailPercentile(20) == 50.0, "n=20 -> p50");
  Expect(TailPercentile(39) == 50.0, "n=39 -> p50 (p75 has 9.75 beyond)");
  Expect(TailPercentile(40) == 75.0, "n=40 -> p75");
  Expect(TailPercentile(99) == 75.0, "n=99 -> p75 (p90 has 9.9 beyond)");
  Expect(TailPercentile(100) == 90.0, "n=100 -> p90");
  Expect(TailPercentile(128) == 90.0, "n=128 -> p90 (p95 has 6.4 beyond)");
  Expect(TailPercentile(200) == 95.0, "n=200 -> p95");
  Expect(TailPercentile(999) == 95.0, "n=999 -> p95");
  Expect(TailPercentile(1000) == 99.0, "n=1000 -> p99");
  Expect(TailPercentile(10000) == 99.9, "n=10000 -> p99.9");

  Expect(Quantile({}, 0.5) == 0.0, "empty quantile is 0");
  Expect(Quantile({7.0}, 0.9) == 7.0, "single sample");
  Expect(Near(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "median of 4");
  Expect(Near(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0), "q1 of 5");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Quantile(hundred, 0.9), 90.1), "p90 of 1..100 interpolates");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of 3");
}

void TestSpans() {
  using perfbench::SpanRecorder;
  SpanRecorder rec(true);
  // Root [0, 10] with children [1, 3] and [2, 6] (overlapping: union
  // [1, 6]) and [8, 9]; [2, 6] has a child [3, 4]; one child sticks out
  // of its parent and is clipped.
  auto add = [&](const char* name, int parent, double a, double b) {
    return rec.Add(perfbench::Span{name, parent, a, b});
  };
  const int root = add("root", -1, 0.0, 10.0);
  add("a", root, 1.0, 3.0);
  const int b = add("b", root, 2.0, 6.0);
  add("c", root, 8.0, 9.0);
  add("b.child", b, 3.0, 4.0);
  const int d = add("d", root, 9.5, 12.0);  // clipped to [9.5, 10]
  Expect(Near(rec.SelfSeconds(root), 10.0 - 5.0 - 1.0 - 0.5),
         "root self = duration - union of children");
  Expect(Near(rec.SelfSeconds(b), 3.0), "b self = 4 - 1");
  Expect(Near(rec.SelfSeconds(d), 2.5), "leaf self = own duration");
  const auto by_name = rec.SelfSecondsByName();
  double sum = 0.0;
  for (const auto& [name, s] : by_name) sum += s;
  // Overlapping siblings make the sum exceed the wall by their overlap
  // (1 s) plus the clipped tail of d (2 s).
  Expect(Near(sum, 10.0 + 1.0 + 2.0), "self times sum over the tree");
  Expect(Near(rec.SelfSecondsByName(4).at("b.child"), 1.0),
         "SelfSecondsByName from an offset");

  // Live recording: properly nested spans partition the root exactly.
  SpanRecorder live(true);
  const int r = live.Begin("run");
  {
    perfbench::ScopedSpan outer(&live, "outer");
    {
      perfbench::ScopedSpan inner(&live, "inner");
      volatile double x = 0;
      for (int i = 0; i < 100000; ++i) x = x + i;
    }
    live.AddChild("reported", perfbench::WallSeconds(), 0.0);
  }
  live.End(r);
  const perfbench::Span& run = live.spans()[static_cast<size_t>(r)];
  double total = 0.0;
  for (const auto& [name, s] : live.SelfSecondsByName()) total += s;
  Expect(Near(total, run.end - run.start, 1e-9),
         "nested spans' self times sum to the root's wall");
  Expect(live.spans()[1].parent == r && live.spans()[2].parent == 1 &&
             live.spans()[3].parent == 1,
         "parents follow nesting");

  SpanRecorder off(false);
  { perfbench::ScopedSpan s(&off, "ignored"); }
  Expect(off.spans().empty(), "disabled recorder records nothing");
}

void TestResourceReaders() {
  const double cpu0 = perfbench::CpuSeconds();
  const double wall0 = perfbench::WallSeconds();
  volatile double x = 0;
  while (perfbench::WallSeconds() - wall0 < 0.05) x = x + 1.0;
  const double cpu = perfbench::CpuSeconds() - cpu0;
  Expect(cpu > 0.02 && cpu < 1.0, "getrusage CPU tracks a 50 ms busy loop");

  const int64_t peak0 = perfbench::PeakRssBytes();
  Expect(peak0 > 0 && peak0 < (int64_t{1} << 30), "ru_maxrss is plausible");
  // Touch 64 MiB more than the peak so far: the peak must grow by it.
  const size_t bytes = static_cast<size_t>(peak0) + (size_t{64} << 20);
  std::vector<char> block(bytes);
  for (size_t i = 0; i < bytes; i += 4096) block[i] = 1;
  perfbench::DoNotOptimize(block);
  const int64_t peak1 = perfbench::PeakRssBytes();
  const int64_t rss1 = perfbench::CurrentRssBytes();
  Expect(peak1 - peak0 > (int64_t{48} << 20), "ru_maxrss sees 64 MiB touched");
  Expect(rss1 >= static_cast<int64_t>(bytes) && rss1 <= peak1 + (1 << 20),
         "statm RSS holds the touched block and stays <= the peak");
  block = std::vector<char>();
  Expect(perfbench::CurrentRssBytes() < rss1 - (int64_t{48} << 20),
         "statm RSS drops once the block is freed");
  Expect(perfbench::PeakRssBytes() >= peak1, "the peak never shrinks");
}

void TestJson() {
  perfbench::Json j;
  j.BeginObject();
  j.Key("s").Str("a\"b\\c\n");
  j.Key("n").Num(0.1);
  j.Key("i").Int(-3);
  j.Key("nan").Num(std::nan(""));
  j.Key("list").BeginArray().Bool(true).Num(2.5).EndArray();
  j.EndObject();
  Expect(j.str() ==
             "{\"s\":\"a\\\"b\\\\c\\u000a\",\"n\":0.10000000000000001,"
             "\"i\":-3,\"nan\":null,\"list\":[true,2.5]}",
         "JSON writer output: " + j.str());
}

}  // namespace

int main() {
  TestPercentiles();
  TestSpans();
  TestResourceReaders();
  TestJson();
  std::printf("%s (%d failed checks)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
